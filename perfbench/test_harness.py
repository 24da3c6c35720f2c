"""Self-test of the benchmark harness at reduced sizes.

    python3 perfbench/test_harness.py

Runs every workload small (rank-5 enumeration and derivation, degree-5
forms) through the real command, checks the printed metrics, the
host-speed accounting and the traced-run span accounting, and shows that
a wrong reference digest makes the command fail.  Takes well under a
minute.
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.splitlines()


def small(workload: str, trace: int, *extra: str) -> tuple[int, list[str]]:
    return bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                 "--trace", str(trace), "--size", "small", *extra)


class HarnessTest(unittest.TestCase):
    def test_workload_names(self):
        self.assertEqual(run.WORKLOAD_NAMES, tuple(workloads.WORKLOADS))

    def test_end_to_end_metrics_printed_and_checked(self):
        for name in run.WORKLOAD_NAMES:
            with self.subTest(workload=name):
                code, lines = small(name, 0)
                self.assertEqual(code, 0, lines)
                last = json.loads(lines[-1])
                self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(last["correct"])
                self.assertEqual(last["failed"], 0)
                self.assertGreaterEqual(last["attempted"], 1)
                self.assertEqual(
                    {k: v["unit"] for k, v in last["metrics"].items()}, dict(run.END_TO_END))
                for metric, unit in run.END_TO_END:
                    self.assertGreater(last["metrics"][metric]["value"], 0)
                    self.assertTrue(any(line.startswith(f"{metric} ") and line.endswith(f" {unit}")
                                        for line in lines), metric)
                self.assertIn("fail_ratio 0 ratio", "\n".join(lines))

    def test_wrong_digest_fails_the_run(self):
        reference = json.loads((HERE / "reference.json").read_text())
        reference["enumerate"]["4"]["digest"] = "0" * 64
        OUT.mkdir(exist_ok=True)
        bad = OUT / "wrong-reference.json"
        bad.write_text(json.dumps(reference))
        code, lines = small("enumerate-r6", 0, "--reference", str(bad))
        self.assertNotEqual(code, 0)
        last = json.loads(lines[-1])
        self.assertFalse(last["correct"])
        self.assertEqual(last["failed"], last["attempted"])
        self.assertTrue(any(line.startswith("fail_ratio 1 ") for line in lines))

    def test_traced_run(self):
        counts = []
        for _ in range(2):
            code, lines = small("certify-r7", 1)
            self.assertEqual(code, 0, lines)
            metrics = json.loads(lines[-1])["metrics"]
            self.assertEqual({k: v["unit"] for k, v in metrics.items()},
                             dict(tracer.LAYER_METRICS))
            counts.append({k: v["value"] for k, v in metrics.items()
                           if v["unit"] in ("count", "ratio") and not k.startswith("trace.")})
            self.assertGreater(metrics["cone.contains.calls"]["value"], 0)
            self.assertGreater(metrics["poset.partition_classes.chains"]["value"], 0)
            self.assertGreater(metrics["trace.overhead.solve_s"]["value"], 0)
        self.assertEqual(counts[0], counts[1])

        spans = [json.loads(line) for line in
                 (OUT / "spans-certify-r7-seed3-trace1.jsonl").read_text().splitlines()]
        child_time = [0.0] * len(spans)
        for span in spans:
            self.assertLessEqual(span["start"], span["end"])
            if span["parent"] >= 0:
                parent = spans[span["parent"]]
                self.assertLess(span["parent"], span["id"])
                self.assertGreaterEqual(span["start"], parent["start"])
                self.assertLessEqual(span["end"], parent["end"])
                child_time[span["parent"]] += span["end"] - span["start"]
        for span, inner in zip(spans, child_time):
            self_time = span["end"] - span["start"] - inner
            self.assertGreaterEqual(self_time, -1e-9)
            self.assertLessEqual(self_time, span["end"] - span["start"])

    def test_layer_accounting(self):
        ticks = iter(range(1000))
        t = tracer.Tracer(clock=lambda: float(next(ticks)))
        project = t.wrap(lambda: None, "algebra.project", None)

        def by_projection():
            project()
            project()
            return True

        contains = t.wrap(lambda: inner_contains(), "cone.contains", bool)
        inner_contains = t.wrap(by_projection, "cone.contains", bool)
        with t.phase("solve"):
            contains()
        with t.phase("verify"):
            project()
        m = t.layer_metrics()
        self.assertEqual(m["algebra.project.calls"], 2)
        self.assertEqual(m["algebra.project.s"], 2.0)
        self.assertEqual(m["cone.contains.calls"], 2)
        # the nested call of the same name is counted once in inclusive time
        self.assertEqual(m["cone.contains.self_s"], 5.0)
        self.assertEqual(m["cone.contains.inside_ratio"], 1.0)
        self.assertEqual(m["polyhedra.dd_rays.calls"], 0)

    def test_host_speed_accounting(self):
        ref = hostspeed.REFERENCE_S
        sampler = hostspeed.Sampler(clock=None)
        # a chunk every 0.25 s, twice the reference length: half speed
        sampler.chunks = [(0.25 * i, 0.25 * i + 2 * ref) for i in range(20)]
        self.assertAlmostEqual(sampler.inside(1.0, 1.5), 4 * ref)
        self.assertAlmostEqual(sampler.inside(1.0 + ref, 1.2), ref)
        self.assertAlmostEqual(sampler.scale(2.1, 2.2), 0.5)
        # the chunks during the operation and the nearest on either side count
        sampler.chunks[8] = (2.0, 2.0 + 5 * ref)
        sampler.chunks[10] = (2.5, 2.5 + 5 * ref)
        self.assertAlmostEqual(sampler.scale(2.1, 2.2), 2 / 7)
        self.assertAlmostEqual(sampler.scale(2.1, 2.3), 1 / 4)
        self.assertAlmostEqual(sampler.scale(1.6, 1.7), 0.5)
        self.assertAlmostEqual(sampler.scale(50.0, 50.1), 0.5)
        # a chunk right before the operation and one when the phase stops
        ticks = iter(range(100))
        sampler = hostspeed.Sampler(clock=lambda: next(ticks) * ref)
        sampler.sample()
        sampler.start()
        sampler.stop()
        self.assertEqual(sampler.chunks, [(0.0, ref), (2 * ref, 3 * ref)])
        self.assertAlmostEqual(sampler.scale(1.1 * ref, 1.9 * ref), 1.0)
        self.assertTrue(gc.isenabled())

    def test_fails_without_the_source_tree(self):
        bare = OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            code, lines = bench("--workload", "derive-r6", "--seed", "1", "--seconds", "1",
                                "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(code, 0)
        self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
