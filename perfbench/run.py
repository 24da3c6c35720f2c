"""Benchmark of flagcone: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload enumerate-r6 --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports flagcone from
``src/``.  Every measured process is a fresh interpreter (worker.py), and
operations run one at a time in a closed loop on one thread.  With
``--trace 0`` the run prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced process plus the tracing overhead.
Operation times are scaled to a reference host speed measured alongside
the workload (hostspeed.py); the raw figures are printed as comments.
Outputs are checked against reference.json; a failed check makes the exit
code nonzero.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  A record of the run, with its
metadata, goes to perfbench/out/.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"

WORKLOAD_NAMES = ("enumerate-r6", "derive-r6", "certify-r7")

# Set-up is timed in this many extra processes per untraced run, and
# reported as the median over them and the measuring processes.
SETUP_PROBES = 8

# Whole-run limit: a worker still running after this many seconds from the
# start is killed and the run fails.
RUN_LIMIT_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("forms_per_s", "1/s"),
    ("form_ms_p50", "ms"),
    ("form_ms_p95", "ms"),
    ("peak_rss_mb", "MB"),
)


class WorkerError(RuntimeError):
    """A workload process failed, timed out or broke the line protocol."""


def spawn(config: dict, env: dict, deadline: float) -> dict:
    """Run one worker; returns its result, with ``ready_s`` the seconds from
    start to ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), json.dumps(config)],
        stdout=subprocess.PIPE, text=True, env=env, cwd=str(ROOT),
    )
    watchdog = threading.Timer(max(0.0, deadline - t0), proc.kill)
    watchdog.start()
    ready_s = None
    result = None
    try:
        for line in proc.stdout:
            event = json.loads(line)
            if event["event"] == "ready":
                ready_s = time.perf_counter() - t0
            elif event["event"] == "result":
                result = event
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready_s is None:
        raise WorkerError(f"{config['workload']} {config['mode']} worker exited with {code}")
    if result is None:
        raise WorkerError(f"{config['workload']} {config['mode']} worker sent no result")
    return dict(result, ready_s=ready_s)


def measure(base: dict, env: dict, deadline: float) -> list[dict]:
    """Measuring processes until --seconds of operations are done.

    A cold workload does one operation per process, so processes repeat.
    """
    results = []
    timed = 0.0
    while True:
        result = spawn(dict(base, mode="measure"), env, deadline)
        results.append(result)
        timed += sum(result["times"])
        if not result["cold"] or timed >= base["seconds"]:
            return results


def p95(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def flatten(results: list[dict], scaled: bool) -> tuple[list[float], list[int]]:
    """Operation times, raw or scaled to the reference host speed, and forms
    per operation, in the order they ran."""
    return ([t * (s if scaled else 1.0) for r in results for t, s in zip(r["times"], r["scales"])],
            [f for r in results for f in r["forms"]])


def op_metrics(times: list[float], forms: list[int]) -> dict[str, float]:
    # On enumerate and derive every form comes out of one call, so the
    # per-form time is that call's time shared out over its forms.
    per_form_ms = [1e3 * t / f for t, f in zip(times, forms)]
    return {
        "solve_s": statistics.median(times),
        "forms_per_s": sum(forms) / sum(times),
        "form_ms_p50": statistics.median(per_form_ms),
        "form_ms_p95": p95(per_form_ms),
    }


def run_untraced(base: dict, env: dict, deadline: float):
    probes = [spawn(dict(base, mode="setup"), env, deadline) for _ in range(SETUP_PROBES)]
    results = measure(base, env, deadline)
    setups = probes + results
    setup_s = statistics.median(r["ready_s"] for r in setups)
    rss_mb = statistics.median(r["rss_mb"] for r in results)
    times, forms = flatten(results, scaled=True)
    metrics = {"setup_s": setup_s, **op_metrics(times, forms), "peak_rss_mb": rss_mb}
    raw = op_metrics(*flatten(results, scaled=False))
    return metrics, dict(END_TO_END), results, {
        "raw_metrics": raw,
        "setup_samples": [r["ready_s"] for r in setups],
        "form_samples": len(times)}


def run_traced(base: dict, env: dict, deadline: float, spans: Path):
    # With no time to fill, the untraced process does min_ops operations,
    # the same ones the traced process does, so the overhead compares like
    # with like.  Both sides are raw times: the traced process runs no
    # host-speed chunks.
    plain = measure(dict(base, seconds=0), env, deadline)
    traced = spawn(dict(base, mode="trace", spans=str(spans)), env, deadline)
    ops = len(traced["times"])
    times, forms = flatten(plain, scaled=False)
    untraced = op_metrics(times[:ops], forms[:ops])
    with_trace = op_metrics(traced["times"], traced["forms"])
    metrics = dict(traced["layer"])
    metrics["trace.overhead.solve_s"] = with_trace["solve_s"] / untraced["solve_s"]
    metrics["trace.overhead.forms_per_s"] = with_trace["forms_per_s"] / untraced["forms_per_s"]
    return metrics, dict(LAYER_METRICS), plain + [traced], {
        "form_samples": ops, "spans": traced["spans"], "absent_wrappers": traced["absent"]}


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args: argparse.Namespace, stripped: list[str], results: list[dict]) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "compiled_kernel": any(r["compiled_kernel"] for r in results),
        "host_speed": statistics.median(s for r in results for s in r["scales"]),
        "flagcone_env_set": stripped,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="flagcone benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: reduced inputs for the harness self-test")
    parser.add_argument("--reference", default=str(HERE / "reference.json"))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "flagcone" / "__init__.py").is_file():
        print(f"error: no flagcone source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # Workers run the library defaults: FLAGCONE_* settings are not passed on.
    stripped = sorted(k for k in os.environ if k.startswith("FLAGCONE_"))
    env = {k: v for k, v in os.environ.items() if k not in stripped}
    deadline = time.perf_counter() + RUN_LIMIT_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    base = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "size": args.size, "reference": str(Path(args.reference).resolve())}

    try:
        if args.trace == 0:
            metrics, units, runs, extra = run_untraced(base, env, deadline)
        else:
            metrics, units, runs, extra = run_traced(
                base, env, deadline, OUT / f"spans-{tag}.jsonl")
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    meta = metadata(args, stripped, runs)
    record = {
        "metadata": meta,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "summary": runs[0]["summary"],
        **extra,
        "messages": [m for r in runs for m in r["messages"]],
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    for key, value in meta.items():
        print(f"# {key}: {value}")
    print(f"# summary: {json.dumps(record['summary'])}")
    print(f"# samples: {extra['form_samples']} operations timed, "
          f"{len(extra.get('setup_samples', []))} set-ups")
    for name, value in extra.get("raw_metrics", {}).items():
        print(f"# raw {name} {value:.6g} {units[name]}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"fail_ratio {record['fail_ratio']:.6g} ratio ({failed}/{attempted})")
    for message in record["messages"]:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
