"""One workload process of the benchmark, in a fresh interpreter.

run.py starts it as ``python3 perfbench/worker.py CONFIG`` with CONFIG a
JSON object: workload, seed, seconds, size, reference (a file), mode and,
in trace mode, spans (the file the spans go to).  Modes:

* ``setup``: set up, report ready, exit;
* ``measure``: set up, then run operations in a closed loop, one at a
  time, until ``seconds`` have passed and at least ``min_ops`` are done
  (a cold workload does one), with host-speed chunks interleaved
  (hostspeed.py), then check every output;
* ``trace``: set up and run exactly ``min_ops`` operations with the span
  tracer installed and no host-speed chunks.

It writes JSON lines to standard output: ``{"event": "ready"}`` when set-up
is done, then ``{"event": "result", ...}``.  A result's ``times`` are the
operations' wall times less the chunks run inside them, ``scales`` the
host-speed scale of each.
"""

from __future__ import annotations

import contextlib
import importlib.util
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import flagcone  # noqa: E402

import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# Failure messages kept per process; the counts cover all of them.
MAX_MESSAGES = 10


def emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(config: dict) -> int:
    if not Path(flagcone.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"flagcone imported from {flagcone.__file__}, not {ROOT / 'src'}")
    wl = workloads.WORKLOADS[config["workload"]]
    mode = config["mode"]
    traced = mode == "trace"
    clock = time.perf_counter
    tracer = tracing.Tracer(clock) if traced else None

    if tracer is not None:
        tracer.install()
        phase = tracer.phase
    else:
        phase = lambda name: contextlib.nullcontext()  # noqa: E731

    with phase("setup"):
        state = wl.setup(config["seed"], config["size"])
    emit({"event": "ready"})
    if mode == "setup":
        emit({"event": "result"})
        return 0

    records = []
    spans = []
    sampler = None if traced else hostspeed.Sampler(clock)
    start = clock()
    if sampler is not None:
        sampler.start()
    for item in wl.items(state):
        if sampler is not None:
            sampler.sample()
        with phase("solve"):
            t0 = clock()
            output = wl.job(state, item)
            t1 = clock()
        records.append((item, output))
        spans.append((t0, t1))
        if len(spans) >= wl.min_ops and (traced or wl.cold or t1 - start >= config["seconds"]):
            break
    if sampler is not None:
        sampler.stop()
        times = [t1 - t0 - sampler.inside(t0, t1) for t0, t1 in spans]
        scales = [sampler.scale(t0, t1) for t0, t1 in spans]
    else:
        times = [t1 - t0 for t0, t1 in spans]
        scales = [1.0] * len(spans)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layer = {}
    if tracer is not None:
        tracer.uninstall()
        layer = tracer.layer_metrics()
        tracer.write(config["spans"])

    with open(config["reference"]) as fh:
        reference = json.load(fh)
    failed = 0
    messages = []
    for item, output in records:
        fails = wl.check(state, item, output, reference)
        if fails:
            failed += 1
            messages.extend(fails[: MAX_MESSAGES - len(messages)])
    emit({
        "event": "result",
        "cold": wl.cold,
        "times": times,
        "scales": scales,
        "forms": [wl.forms(output) for _, output in records],
        "rss_mb": rss_mb,
        "attempted": len(records),
        "failed": failed,
        "messages": messages,
        "summary": wl.summary(state, [output for _, output in records]),
        "layer": layer,
        "absent": tracer.absent if tracer is not None else [],
        "spans": len(tracer.spans) if tracer is not None else 0,
        "compiled_kernel": importlib.util.find_spec("flagcone._ddcore") is not None,
    })
    return 0


if __name__ == "__main__":
    raise SystemExit(main(json.loads(sys.argv[1])))
