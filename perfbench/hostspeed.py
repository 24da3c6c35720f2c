"""Host-speed calibration: fixed Python work timed alongside the workload.

The shared host this benchmark runs on changes speed by a quarter to a
third, in CPU time as in wall time, in phases of seconds to minutes and in
bursts shorter than a second, so a run's raw times say as much about the
host as about flagcone.  A worker therefore runs a fixed chunk of
pure-Python work (``chunk``: integer bit tests like the DD pair scan, exact
rational sums, dict updates) that does not touch flagcone, on the same
thread as the workload, through the timed phase: right before every
operation, once when the phase stops, and every ``INTERVAL_S`` seconds from
a ``SIGALRM`` handler, so that it lands between the bytecodes of a running
operation, even inside one long call such as ``extreme_rays(5)``.

The time spent in the handler is taken out of the operation that it
interrupted.  The cyclic garbage collector is off during a chunk, so that a
chunk never pays for collecting the workload's heap.  An operation's
``scale`` is ``REFERENCE_S`` over the mean duration of the chunks run
during it and of the one right before and the one right after it: below 1
when the host runs slow.  Raw time times scale is the time the operation
would take on a host where one chunk takes ``REFERENCE_S``, which is about
what this benchmark's 2-vCPU host takes in its quiet phases, so scaled
times read close to quiet-host wall times.  Changes to flagcone move the
operation and not the chunk, so they show in full; changes of host speed
move both and largely cancel.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from fractions import Fraction

# One chunk on the reference host, in seconds.
REFERENCE_S = 0.0047

# Seconds between chunks inside long operations; they cost about 2.5%.
INTERVAL_S = 0.2

_MASKS = [(i * 2654435761) & ((1 << 96) - 1) for i in range(1, 120)]


def chunk() -> int:
    """Fixed work of about REFERENCE_S on the reference host."""
    hits = 0
    for a in _MASKS:
        for b in _MASKS[:60]:
            z = a & b
            if z.bit_count() > 20 and z & ~b == 0:
                hits += 1
    total = Fraction(0)
    for i in range(1, 700):
        total += Fraction(i % 97 - 40, i % 13 + 1)
    counts: dict[tuple[int, int], int] = {}
    for i in range(3000):
        key = (i * 7) % 211, i % 5
        counts[key] = counts.get(key, 0) + 1
    return hits + total.numerator + len(counts)


class Sampler:
    """Chunks timed on the workload's thread; (start, end) of each, in the
    order they ran."""

    def __init__(self, clock):
        self.clock = clock
        self.chunks: list[tuple[float, float]] = []

    def sample(self, *_) -> None:
        """Run and time one chunk."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = self.clock()
            chunk()
            self.chunks.append((start, self.clock()))
        finally:
            if collecting:
                gc.enable()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def inside(self, t0: float, t1: float) -> float:
        """Seconds of chunks run between t0 and t1."""
        return sum(max(0.0, min(b, t1) - max(a, t0)) for a, b in self.chunks)

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the mean duration of the chunks that started
        during [t0, t1], the last one before it and the first one after."""
        starts = [a for a, _ in self.chunks]
        lo = max(bisect.bisect_left(starts, t0) - 1, 0)
        hi = bisect.bisect_right(starts, t1) + 1
        return REFERENCE_S / statistics.fmean(b - a for a, b in self.chunks[lo:hi])
