"""Interval systems on [1, n] and their blocker calculus.

An interval system is a finite set of integer intervals [lo, hi] inside
[1, n].  A rank set S blocks the system when S meets every member interval.
The family of blocking sets determines the system up to its antichain of
minimal intervals, and these antichains are exactly the combinatorial types
that matter for inequalities between chain counts: there are Catalan-many of
them, C(n+1) for ambient [1, n].
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator

from . import ranksets

#: blockers() enumerates all 2**n subsets; keep that bounded.
MAX_AMBIENT = 20


class AmbientTooLarge(ValueError):
    """Ambient n too large for exhaustive subset enumeration."""


class IntervalOutOfRange(ValueError):
    """An interval does not fit inside the ambient [1, n]."""


@dataclass(frozen=True, order=True)
class Interval:
    """Integer interval [lo, hi] with 1 <= lo <= hi."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not (1 <= self.lo <= self.hi):
            raise IntervalOutOfRange(f"bad interval [{self.lo},{self.hi}]")

    @property
    def mask(self) -> int:
        return ranksets.interval_mask(self.lo, self.hi)

    def contains(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def __str__(self) -> str:
        return f"[{self.lo},{self.hi}]"


@dataclass(frozen=True)
class IntervalSystem:
    """A set of intervals inside [1, ambient_n], held as an ascending tuple of
    distinct intervals whatever it was built from.  ambient_n = 0 forces emptiness."""

    ambient_n: int
    intervals: tuple[Interval, ...]

    def __post_init__(self) -> None:
        if self.ambient_n < 0:
            raise IntervalOutOfRange(f"ambient {self.ambient_n} < 0")
        ivs = tuple(sorted(set(self.intervals)))
        for iv in ivs:
            if iv.hi > self.ambient_n:
                raise IntervalOutOfRange(f"{iv} exceeds ambient [1,{self.ambient_n}]")
        object.__setattr__(self, "intervals", ivs)

    @classmethod
    def of(cls, ambient_n: int, intervals: Iterable[Interval | tuple[int, int]]) -> "IntervalSystem":
        return cls(ambient_n, [iv if isinstance(iv, Interval) else Interval(*iv) for iv in intervals])

    @classmethod
    def empty(cls, ambient_n: int) -> "IntervalSystem":
        return cls(ambient_n, ())

    @classmethod
    def parse(cls, text: str, ambient_n: int) -> "IntervalSystem":
        """Parse the literal syntax: "[1,2]+[2,3]" or "empty".

        A malformed literal is reported whole, whichever of its `+`-separated
        parts is at fault.
        """
        s = text.strip()
        if s == "empty":
            return cls.empty(ambient_n)
        ivs = []
        for part in s.split("+"):
            p = part.strip()
            ends = [e.strip() for e in p[1:-1].split(",")]
            digits = all(e.isascii() and e.isdigit() for e in ends)
            if not (p.startswith("[") and p.endswith("]") and len(ends) == 2 and digits):
                raise ValueError(f"bad interval literal {text!r}")
            ivs.append(Interval(int(ends[0]), int(ends[1])))
        return cls.of(ambient_n, ivs)

    def sort_key(self) -> tuple:
        return tuple((iv.lo, iv.hi) for iv in self.intervals)

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)

    def __str__(self) -> str:
        if not self.intervals:
            return "empty"
        return "+".join(str(iv) for iv in self.intervals)


@dataclass(frozen=True)
class BlockerFamily:
    """All rank sets within [1, ambient_n] that meet every interval of a system."""

    ambient_n: int
    members: frozenset[int]

    def __contains__(self, mask: int) -> bool:
        return mask in self.members

    def __len__(self) -> int:
        return len(self.members)


def is_blocker(mask: int, system: IntervalSystem) -> bool:
    """Does the rank set meet every interval of the system?

    Every set blocks the empty system, including the empty set.
    """
    ranksets.check_mask(mask, system.ambient_n)
    return all(mask & iv.mask for iv in system.intervals)


def _check_ambient(n: int) -> None:
    if n > MAX_AMBIENT:
        raise AmbientTooLarge(f"ambient {n} > {MAX_AMBIENT}")


def blockers(system: IntervalSystem) -> BlockerFamily:
    """Enumerate every blocking rank set of the system."""
    n = system.ambient_n
    _check_ambient(n)
    masks = [iv.mask for iv in system.intervals]
    members = frozenset(s for s in range(1 << n) if all(s & m for m in masks))
    return BlockerFamily(n, members)


def catalan(m: int) -> int:
    return comb(2 * m, m) // (m + 1)


def enumerate_antichains(n: int) -> list[IntervalSystem]:
    """All antichains of intervals inside [1, n], C(n+1) of them.

    Intervals form an antichain under containment exactly when, sorted by
    left endpoint, their right endpoints strictly increase too.  So the
    intervals are chosen depth first, each with both endpoints above the
    previous one's; every system comes out before its extensions, the
    output is in IntervalSystem.sort_key order, and it starts with the
    empty system.
    """
    if n < 0:
        raise IntervalOutOfRange(f"ambient {n} < 0")
    if n > 14:
        raise AmbientTooLarge(f"ambient {n} > 14 for antichain enumeration")
    out: list[IntervalSystem] = []
    _extend_antichain(n, 1, 1, [], out)
    assert len(out) == catalan(n + 1)
    return out


def _extend_antichain(
    n: int, lo_min: int, hi_min: int, chosen: list[Interval], out: list[IntervalSystem]
) -> None:
    """The recursion of enumerate_antichains: append the antichain `chosen`
    to `out`, then each extension by an interval with both endpoints above
    those of its last one.  A module-level function rather than a closure
    over `out`, so a call leaves no reference cycle.
    """
    out.append(IntervalSystem.of(n, chosen))
    for lo in range(lo_min, n + 1):
        for hi in range(max(lo, hi_min), n + 1):
            _extend_antichain(n, lo + 1, hi + 1, chosen + [Interval(lo, hi)], out)
