"""Graded posets with explicit ranks, their flag numbers and chain partitions.

A graded poset here is given by elements with declared ranks 0..rank, a
unique bottom (rank 0), a unique top (rank = poset rank), and cover relations
that raise rank by exactly one; the order is the transitive closure of the
covers, and every element must lie on some bottom-to-top maximal chain.

For a rank set S inside [1, n] (poset rank n+1), the flag number f_S counts
the chains whose rank set is exactly S.  The module also builds the witness
posets P(n, I, N) whose flag numbers are powers of N determined by which
ranks meet the intervals of I, and implements the chain partition that maps
every maximal chain C to an interval system I_C such that C lands in the
class F_S exactly when S blocks I_C: partition_classes reads I_C once per
chain and files the chain under each member of its blocker family.  First
atoms, the only test the partition makes, are memoized on the poset.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterable, Mapping, Sequence

from . import ranksets
from .intervals import IntervalSystem, _check_ambient, blockers


class PosetValidationError(ValueError):
    """Input fails one of the graded-poset requirements; .code names which."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class NotComparable(ValueError):
    """An interval [p, q] was requested for non-comparable p, q."""


class GradedPoset:
    """Validated graded poset.  Build through validate(), witness_poset() or dual().

    Levels keep the input order of elements; the chain-partition operators
    read "first" in that order.  Covers are stored in position order: each
    element's upper and lower covers are listed as they stand in their
    level, so the first cover that passes a test is the earliest one.
    """

    __slots__ = ("rank", "_levels", "_rank_of", "_pos", "_up", "_down",
                 "_reach_cache", "_atom_cache")

    def __init__(
        self,
        levels: tuple[tuple[str, ...], ...],
        up: Mapping[str, Iterable[str]],
    ):
        """Derive every map from the levels and the upper covers, whose
        elements and rank steps the caller has already checked."""
        self.rank = len(levels) - 1
        self._levels = levels
        self._rank_of = {x: r for r, lvl in enumerate(levels) for x in lvl}
        pos = self._pos = {x: i for lvl in levels for i, x in enumerate(lvl)}
        self._up = {x: tuple(sorted(up.get(x, ()), key=pos.__getitem__))
                    for x in self._rank_of}
        down: dict[str, list[str]] = {x: [] for x in self._rank_of}
        for x, ys in self._up.items():
            for y in ys:
                down[y].append(x)
        self._down = {x: tuple(xs) for x, xs in down.items()}
        self._reach_cache: dict[tuple[int, int], list[int]] = {}
        self._atom_cache: dict[tuple[str, str], str] = {}

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        """Rank-set ambient: rank sets live in [1, n] with n = rank - 1."""
        return self.rank - 1

    @property
    def bottom(self) -> str:
        return self._levels[0][0]

    @property
    def top(self) -> str:
        return self._levels[-1][0]

    @property
    def elements(self) -> tuple[str, ...]:
        return tuple(x for lvl in self._levels for x in lvl)

    @property
    def covers(self) -> tuple[tuple[str, str], ...]:
        return tuple(
            (x, y)
            for lvl in self._levels
            for x in lvl
            for y in self._up.get(x, ())
        )

    def level(self, r: int) -> tuple[str, ...]:
        return self._levels[r]

    def rank_of(self, x: str) -> int:
        return self._rank_of[x]

    def position(self, x: str) -> int:
        """Index of x within its level, in input order."""
        return self._pos[x]

    def up_covers(self, x: str) -> tuple[str, ...]:
        return self._up.get(x, ())

    def down_covers(self, x: str) -> tuple[str, ...]:
        return self._down.get(x, ())

    def __len__(self) -> int:
        return len(self._rank_of)

    def __contains__(self, x: str) -> bool:
        return x in self._rank_of

    # -- order -------------------------------------------------------------

    def le(self, x: str, y: str) -> bool:
        """x <= y in the order generated by the covers."""
        return x == y or self.lt(x, y)

    def lt(self, x: str, y: str) -> bool:
        r, s = self._rank_of[x], self._rank_of[y]
        return r < s and bool(self.reach(r, s)[self._pos[x]] >> self._pos[y] & 1)

    def reach(self, r: int, s: int) -> list[int]:
        """For each element of level r, the bitmask of level-s elements above it.

        Bit i stands for the level-s element at position i.  Memoized per
        rank pair, each one level step from reach(r + 1, s); these masks are
        the order relation (lt, le) and power the flag-number dynamic
        program.
        """
        if not (0 <= r < s <= self.rank):
            raise ValueError(f"bad rank pair ({r}, {s})")
        cached = self._reach_cache.get((r, s))
        if cached is None:
            above = (self.reach(r + 1, s) if r + 1 < s
                     else [1 << i for i in range(len(self._levels[s]))])
            pos = self._pos
            cached = self._reach_cache[(r, s)] = [
                reduce(or_, [above[pos[y]] for y in self._up[x]], 0)
                for x in self._levels[r]
            ]
        return cached

    def maximal_chains(self) -> list[tuple[str, ...]]:
        """All bottom-to-top chains through consecutive covers, in DFS order."""
        out: list[tuple[str, ...]] = []
        stack: list[tuple[str, ...]] = [(self.bottom,)]
        while stack:
            chain = stack.pop()
            x = chain[-1]
            if self._rank_of[x] == self.rank:
                out.append(chain)
                continue
            for y in reversed(self._up.get(x, ())):
                stack.append(chain + (y,))
        return out

    def __repr__(self) -> str:
        return f"GradedPoset(rank={self.rank}, elements={len(self)})"


def validate(
    elements: Iterable[tuple[str, int]],
    covers: Iterable[tuple[str, str]],
) -> GradedPoset:
    """Check the graded-poset requirements and build the poset.

    Raises PosetValidationError with .code one of: DuplicateElement,
    UnknownElement, NoUniqueBottom, NoUniqueTop, BadCoverRank,
    DanglingElement, TrivialPoset.  CyclicCovers cannot occur once
    BadCoverRank passes (covers raise rank, so no cycle closes), but the
    code name is reserved in this vocabulary.

    Every check reads per-element maps and the count of elements per rank,
    and all of them run before the levels are built, so a refusal costs time
    linear in the input whatever its ranks.  An empty level below the top
    leaves an element without a cover (NoUniqueBottom when it is rank 0,
    DanglingElement otherwise), so a poset that passes has fewer levels
    than elements.
    """
    elems = list(elements)
    rank_of: dict[str, int] = {}
    for x, r in elems:
        if x in rank_of:
            raise PosetValidationError("DuplicateElement", f"duplicate element {x!r}")
        if r < 0:
            raise PosetValidationError("BadCoverRank", f"negative rank for {x!r}")
        rank_of[x] = r
    if not rank_of:
        raise PosetValidationError("NoUniqueBottom", "empty poset")
    rank = max(rank_of.values())
    if rank == 0:
        raise PosetValidationError("TrivialPoset", "bottom equals top (rank 0)")
    count = Counter(rank_of.values())
    if count[0] != 1:
        raise PosetValidationError(
            "NoUniqueBottom", f"{count[0]} elements at rank 0"
        )
    if count[rank] != 1:
        raise PosetValidationError(
            "NoUniqueTop", f"{count[rank]} elements at top rank {rank}"
        )
    up: dict[str, list[str]] = {x: [] for x in rank_of}
    seen: set[tuple[str, str]] = set()
    for lo, hi in covers:
        if lo not in rank_of or hi not in rank_of:
            raise PosetValidationError(
                "UnknownElement", f"cover ({lo!r}, {hi!r}) uses an undeclared element"
            )
        if rank_of[hi] != rank_of[lo] + 1:
            raise PosetValidationError(
                "BadCoverRank",
                f"cover ({lo!r}, {hi!r}) joins ranks {rank_of[lo]} and {rank_of[hi]}",
            )
        if (lo, hi) in seen:
            continue
        seen.add((lo, hi))
        up[lo].append(hi)
    covered = {hi for _, hi in seen}
    for x, r in rank_of.items():
        if r < rank and not up[x]:
            raise PosetValidationError(
                "DanglingElement", f"{x!r} has no upper cover"
            )
        if r > 0 and x not in covered:
            raise PosetValidationError(
                "DanglingElement", f"{x!r} has no lower cover"
            )
    levels: list[list[str]] = [[] for _ in range(rank + 1)]
    for x, r in elems:
        levels[r].append(x)
    return GradedPoset(tuple(map(tuple, levels)), up)


# -- flag numbers ----------------------------------------------------------


def flag_number(P: GradedPoset, mask: int) -> int:
    """Number of chains in P whose rank set is exactly the mask."""
    ranksets.check_mask(mask, P.n)
    ranks = ranksets.elems_of(mask)
    if not ranks:
        return 1
    counts = [1] * len(P.level(ranks[0]))
    for r_prev, r_next in zip(ranks, ranks[1:]):
        reach = P.reach(r_prev, r_next)
        nxt = [0] * len(P.level(r_next))
        for i, c in enumerate(counts):
            if not c:
                continue
            m = reach[i]
            while m:
                low = m & -m
                nxt[low.bit_length() - 1] += c
                m ^= low
        counts = nxt
    return sum(counts)


def flag_vector(P: GradedPoset) -> dict[int, int]:
    """All flag numbers, keyed by rank-set mask in ascending order.

    There are 2**n of them, so an ambient above intervals.MAX_AMBIENT is
    refused with AmbientTooLarge.
    """
    _check_ambient(P.n)
    return {mask: flag_number(P, mask) for mask in range(1 << P.n)}


# -- witness posets --------------------------------------------------------


@dataclass(frozen=True)
class WitnessSpec:
    """Recipe for the witness poset P(n, I, N)."""

    n: int
    intervals: IntervalSystem
    N: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"witness ambient n = {self.n} < 1")
        if self.N < 1:
            raise ValueError(f"witness N = {self.N} < 1")
        if self.intervals.ambient_n != self.n:
            raise ValueError(
                f"interval ambient {self.intervals.ambient_n} != n = {self.n}"
            )

    @property
    def k(self) -> int:
        return len(self.intervals)

    def predicted_flag_number(self, mask: int) -> int:
        """N ** (number of intervals the rank set meets)."""
        ranksets.check_mask(mask, self.n)
        hits = sum(1 for iv in self.intervals if mask & iv.mask)
        return self.N ** hits


def witness_poset(spec: WitnessSpec) -> GradedPoset:
    """Construct P(n, I, N).

    Elements at rank i are tuples (i; p_1, ..., p_k) where p_j runs over
    [1, N] when i lies in the j-th interval and is the wildcard * otherwise;
    two consecutive-rank elements are joined when every coordinate agrees or
    one side is the wildcard.  Wildcards make the cover relation transitive
    across ranks because each interval is contiguous, and the flag numbers
    come out as N to the number of intervals the rank set meets.

    Each element's up-covers are generated from its pattern: a coordinate
    of the next rank is the wildcard outside its interval, fixed where the
    element holds a value, and free in [1, N] where it holds the wildcard.
    One product over those choices lists them in the next rank's order, so
    no pair that is not a cover is ever tested, and the poset is built
    without validate(): it is graded by construction.
    """
    n, N = spec.n, spec.N
    ivs = spec.intervals.intervals
    k = len(ivs)
    free = range(1, N + 1)

    def name(i: int, p: tuple) -> str:
        if k == 0:
            return f"({i})"
        body = ",".join("*" if v is None else str(v) for v in p)
        return f"({i};{body})"

    # Per rank, each coordinate tuple and its element name, in product order.
    levels: list[dict[tuple, str]] = []
    for i in range(n + 2):
        axes = [free if iv.lo <= i <= iv.hi else (None,) for iv in ivs]
        levels.append({p: name(i, p) for p in itertools.product(*axes)})

    up: dict[str, list[str]] = {}
    for i in range(n + 1):
        upper = levels[i + 1]
        inside = [iv.lo <= i + 1 <= iv.hi for iv in ivs]
        for p, x in levels[i].items():
            axes = [
                (None,) if not inn else free if a is None else (a,)
                for a, inn in zip(p, inside)
            ]
            up[x] = [upper[q] for q in itertools.product(*axes)]
    return GradedPoset(tuple(tuple(lvl.values()) for lvl in levels), up)


# -- duality ---------------------------------------------------------------


def dual(P: GradedPoset) -> GradedPoset:
    """Turn the poset upside down; element order within levels is kept."""
    return GradedPoset(P._levels[::-1], P._down)


def reflect_mask(mask: int, n: int) -> int:
    """Rank set S -> (n+1) - S, the set paired with S under duality."""
    ranksets.check_mask(mask, n)
    return ranksets.mask_of(n + 1 - e for e in ranksets.elems_of(mask))


# -- chain partition -------------------------------------------------------


def next_selected_rank(mask: int, i: int, n: int) -> int:
    """Smallest j in [i, n+1] that is selected by the mask or equals n+1."""
    ranksets.check_mask(mask, n)
    if not (1 <= i <= n + 1):
        raise ValueError(f"i = {i} outside [1, {n + 1}]")
    for j in range(i, n + 1):
        if (mask >> (j - 1)) & 1:
            return j
    return n + 1


def first_atom(P: GradedPoset, p: str, q: str) -> str:
    """Earliest atom of the interval [p, q] in within-level order.

    Atoms are the covers of p that stay below q; the earliest is the one
    of least P.position, the first such cover since covers are stored in
    position order.  To order a level differently, build the poset with
    that level's elements in the wanted order.  Answers are memoized on
    the poset; a pair with p < q failing has no atom and raises
    NotComparable each time.
    """
    got = P._atom_cache.get((p, q))
    if got is None:
        got = next((z for z in P.up_covers(p) if P.le(z, q)), None)
        if got is None:
            raise NotComparable(f"{p!r} < {q!r} fails")
        P._atom_cache[(p, q)] = got
    return got


def chain_interval_system(P: GradedPoset, chain: Sequence[str]) -> IntervalSystem:
    """The interval system I_C recording how far each chain element stays first.

    For each rank i, take the largest j such that the chain's rank-i element
    is the first atom of the interval from its predecessor up to the chain's
    rank-j element; ranks whose j falls short of the top contribute the
    interval [i, j].
    """
    if len(chain) != P.rank + 1:
        raise ValueError(f"chain length {len(chain)} != rank + 1 = {P.rank + 1}")
    rank_of = P._rank_of
    for x in chain:
        if x not in rank_of:
            raise ValueError(f"{x!r} is not an element")
    # One rank up and above in the memoized reach bits: a cover.
    for lo, hi in zip(chain, chain[1:]):
        if rank_of[hi] != rank_of[lo] + 1 or not P.lt(lo, hi):
            raise ValueError(f"({lo!r}, {hi!r}) is not a cover")
    return _system_of(P.n, _psi(P, chain))


def _psi(P: GradedPoset, chain: Sequence[str]) -> tuple[int, ...]:
    """psi_i for i = 1..n, the j of chain_interval_system, scanning j down
    from n+1; j = i passes as a cover is the only atom below itself."""
    n = P.n
    out = []
    for i in range(1, n + 1):
        p, x = chain[i - 1], chain[i]
        j = n + 1
        while j > i and first_atom(P, p, chain[j]) != x:
            j -= 1
        out.append(j)
    return tuple(out)


def _system_of(n: int, psi: tuple[int, ...]) -> IntervalSystem:
    return IntervalSystem.of(n, [(i, j) for i, j in enumerate(psi, 1) if j <= n])


def partition_classes(P: GradedPoset) -> dict[int, tuple[tuple[str, ...], ...]]:
    """For every rank set S, the maximal chains in the class F_S.

    A chain C belongs to F_S when each of its elements is the first atom of
    the interval from its predecessor up to the chain element at the next
    S-selected rank.  That holds exactly when S blocks
    chain_interval_system(C), so each chain joins every class in the
    blocker family of its system, built once per distinct system.  The
    class sizes reproduce the flag numbers.

    Why: at rank i, with p = chain[i-1], the j whose test passes form the
    interval [i, psi_i].  For i <= j' <= j the atoms of [p, chain[j']] are
    among those of [p, chain[j]], chain[i] included, so an atom first in
    the larger interval is first in the smaller one.  The next S-selected
    rank from i thus passes exactly when psi_i = n+1 or S meets [i, psi_i].

    That is at most n(n+1)/2 first atoms per chain, memoized on P, and one
    append per (chain, class); a freshly parsed 4,096-chain rank-7 witness
    takes 0.027 s in process (median of twenty runs, 2-vCPU x86-64,
    CPython 3.11.7, BENCH_28.json).  Classes list their
    chains in maximal_chains order.  An ambient above intervals.MAX_AMBIENT
    is refused with AmbientTooLarge.
    """
    n = P.n
    _check_ambient(n)
    families: dict[tuple[int, ...], frozenset[int]] = {}
    out: dict[int, list[tuple[str, ...]]] = {m: [] for m in range(1 << n)}
    for chain in P.maximal_chains():
        psi = _psi(P, chain)
        members = families.get(psi)
        if members is None:
            members = families[psi] = blockers(_system_of(n, psi)).members
        for mask in members:
            out[mask].append(chain)
    return {m: tuple(cs) for m, cs in out.items()}


# -- text format -----------------------------------------------------------


def format_poset(P: GradedPoset) -> str:
    """Serialize: header, elem lines by (rank, position), cover lines."""
    lines = [f"poset rank={P.rank}"]
    for r in range(P.rank + 1):
        for x in P.level(r):
            lines.append(f"elem {x} {r}")
    for x, y in P.covers:
        lines.append(f"cover {x} {y}")
    return "\n".join(lines) + "\n"


def parse_poset(text: str) -> GradedPoset:
    """Parse the poset text format: a `poset rank=R` header first, then
    elem and cover lines; comments start with '#'."""
    header, records = ranksets._read_records(text, "poset")
    elements: list[tuple[str, int]] = []
    covers: list[tuple[str, str]] = []
    for parts, raw in records:
        if parts[0] == "elem":
            if len(parts) != 3 or not (parts[2].isascii() and parts[2].isdigit()):
                raise ValueError(f"bad elem line {raw!r}")
            elements.append((parts[1], int(parts[2])))
        elif parts[0] == "cover":
            if len(parts) != 3:
                raise ValueError(f"bad cover line {raw!r}")
            covers.append((parts[1], parts[2]))
        else:
            raise ValueError(f"unknown line {raw!r}")
    P = validate(elements, covers)
    if P.rank != header:
        raise PosetValidationError(
            "BadCoverRank", f"declared rank {header} but elements reach {P.rank}"
        )
    return P
