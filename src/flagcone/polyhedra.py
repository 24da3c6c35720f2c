"""Exact rational linear algebra and the double description method.

This module handles pointed polyhedral cones {x : Ax >= 0} with
arbitrary-precision rational data: dd_rays turns a system of inequalities
into the complete list of extreme rays.  Everything is exact; there is no
floating point anywhere on a decision path, and integer input builds no
Fraction.  _primitive scales a vector to coprime integers for canonicalize
and for the rows of matrix_rank and dd_rays.  One fraction-free echelon
routine, _independent_rows, gives matrix_rank and the rank test of
cone.is_extreme, which stops once the active rows reach rank d - 1.

The double description implementation starts from the whole space, whose
lines are the d unit vectors, and inserts the inequality rows one at a
time, strictly in the order given, so its state after row j is the cone of
the first j rows: the span of the remaining lines plus the cone of the
live rays, kept as tuples of plain Python ints.  A row nonzero on some
line cuts the first such line (Fukuda & Prodon, "Double Description Method
Revisited", 1996): oriented positive on the row, it becomes a ray, and the
other lines and the live rays move along it until they vanish on the row.
Every combination of two vectors, there and in the pair loop, is one
_combine step.  Lines left after the last row mean the cone is not
pointed.  The order sets the size of the intermediate cones, not the
output: in facet_system(5)'s own order the frontier never exceeds the 796
final rays.  Repeated and all-zero rows are inserted too, not
deduplicated.  Each inserted row is evaluated on all live rays in one
column-wise pass: one map per nonzero entry over the rays' coordinates in
that column, and one C-level sum per ray over those columns, so no Python
loop runs per ray and coefficient.  Each ray keeps one id for the whole
run.  Its zero set over the rows inserted so far is a bitmask, and the
transposed incidence (for each inserted row, the bitset of ray ids zero on
it) is kept alongside; both are updated incrementally, never rebuilt.  The
new rays of one inserted row reach the transposed incidence in one column
transpose of their zero sets, written as fixed-width bit strings.
Adjacency of a positive/negative ray pair is decided by the combinatorial
test alone: the pair's common zero set must have at least d-2 rows, less
one per line still left, and must not be contained in the zero set of any
third ray.  For the extreme rays of a cone this test is exact (Fukuda &
Prodon), so no rank computation runs inside the loop.  The scan runs per
negative ray over a bitset of the positive rays still to test.  A pair is
tried against its positive ray's witness list before the AND scan over the
transposed incidence, and every third ray that rules a pair out also
drops, in one bitset step, each remaining positive ray whose common zero
set with the same negative ray lies inside its own zero set (bitset subset
pruning in the line of Terzer & Stelling's bit-pattern trees,
Bioinformatics 2008).  On facet_system(5) the scan examines 8,392 of the
163,217 positive/negative pairs, and 4,507 of them reach the AND scan.
Bit k of a zero set stands for row k of the input, so the final zero sets
are the rays' incidences: dd_rays returns each ray with the indices of the
input rows that vanish on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import compress, repeat
from math import gcd, lcm
from operator import and_, itemgetter, mul
from typing import Sequence

__all__ = [
    "DimensionOverflow",
    "EmptyInput",
    "NotPointed",
    "PolyhedralError",
    "Ray",
    "ZeroVector",
    "canonicalize",
    "dd_rays",
    "matrix_rank",
]

MAX_COLS = 64


class PolyhedralError(Exception):
    """Base class for errors raised by this module."""


class NotPointed(PolyhedralError):
    """The inequality matrix does not have full column rank."""


class DimensionOverflow(PolyhedralError):
    """More columns than the supported maximum."""


class EmptyInput(PolyhedralError):
    """An operation received no rows or no rays."""


class ZeroVector(PolyhedralError):
    """Canonicalization of the zero vector was requested."""


# The scalar type of every exact computation in the package.
Scalar = int | Fraction


@dataclass(frozen=True)
class Ray:
    """A primitive integer direction vector of a pointed cone.

    Coordinates follow the ascending-bitset order used throughout the
    package when the ambient space is indexed by rank sets.
    """

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coords:
            raise EmptyInput("ray needs at least one coordinate")
        if not any(self.coords):
            raise ZeroVector("ray coordinates are all zero")
        g = gcd(*self.coords)
        if g != 1:
            raise ValueError("ray coordinates are not primitive (gcd %d)" % g)

    def __str__(self) -> str:
        return "(" + ", ".join(str(x) for x in self.coords) + ")"


def _primitive(v: Sequence[Scalar]) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers; a zero vector stays zero.

    Clears denominators, each entry becoming its numerator times the lcm
    of the denominators over its own, and divides by the gcd, keeping the
    direction (no sign normalization).  Integer input skips the
    denominators and keeps its entries as they are.
    """
    if all(isinstance(x, int) for x in v):
        ints = v
    else:
        scale = lcm(*(x.denominator for x in v))
        ints = [x.numerator * (scale // x.denominator) for x in v]
    g = gcd(*ints)
    return tuple([x // g for x in ints]) if g > 1 else tuple(ints)


def canonicalize(v: Sequence[Scalar]) -> Ray:
    """The primitive integer ray of a nonzero rational vector, by _primitive."""
    ints = _primitive(v)
    if not any(ints):
        raise ZeroVector("cannot canonicalize the zero vector")
    return Ray(ints)


def _as_rows(A: Sequence[Sequence[Scalar]]) -> list[Sequence[Scalar]]:
    """The rows of A as given, after checking that A is a nonempty rectangle."""
    rows = list(A)
    if not rows or not rows[0]:
        raise EmptyInput("matrix must have at least one row and column")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged rows in matrix")
    return rows


def _independent_rows(rows: Sequence[Sequence[int]], limit: int) -> list[int]:
    """Indices of the integer rows that are independent of the rows before them.

    Greedy in the given order, stopping once `limit` rows are picked, so
    with `limit` the column count it returns a row basis.  This one echelon
    routine serves matrix_rank and cone.is_extreme; dd_rays needs no basis.
    Each row is reduced against the picked rows by fraction-free
    elimination and divided by its gcd after every step, so entries stay
    small even on dense input.
    """
    picked: list[int] = []
    pivots: list[tuple[int, list[int]]] = []
    for k, row in enumerate(rows):
        work = list(row)
        for col, base in pivots:
            f = work[col]
            if f:
                p = base[col]
                work = [p * a - f * b for a, b in zip(work, base)]
                g = gcd(*work)
                if g > 1:
                    work = [x // g for x in work]
        lead = next((c for c, x in enumerate(work) if x), None)
        if lead is None:
            continue
        pivots.append((lead, work))
        picked.append(k)
        if len(picked) == limit:
            break
    return picked


def matrix_rank(A: Sequence[Sequence[Scalar]]) -> int:
    """Exact rank: the number of independent rows of A scaled to integers."""
    rows = _as_rows(A)
    return len(_independent_rows(list(map(_primitive, rows)), len(rows[0])))


def _combine(a: int, u: Sequence[int], b: int, v: Sequence[int]) -> tuple[int, ...]:
    """a * u - b * v divided by the gcd of its entries: the one DD step."""
    combo = [a * x - b * y for x, y in zip(u, v)]
    g = gcd(*combo)
    return tuple(combo) if g == 1 else tuple([x // g for x in combo])


_BITS = bytes.maketrans(b"01", b"\0\1")


def _bits(mask: int) -> bytes:
    """One 0/1 byte per bit of mask, lowest bit first, up to its top bit."""
    return bin(mask)[:1:-1].encode().translate(_BITS)


def adjacency_pairs(
    masks: list[int], zero_on: list[int], live: int,
    pos: list[int], neg: list[int], need: int,
) -> list[tuple[int, int]]:
    """All (i, j) with i in pos, j in neg whose rays are adjacent.

    Rays are named by ids.  masks[t] is the zero set of ray t over the rows
    inserted so far, zero_on[k] (the transposed incidence) the set of ray
    ids zero on row k, and live the set of ids of the current rays; all
    three are bitsets.  Ids outside live may still sit in zero_on and are
    ignored.  A pair is adjacent when its common zero set z has at least
    `need` rows and no third live ray is zero on all of z.  The live rays
    zero on all of z are the AND, over the rows of z, of zero_on, started
    from live.  The AND runs over every row of z in one C-level reduce, the
    rows picked by compress from the bytes of _bits(z).  It needs no early
    exit once only i and j remain: both are zero on every row of z, so
    they stay in the AND, and the AND only ever shrinks.  Once it is the
    pair it stays the pair.

    For each j the positive rays still to test form a bitset, taken lowest
    id first.  A pair is tried against i's witness list, every third ray
    that i's own AND scans found in this call, newest first, before its AND
    scan; an entry equal to j is skipped, since a positive ray's witness
    may be a later partner.  Of the third rays a scan leaves, it keeps the
    one with the fewest rows of j's zero set outside its own zero set.
    Whichever witness w rules out (i, j) then rules out every remaining i'
    whose common zero set with j lies inside w's zero set: those are the
    positive rays zero on no row of zj & ~masks[w], so the survivors are
    cut to the OR of zero_on over those rows, plus w itself, which may be
    a later partner i'.  live does not change inside a call and a witness
    only ever rules a pair out, so the result is the same as without them.
    Pairs come out sorted by (i, j).
    """
    out: list[tuple[int, int]] = []
    if not pos or not neg:
        return out
    pos_bits = sum(1 << i for i in pos)
    # Per positive ray: witness list of (~zero set, id).
    witnesses: dict[int, list[tuple[int, int]]] = {i: [] for i in pos}
    for j in neg:
        zj = masks[j]
        todo = pos_bits
        while todo:
            low = todo & -todo
            todo ^= low
            i = low.bit_length() - 1
            z = masks[i] & zj
            if z.bit_count() < need:
                continue
            seen = witnesses[i]
            for entry in seen:
                if not z & entry[0] and entry[1] != j:
                    break
            else:
                # An empty z (d = 2) leaves every live ray alive, so such a
                # pair is adjacent only when no third ray exists.
                pair = low | 1 << j
                alive = reduce(and_, compress(zero_on, _bits(z)), live)
                if alive == pair:
                    out.append((i, j))
                    continue
                rest = alive ^ pair
                fewest = -1
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    t = bit.bit_length() - 1
                    not_zt = ~masks[t]
                    outside = (zj & not_zt).bit_count()
                    if fewest < 0 or outside < fewest:
                        fewest, entry = outside, (not_zt, t)
                seen.insert(0, entry)
            # Keep the witness and the rays zero on a row of zj outside it.
            keep = 1 << entry[1]
            rows = zj & entry[0]
            while rows:
                bit = rows & -rows
                keep |= zero_on[bit.bit_length() - 1]
                rows ^= bit
            todo &= keep
    out.sort()
    return out


def dd_rays(A: Sequence[Sequence[Scalar]]) -> list[tuple[Ray, tuple[int, ...]]]:
    """Extreme rays of the pointed cone {x : Ax >= 0}, each with its incidence.

    Returns (ray, active) pairs, where active is the ascending tuple of the
    indices of the rows of A that vanish on the ray.  Bit k of every zero
    set stands for row k of A, so active is read straight off the final
    zero-set bitmask.

    The rows are scaled to coprime integers and inserted strictly in the
    order given, starting from the whole space: no rays, and the d unit
    vectors as lines.  A row nonzero on a line cuts the first such line into
    a ray zero on every earlier row, and moves every other line, and every
    live ray nonzero on the row, along it (_combine, on the values already
    computed); every live ray gains the row's bit.  Any other row goes
    through the pair loop, whose adjacency test asks for d - 2 common zero
    rows less one per line left.  A repeated or all-zero row is inserted
    like any other, not deduplicated: no ray is negative on it, so it only
    adds its bit to the zero sets of the rays it vanishes on.  Lines left
    after the last row raise NotPointed.

    Inside the loop rays are plain int tuples named by stable ids: ids only
    grow, a removed ray leaves the live bitset and its coordinates are
    released, and the transposed incidence gains each inserted row once.
    Each row gathers the live ids and their rays once, picked from
    range(len(rays)) and rays by compress over the bytes of
    _bits(live_bits), and evaluates itself on all of them column by column:
    for each nonzero entry x in column c, the column map(itemgetter(c),
    live_rays), multiplied through map(mul, repeat(x), ...) only when x is
    not 1, and one C-level sum per ray over the zip of those columns; each
    line gets one sum of products.  A leading column of zeros keeps an
    all-zero row's values zero.  The values then split the ids into
    positive, negative and zero in ascending id order.  The new rays of one
    row take consecutive ids from t0, and each one's zero set is also
    written as an m-character bit string.  Column c of those strings, last
    ray first, is the bitset of new rays zero on row m - 1 - c, bit p
    standing for id t0 + p, so each row of the transposed incidence gains
    its column in one OR shifted by t0.  The columns are taken one at a
    time: at rank 7 one row makes tens of thousands of new rays.  The active
    rows of a final zero set are read off the same way, picked from range(m)
    by compress over the bytes of _bits.  Output rays are canonical
    (primitive integer, fixed direction) and sorted lexicographically by
    coordinate vector, so the result is independent of the input row order.
    """
    given = _as_rows(A)
    d = len(given[0])
    if d > MAX_COLS:
        raise DimensionOverflow("cone dimension %d exceeds %d" % (d, MAX_COLS))

    rows = list(map(_primitive, given))
    m = len(rows)
    # The cone of the rows inserted so far is the span of lines plus the
    # cone of the live rays, whose ids index rays and masks.
    lines = [tuple([int(i == j) for j in range(d)]) for i in range(d)]
    rays: list[tuple[int, ...] | None] = []
    masks: list[int] = []
    zero_on = [0] * m
    live_bits = 0
    fixed_width = ("{:0%db}" % m).format

    for k, row in enumerate(rows):
        bit = 1 << k
        flags = _bits(live_bits)
        ids = list(compress(range(len(rays)), flags))
        live_rays = list(compress(rays, flags))
        # Row k on every live ray at once: one map per nonzero entry, then
        # one sum per ray; the column of zeros keeps an all-zero row at 0.
        columns = [
            map(itemgetter(c), live_rays) if x == 1
            else map(mul, repeat(x), map(itemgetter(c), live_rays))
            for c, x in enumerate(row) if x
        ]
        values = list(map(sum, zip(repeat(0, len(ids)), *columns)))
        on_lines = [sum(map(mul, row, line)) for line in lines]
        p = next((p for p, w in enumerate(on_lines) if w), None)
        if p is not None:
            # Row k cuts the first line it is nonzero on into a ray, along
            # which the other lines and the live rays move onto the row.
            cut, w = lines.pop(p), on_lines.pop(p)
            if w < 0:
                cut, w = tuple([-x for x in cut]), -w
            lines = [_combine(w, line, x, cut) if x else line
                     for line, x in zip(lines, on_lines)]
            for t, v in zip(ids, values):
                if v:
                    rays[t] = _combine(w, rays[t], v, cut)
                masks[t] |= bit
            zero_on[k] = live_bits
            t = len(rays)
            rays.append(cut)
            masks.append(bit - 1)
            zero_on[:k] = [z | 1 << t for z in zero_on[:k]]
            live_bits |= 1 << t
            continue
        pos: list[int] = []
        neg: list[int] = []
        on_k = 0
        for t, v in zip(ids, values):
            if v < 0:
                neg.append(t)
            elif v:
                pos.append(t)
            else:
                masks[t] |= bit
                on_k |= 1 << t
        zero_on[k] = on_k
        if neg:
            need = d - len(lines) - 2
            pairs = adjacency_pairs(masks, zero_on, live_bits, pos, neg, need)
            val = dict(zip(ids, values))
            # The new rays take ids t0, t0 + 1, ...; column c of their
            # zero-set strings, last ray first, is the bitset of those zero
            # on row m - 1 - c, bit p standing for id t0 + p.
            t0 = len(rays)
            strings = []
            for i, j in pairs:
                rays.append(_combine(val[i], rays[j], val[j], rays[i]))
                mk = masks[i] & masks[j] | bit
                masks.append(mk)
                strings.append(fixed_width(mk))
            strings.reverse()
            for r, col in zip(range(m - 1, -1, -1), zip(*strings)):
                loc = int("".join(col), 2)
                if loc:
                    zero_on[r] |= loc << t0
            live_bits |= (1 << len(pairs)) - 1 << t0
            for t in neg:
                rays[t] = None
                live_bits ^= 1 << t

    if lines:
        raise NotPointed("inequality rows have rank %d < %d" % (d - len(lines), d))

    out = []
    live = compress(range(len(rays)), _bits(live_bits))
    for t in sorted(live, key=rays.__getitem__):
        active = tuple(compress(range(m), _bits(masks[t])))
        out.append((Ray(rays[t]), active))
    return out

