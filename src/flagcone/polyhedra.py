"""Exact rational linear algebra and the double description method.

This module handles pointed polyhedral cones {x : Ax >= 0} with
arbitrary-precision rational data: dd_rays turns a system of inequalities
into the complete list of extreme rays.  Everything is exact; there is no
floating point anywhere on a decision path, and integer input builds no
Fraction.  One fraction-free echelon routine, _independent_rows, gives
matrix_rank and the first d independent rows of dd_rays.

The double description implementation starts from the rays of those d
rows (the columns of their inverse, _inverse_columns) and inserts the
other inequality rows one at a time, in descending lexicographic order,
keeping the extreme rays of the intermediate cone as tuples of plain
Python ints.  Each ray keeps one id for the whole run.  Its zero set over
the rows inserted so far is a bitmask, and the transposed incidence (for
each inserted row, the bitset of ray ids zero on it) is kept alongside;
both are updated incrementally, never rebuilt.  Adjacency of a
positive/negative ray pair is decided by the combinatorial test alone: the
pair's common zero set must have at least d-2 rows and must not be
contained in the zero set of any third ray.  For the extreme rays of a
pointed cone this test is exact (Fukuda & Prodon, "Double Description
Method Revisited", 1996), so no rank computation runs inside the loop.  The
third ray that last ruled out a pair is tried first on the next pair with
the same positive ray, and usually rules that one out too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

__all__ = [
    "DimensionOverflow",
    "EmptyInput",
    "NotPointed",
    "PolyhedralError",
    "Ray",
    "RationalMatrix",
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


Scalar = int | Fraction


@dataclass(frozen=True)
class RationalMatrix:
    """A rectangular matrix of exact int or Fraction entries, at least 1 x 1."""

    entries: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self) -> None:
        if not self.entries or not self.entries[0]:
            raise EmptyInput("matrix must have at least one row and column")
        width = len(self.entries[0])
        for row in self.entries:
            if len(row) != width:
                raise ValueError("ragged rows in matrix")

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0])


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
        g = 0
        for x in self.coords:
            g = gcd(g, x)
        if g != 1:
            raise ValueError("ray coordinates are not primitive (gcd %d)" % g)

    def __str__(self) -> str:
        return "(" + ", ".join(str(x) for x in self.coords) + ")"


def canonicalize(v: Sequence[Scalar]) -> Ray:
    """Scale a nonzero rational vector to a primitive integer ray.

    Clears denominators and divides by the gcd; the direction is kept as
    given, there is no sign normalization.  Integer input skips the
    rational arithmetic.
    """
    if all(isinstance(x, int) for x in v):
        ints = list(v)
    else:
        fracs = [Fraction(x) for x in v]
        scale = lcm(*(f.denominator for f in fracs))
        ints = [int(f * scale) for f in fracs]
    g = gcd(*ints)
    if g == 0:
        raise ZeroVector("cannot canonicalize the zero vector")
    return Ray(tuple(x // g for x in ints))


def _integer_rows(rows: Iterable[Sequence[Scalar]]) -> list[tuple[int, ...]]:
    """Scale each row to coprime integers, dropping zero rows.

    An all-int row is divided by its gcd; only a row holding a Fraction goes
    through canonicalize.
    """
    out: list[tuple[int, ...]] = []
    for row in rows:
        if not any(row):
            continue
        if all(isinstance(x, int) for x in row):
            g = gcd(*row)
            out.append(tuple([x // g for x in row]))
        else:
            out.append(canonicalize(row).coords)
    return out


def _as_rows(A: RationalMatrix | Sequence[Sequence[Scalar]]) -> list[Sequence[Scalar]]:
    """The rows of A as given, after checking that A is a nonempty rectangle."""
    if isinstance(A, RationalMatrix):
        return list(A.entries)
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
    routine serves matrix_rank and the dd_rays initial basis.  Each row is
    reduced against the picked rows by fraction-free elimination and
    divided by its gcd after every step, so entries stay small even on
    dense input.
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


def matrix_rank(A: RationalMatrix | Sequence[Sequence[Scalar]]) -> int:
    """Exact rank: the number of independent rows of A scaled to integers."""
    rows = _as_rows(A)
    return len(_independent_rows(_integer_rows(rows), len(rows[0])))


def _inverse_columns(B: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """The columns of B^-1, each scaled to a primitive integer vector.

    B is a square invertible integer matrix.  Fraction-free Gauss-Jordan
    takes [B | I] to [D | M] with D diagonal, dividing every row by its gcd
    as it goes; then B^-1 = D^-1 M, and scaling row i of M by lcm(D) / D_ii
    gives lcm(D) B^-1, whose columns are positive multiples of those of
    B^-1.  Column j is zero on every row of B but row j, and positive on
    row j.
    """
    d = len(B)
    aug = [list(row) + [int(i == j) for j in range(d)] for i, row in enumerate(B)]
    for c in range(d):
        p = next(i for i in range(c, d) if aug[i][c])
        aug[c], aug[p] = aug[p], aug[c]
        piv = aug[c]
        head = piv[c]
        for i in range(d):
            f = aug[i][c]
            if i != c and f:
                row = [head * a - f * b for a, b in zip(aug[i], piv)]
                g = gcd(*row)
                aug[i] = [x // g for x in row]
    den = lcm(*(aug[i][i] for i in range(d)))
    scaled = [[x * (den // row[i]) for x in row[d:]] for i, row in enumerate(aug)]
    columns = []
    for col in zip(*scaled):
        g = gcd(*col)
        columns.append(tuple([x // g for x in col]))
    return columns


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
    from live; the scan stops as soon as only i and j remain.  Before that
    scan, each pair is tried against a witness: the last third ray that
    ruled out a pair with the same i, which often rules out the next one
    too.  Pairs come out ordered by position in pos, then position in neg.
    """
    out: list[tuple[int, int]] = []
    if not pos or not neg:
        return out
    # An empty z (d = 2) leaves every live ray alive, so such a pair is
    # adjacent only when no third ray exists.
    neg_masks = [(j, masks[j]) for j in neg]
    for i in pos:
        zi = masks[i]
        bit_i = 1 << i
        w = -1  # witness ray; never i, but it may be a later partner j
        not_zw = 0
        for j, zj in neg_masks:
            z = zi & zj
            if z.bit_count() < need:
                continue
            if w >= 0 and not z & not_zw and w != j:
                continue
            pair = bit_i | 1 << j
            alive = live
            while z:
                low = z & -z
                alive &= zero_on[low.bit_length() - 1]
                if alive == pair:
                    break
                z ^= low
            if alive == pair:
                out.append((i, j))
            else:
                rest = alive ^ pair
                w = (rest & -rest).bit_length() - 1
                not_zw = ~masks[w]
    return out


def _insertion_order(rows: Iterable[Sequence[Scalar]]) -> list[tuple[int, ...]]:
    """The distinct integer rows in the order dd_rays inserts them.

    Descending lexicographic order ("lex-max").  On the 0/1 facet systems
    of this package it keeps the intermediate frontier small: at rank 6 it
    peaks at 1,070 rays, against 1,791 for ascending nonzero count.
    """
    return sorted(set(_integer_rows(rows)), reverse=True)


def dd_rays(A: RationalMatrix | Sequence[Sequence[Scalar]]) -> list[Ray]:
    """Extreme rays of the pointed cone {x : Ax >= 0}.

    The rows are scaled to coprime integers, deduplicated, and inserted in
    descending lexicographic order (see _insertion_order); the first d
    independent rows form the initial basis, whose rays are the columns of
    its inverse (see _inverse_columns).  Inside the loop rays are plain int
    tuples named by stable ids: ids only grow, a removed ray leaves the
    live list and its coordinates are released, and the transposed
    incidence gains each inserted row once and each new ray's id on the
    rows of its zero set.  A new ray is divided by its gcd once, and each
    row's dot products run over its nonzero entries only.  Output rays are
    canonical (primitive integer, fixed direction) and sorted
    lexicographically by coordinate vector, so the result is independent
    of the input row order.
    """
    given = _as_rows(A)
    d = len(given[0])
    if d > MAX_COLS:
        raise DimensionOverflow("cone dimension %d exceeds %d" % (d, MAX_COLS))

    rows = _insertion_order(given)
    m = len(rows)

    basis_idx = _independent_rows(rows, d)
    if len(basis_idx) < d:
        raise NotPointed("inequality rows have rank %d < %d" % (len(basis_idx), d))

    # Ray ids index rays and masks.  Initial ray t is zero on every basis
    # row except basis_idx[t].
    rays: list[tuple[int, ...] | None] = list(
        _inverse_columns([rows[k] for k in basis_idx]))
    basis_bits = sum(1 << k for k in basis_idx)
    masks: list[int] = [basis_bits ^ 1 << k for k in basis_idx]
    live = list(range(d))
    live_bits = (1 << d) - 1
    zero_on = [0] * m
    for t, k in enumerate(basis_idx):
        zero_on[k] = live_bits ^ 1 << t

    in_basis = set(basis_idx)
    remaining = [k for k in range(m) if k not in in_basis]
    need = d - 2

    for k in remaining:
        support = [(c, x) for c, x in enumerate(rows[k]) if x]
        bit = 1 << k
        keep: list[int] = []
        pos: list[int] = []
        neg: list[int] = []
        val: dict[int, int] = {}
        on_k = 0
        for t in live:
            ray = rays[t]
            v = sum([ray[c] * x for c, x in support])
            if v < 0:
                neg.append(t)
                val[t] = v
                continue
            keep.append(t)
            if v:
                pos.append(t)
                val[t] = v
            else:
                masks[t] |= bit
                on_k |= 1 << t
        zero_on[k] = on_k
        if neg:
            pairs = adjacency_pairs(masks, zero_on, live_bits, pos, neg, need)
            for i, j in pairs:
                vi, vj = val[i], val[j]
                combo = [vi * b - vj * a for a, b in zip(rays[i], rays[j])]
                g = gcd(*combo)
                t = len(rays)
                rays.append(tuple([x // g for x in combo]))
                mk = masks[i] & masks[j] | bit
                masks.append(mk)
                keep.append(t)
                ray_bit = 1 << t
                live_bits |= ray_bit
                while mk:
                    low = mk & -mk
                    zero_on[low.bit_length() - 1] |= ray_bit
                    mk ^= low
            for t in neg:
                rays[t] = None
                live_bits ^= 1 << t
            live = keep

    return [Ray(coords) for coords in sorted([rays[t] for t in live])]

