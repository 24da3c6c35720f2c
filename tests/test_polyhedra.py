"""Tests for exact cone conversion and rational linear algebra.

The double description output is checked against an independent brute-force
enumerator: every extreme ray of a pointed cone {x : Ax >= 0} is the kernel
generator of some (d-1)-subset of rows with rank d-1, pointing into the
cone.  The oracle does its own Fraction elimination and shares no code with
the module under test.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flagcone import polyhedra
from flagcone.cone import facet_system
from flagcone.intervals import enumerate_antichains, blockers
from flagcone.polyhedra import (
    DimensionOverflow,
    EmptyInput,
    NotPointed,
    Ray,
    ZeroVector,
    adjacency_pairs,
    canonicalize,
    dd_rays,
    matrix_rank,
)
from flagcone.ranksets import subsets


def gauss_pivots(rows: list[tuple[int, ...]]) -> tuple[int, list[int], list[list[Fraction]]]:
    """Row-reduce over the rationals; return (rank, pivot columns, rre form)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return 0, [], []
    width = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(width):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        f = mat[r][c]
        mat[r] = [x / f for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                g = mat[i][c]
                mat[i] = [a - g * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return r, pivots, mat


def kernel_vector(rows: list[tuple[int, ...]], d: int) -> list[Fraction] | None:
    """Generator of the kernel when the rows have rank exactly d - 1."""
    rank, pivots, rre = gauss_pivots(rows)
    if rank != d - 1:
        return None
    free = next(c for c in range(d) if c not in pivots)
    v = [Fraction(0)] * d
    v[free] = Fraction(1)
    for c, row in zip(pivots, rre):
        v[c] = -row[free]
    return v


def brute_rays(rows: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """All extreme rays of {x : Ax >= 0}, assuming the cone is pointed."""
    d = len(rows[0])
    found: set[tuple[int, ...]] = set()
    if d == 1:
        if all(row[0] >= 0 for row in rows):
            found.add((1,))
        if all(row[0] <= 0 for row in rows):
            found.add((-1,))
        return found
    for chosen in combinations(range(len(rows)), d - 1):
        v = kernel_vector([rows[k] for k in chosen], d)
        if v is None:
            continue
        for cand in (v, [-x for x in v]):
            if all(sum(a * b for a, b in zip(row, cand)) >= 0 for row in rows):
                found.add(canonicalize(cand).coords)
    return found


def facet_matrix(n: int) -> list[tuple[int, ...]]:
    """Blocker indicator rows for every antichain on [1, n], canonical order."""
    systems = sorted(enumerate_antichains(n), key=lambda s: s.sort_key())
    return [tuple(1 if mask in blockers(s) else 0 for mask in subsets(n))
            for s in systems]


class TestCanonicalize:
    def test_clears_denominators(self):
        assert canonicalize([Fraction(1, 2), Fraction(1, 3), 0]).coords == (3, 2, 0)

    def test_primitive_unchanged(self):
        assert canonicalize([4, -3, 0]).coords == (4, -3, 0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            canonicalize([0, 0])

    @given(st.lists(st.fractions(min_value=-5, max_value=5), min_size=1, max_size=5),
           st.fractions(min_value=Fraction(1, 7), max_value=7))
    def test_scale_invariance(self, v, c):
        if not any(v):
            return
        assert canonicalize([c * x for x in v]).coords == canonicalize(v).coords

    @given(st.lists(st.one_of(st.integers(-30, 30),
                              st.fractions(-5, 5, max_denominator=12)),
                    min_size=1, max_size=6))
    @example([0, 0, 0])
    @example([Fraction(0), 0])
    @example([6, -4, 0])
    def test_primitive_matches_fraction_oracle(self, v):
        w = polyhedra._primitive(v)
        assert len(w) == len(v) and all(type(x) is int for x in w)
        if not any(v):
            assert w == (0,) * len(v)
            return
        # Coprime integers, a positive multiple of v.
        assert gcd(*w) == 1
        k = next(i for i, x in enumerate(v) if x)
        c = Fraction(w[k]) / Fraction(v[k])
        assert c > 0
        assert [Fraction(x) for x in w] == [c * Fraction(x) for x in v]

    def test_ray_must_be_primitive(self):
        with pytest.raises(ValueError):
            Ray((2, 4))
        with pytest.raises(ZeroVector):
            Ray((0, 0))


class TestMatrixRank:
    def test_identity(self):
        for n in (1, 2, 5):
            eye = [[int(i == j) for j in range(n)] for i in range(n)]
            assert matrix_rank(eye) == n

    def test_duplicated_row_no_change(self):
        rows = [(1, 2, 3), (0, 1, 1)]
        assert matrix_rank(rows + [rows[0]]) == matrix_rank(rows)

    def test_subset_containment_matrix_full_rank(self):
        # M[s][t] = 1 iff s is a subset of t: unitriangular in mask order.
        for n in (2, 3, 4):
            mat = [[1 if s & t == s else 0 for t in subsets(n)] for s in subsets(n)]
            assert matrix_rank(mat) == 2 ** n

    def test_rational_entries(self):
        A = [(Fraction(1, 2), 1), (1, 2), (0, 1)]
        assert matrix_rank(A) == 2

    @given(st.integers(1, 8).flatmap(lambda width: st.lists(
        st.one_of(
            st.just([0] * width),
            st.lists(st.one_of(st.integers(-4, 4),
                               st.fractions(-4, 4, max_denominator=6)),
                     min_size=width, max_size=width),
        ),
        min_size=1, max_size=8)))
    def test_matches_gauss_oracle(self, rows):
        assert matrix_rank(rows) == gauss_pivots([tuple(r) for r in rows])[0]

    def test_dense_large_entries(self):
        # Without a gcd step after each elimination the entries of a dense
        # matrix grow with every pivot.  One row is a combination of others.
        rng = random.Random(24)
        rows = [tuple(rng.randint(-10**6, 10**6) for _ in range(24)) for _ in range(23)]
        coeffs = [rng.randint(-5, 5) for _ in rows]
        planted = tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(24))
        rows.insert(11, planted)
        assert gauss_pivots(rows)[0] == 23
        assert matrix_rank(rows) == 23


class TestDDRays:
    def test_orthant(self):
        for d in (1, 2, 3, 5):
            eye = [tuple(int(i == j) for j in range(d)) for i in range(d)]
            rays = dd_rays(eye)
            assert {r.coords for r, _ in rays} == {row for row in eye}

    def test_cone_collapsing_to_origin(self):
        assert dd_rays([(1,), (-1,)]) == []
        assert dd_rays([(1, 0), (-1, 0), (0, 1), (0, -1)]) == []

    def test_not_pointed(self):
        with pytest.raises(NotPointed):
            dd_rays([(1, 0)])

    def test_dimension_overflow(self):
        with pytest.raises(DimensionOverflow):
            dd_rays([tuple(1 for _ in range(65))])

    def test_output_sorted_and_primitive(self):
        rays = [r for r, _ in dd_rays(facet_matrix(3))]
        assert rays == sorted(rays, key=lambda r: r.coords)
        assert len({r.coords for r in rays}) == len(rays)

    def test_emitted_rays_satisfy_invariant(self):
        # A r >= 0 componentwise and the active rows have rank d - 1.
        rows = facet_matrix(3)
        d = len(rows[0])
        for ray, _ in dd_rays(rows):
            vals = [sum(a * x for a, x in zip(row, ray.coords)) for row in rows]
            assert all(v >= 0 for v in vals)
            active = [row for row, v in zip(rows, vals) if v == 0]
            assert matrix_rank(active) == d - 1

    def test_row_order_invariance(self):
        rows = facet_matrix(3)
        base = {r.coords for r, _ in dd_rays(rows)}
        rng = random.Random(7)
        for _ in range(5):
            shuffled = rows[:]
            rng.shuffle(shuffled)
            assert {r.coords for r, _ in dd_rays(shuffled)} == base

    def test_scaling_rows_no_change(self):
        rows = [(2, 0, 0), (0, 3, 0), (1, 1, 5)]
        scaled = [(4, 0, 0), (0, 3, 0), (2, 2, 10)]
        assert dd_rays(rows) == dd_rays(scaled)

    def test_against_bruteforce_small_random(self):
        rng = random.Random(2024)
        checked = 0
        while checked < 40:
            d = rng.choice((2, 2, 3, 3, 4))
            m = rng.randint(d, d + 3)
            rows = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(m)]
            rows = [r for r in rows if any(r)]
            if not rows or gauss_pivots(rows)[0] < d:
                continue
            assert {r.coords for r, _ in dd_rays(rows)} == brute_rays(rows)
            checked += 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_accepted_pairs_have_codimension_two(self, n, monkeypatch):
        # Adjacency is decided by the combinatorial test alone.  Confirm it
        # algebraically at ranks 2 to 5, on the facet rows and on them with
        # repeated, scaled and zero rows.  Until the rows inserted so far
        # have rank d, the cone has lines and `need` is two less than that
        # rank: the rows on which both rays of an accepted pair vanish have
        # rank exactly `need`.  Mask bit k is row k of the input, so the
        # transposed incidence has one entry per input row; on the live
        # rays it must agree with one rebuilt here from the masks.
        repeated = with_repeats(random.Random(n), facet_matrix(n))
        for rows in (facet_matrix(n), repeated):
            d = len(rows[0])
            spy_incidence(monkeypatch, len(rows))
            checked = polyhedra.adjacency_pairs
            accepted = []

            def record(masks, zero_on, live, pos, neg, need):
                pairs = checked(masks, zero_on, live, pos, neg, need)
                if pairs:
                    commons = [masks[i] & masks[j] for i, j in pairs]
                    accepted.append((need, masks, len(masks), commons))
                return pairs

            monkeypatch.setattr(polyhedra, "adjacency_pairs", record)
            dd_rays(rows)
            assert accepted or n == 1  # rank 2 has a single ray
            for need, masks, t0, commons in accepted:
                # masks is dd_rays' own list, now in its final state.  The
                # row inserted is the lowest row of the first new ray's zero
                # set outside the common zero set of its pair.
                row_bits = masks[t0] & ~commons[0]
                k = (row_bits & -row_bits).bit_length() - 1
                assert need + 2 == matrix_rank(rows[:k + 1])
                for common in commons:
                    active = [row for r, row in enumerate(rows) if common >> r & 1]
                    assert (matrix_rank(active) if active else 0) == need
            if n >= 3:
                assert min(need for need, *_ in accepted) < d - 2

    def test_integer_input_builds_no_fraction(self, monkeypatch):
        # Integer rows stay integers on every path: rank and enumeration.
        def no_fraction(*args):
            raise AssertionError("Fraction built from integer input")

        monkeypatch.setattr(polyhedra, "Fraction", no_fraction)
        assert matrix_rank(facet_matrix(4)) == 16
        assert len(dd_rays(facet_system(3).normal_matrix)) == 13

    def test_integer_rank_builds_no_ray(self, monkeypatch):
        # matrix_rank scales its rows with _primitive, which builds no Ray,
        # whether a row holds only ints or a Fraction too.
        def no_ray(*args):
            raise AssertionError("Ray built by matrix_rank")

        monkeypatch.setattr(polyhedra, "Ray", no_ray)
        assert matrix_rank(facet_matrix(4)) == 16
        assert matrix_rank([(2, 4, 0), (0, -3, -3), (2, 1, -3), (0, 0, 0)]) == 2
        assert matrix_rank([(Fraction(1, 2), 1)]) == 1

    def test_needs_only_the_standard_library(self):
        # The DD core runs on plain ints: a rank-5 enumeration in a fresh
        # interpreter imports no third-party module, NumPy in particular.
        src = Path(polyhedra.__file__).resolve().parents[1]
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "from flagcone.cone import facet_system\n"
            "from flagcone.polyhedra import dd_rays\n"
            "assert len(dd_rays(facet_system(4).normal_matrix)) == 41\n"
            "added = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
            "print(sorted(added - sys.stdlib_module_names))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "['flagcone']"


def spy_incidence(monkeypatch, m: int) -> list[tuple]:
    """Wrap adjacency_pairs in a check of dd_rays' transposed incidence.

    At every call zero_on has one entry per input row, and on the live rays
    each entry equals the one rebuilt here from masks.  Each call is
    logged as (masks, zero_on, first new id, negative ids, pairs); masks and
    zero_on are dd_rays' own lists, so once it returns they hold its final
    state.
    """
    calls = []

    def spy(masks, zero_on, live, pos, neg, need):
        assert len(zero_on) == m
        ids = [t for t in range(len(masks)) if live >> t & 1]
        assert set(pos) | set(neg) <= set(ids)
        for k, on_k in enumerate(zero_on):
            expected = sum(1 << t for t in ids if masks[t] >> k & 1)
            assert on_k & live == expected
        pairs = adjacency_pairs(masks, zero_on, live, pos, neg, need)
        calls.append((masks, zero_on, len(masks), list(neg), pairs))
        return pairs

    monkeypatch.setattr(polyhedra, "adjacency_pairs", spy)
    return calls


def zero_rows(rows, coords) -> tuple[int, ...]:
    """Indices of the rows with a zero dot product on coords, by brute force."""
    return tuple(
        k for k, row in enumerate(rows)
        if sum(Fraction(a) * x for a, x in zip(row, coords)) == 0
    )


def with_repeats(rng: random.Random, rows: list[tuple]) -> list[tuple]:
    """rows plus, at random places, a duplicate, a scaled duplicate, an
    all-zero row and a Fraction multiple of a row."""
    d = len(rows[0])
    scale, den = rng.randint(2, 3), rng.randint(2, 5)
    extra = [
        rng.choice(rows),
        tuple(scale * x for x in rng.choice(rows)),
        (0,) * d,
        tuple(Fraction(x, den) for x in rng.choice(rows)),
    ]
    out = list(rows)
    for row in extra:
        out.insert(rng.randint(0, len(out)), row)
    return out


class TestIncidence:
    # dd_rays pairs each ray with the indices of the given rows vanishing on
    # it, read off its zero-set bitmask, whose bit k is given row k.

    def test_scaled_duplicates_and_zero_row(self):
        rows = [(1, 0), (2, 0), (0, 1), (0, 0), (Fraction(1, 2), Fraction(1, 2))]
        assert dd_rays(rows) == [(Ray((0, 1)), (0, 1, 3)), (Ray((1, 0)), (2, 3))]

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_brute_force_zero_rows(self, seed):
        rng = random.Random(3000 + seed)
        while True:
            d = rng.choice((2, 3, 3, 4))
            base = [tuple(rng.randint(-2, 2) for _ in range(d))
                    for _ in range(rng.randint(d, d + 3))]
            base = [r for r in base if any(r)]
            if base and gauss_pivots(base)[0] == d:
                break
        rows = with_repeats(rng, base)
        out = dd_rays(rows)
        assert {r.coords for r, _ in out} == brute_rays(base)
        for ray, active in out:
            assert active == zero_rows(rows, ray.coords)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_facet_rows_with_repeats(self, n):
        rng = random.Random(n)
        rows = with_repeats(rng, facet_matrix(n))
        out = dd_rays(rows)
        assert [r for r, _ in out] == [r for r, _ in dd_rays(facet_matrix(n))]
        for ray, active in out:
            assert active == zero_rows(rows, ray.coords)


class TestRowEvaluation:
    # dd_rays evaluates each inserted row column by column and multiplies a
    # column only when its entry is not 1.  Facet rows are 0/1, so only
    # rows like these reach the multiplied columns: entries in [-5, 5],
    # plus a row with one nonzero entry, an all-zero row and a multiple of
    # another row, each put in at a random place.

    @pytest.mark.parametrize("seed", range(40))
    def test_integer_rows_match_brute_force(self, seed):
        rng = random.Random(1900 + seed)
        while True:
            d = rng.randint(1, 5)
            base = [tuple(rng.randint(-5, 5) for _ in range(d))
                    for _ in range(rng.randint(d, d + 3))]
            if gauss_pivots(base)[0] == d:
                break
        single = [0] * d
        single[rng.randrange(d)] = rng.choice((-5, -3, -2, -1, 1, 2, 3, 5))
        factor = rng.randint(2, 5)
        rows = list(base)
        for row in (tuple(single), (0,) * d,
                    tuple(factor * x for x in rng.choice(base))):
            rows.insert(rng.randint(0, len(rows)), row)
        out = dd_rays(rows)
        assert {r.coords for r, _ in out} == brute_rays(rows)
        for ray, active in out:
            assert active == zero_rows(rows, ray.coords)


class TestIncidenceTranspose:
    # The new rays of one row reach the transposed incidence in one column
    # transpose of their fixed-width zero-set strings.  Removed rays keep
    # their entries, so after the run every entry, over all ids ever made,
    # must still equal the one rebuilt from masks.

    @staticmethod
    def run(monkeypatch, rows, expected: set[tuple[int, ...]]) -> list[tuple]:
        calls = spy_incidence(monkeypatch, len(rows))
        out = dd_rays(rows)
        masks, zero_on = calls[-1][:2]
        for k, on_k in enumerate(zero_on):
            assert on_k == sum(1 << t for t, z in enumerate(masks) if z >> k & 1)
        assert {r.coords for r, _ in out} == expected
        for ray, active in out:
            assert active == zero_rows(rows, ray.coords)
        return calls

    def test_row_with_one_new_ray(self, monkeypatch):
        # Rows (1, 0) and (1, -1) cut the two lines into rays (1, 1) and
        # (0, -1); row (0, 1) cuts ray (0, -1) and makes (1, 0).
        rows = [(1, 0), (1, -1), (0, 1)]
        calls = self.run(monkeypatch, rows, brute_rays(rows))
        assert [(t0, pairs) for _, _, t0, _, pairs in calls] == [(2, [(0, 1)])]

    def test_negative_ray_without_adjacent_pair(self, monkeypatch):
        # The cone over a square; the last row is negative on (1, 1, 1) and
        # positive on the opposite ray (-1, -1, 1) only, which is not
        # adjacent to it, so the row removes a ray and makes none.
        rows = [(-1, 0, 1), (1, 0, 1), (0, -1, 1), (0, 1, 1), (-1, -1, 0)]
        calls = self.run(monkeypatch, rows, brute_rays(rows))
        masks, _, t0, neg, pairs = calls[-1]
        assert neg and not pairs and len(masks) == t0

    def test_new_ids_far_above_the_row_count(self, monkeypatch):
        # At rank 5, with the rows in lex-max order, the last rows make rays
        # with ids over twice the row count, so the shift by the first new
        # id moves past every row bit.
        expected = {r.coords for r, _ in dd_rays(facet_matrix(4))}
        rows = sorted(with_repeats(random.Random(5), facet_matrix(4)), reverse=True)
        calls = self.run(monkeypatch, rows, expected)
        assert max(t0 for _, _, t0, _, pairs in calls if pairs) > 2 * len(rows)
        assert max(len(pairs) for *_, pairs in calls) > 1


class TestLineStart:
    # dd_rays starts from the whole space, whose lines are the unit vectors,
    # and a row nonzero on a line cuts it into a ray.  Here the first rows
    # are zero, repeated (also negated) or combinations of earlier rows,
    # which cut no line, and the rows after the first nonzero one cut lines
    # while rays exist, so those rays move.

    @pytest.mark.parametrize("seed", range(40))
    def test_dependent_leading_rows_match_brute_force(self, seed):
        rng = random.Random(4100 + seed)
        d = rng.randint(2, 5)
        first = (0,) * d
        while not any(first):
            first = tuple(rng.randint(-3, 3) for _ in range(d))
        rows = [(0,) * d, first, first, tuple(rng.choice((-2, -1, 2)) * x for x in first)]
        while len(rows) < d + 5 or gauss_pivots(rows)[0] < d:
            if rng.random() < 0.3:
                a, b = rng.choice(rows), rng.choice(rows)
                s, t = rng.randint(-2, 2), rng.randint(-2, 2)
                rows.append(tuple(s * x + t * y for x, y in zip(a, b)))
            else:
                rows.append(tuple(rng.randint(-3, 3) for _ in range(d)))
        out = dd_rays(rows)
        assert {r.coords for r, _ in out} == brute_rays(rows)
        for ray, active in out:
            assert active == zero_rows(rows, ray.coords)

    def test_cut_moves_a_ray(self):
        # Row 0 cuts the line (1, 0, 0) into a ray; row 1 is 1 on it and
        # cuts (0, 1, 0), moving the ray to (1, -1, 0).
        rows = [(1, 0, 0), (1, 1, 0), (0, 0, 1)]
        assert dd_rays(rows) == [
            (Ray((0, 0, 1)), (0, 1)), (Ray((0, 1, 0)), (0, 2)),
            (Ray((1, -1, 0)), (1, 2)),
        ]


class TestInsertionOrder:
    # dd_rays inserts the rows in the order given; facet_system's own order
    # keeps the frontier within the final ray count at ranks 5 and 6.

    @pytest.mark.parametrize("n, tested, made, peak", [
        (4, 206, 64, 41),
        pytest.param(5, 163217, 2179, 796, marks=pytest.mark.slow),
    ])
    def test_facet_order_frontier(self, monkeypatch, n, tested, made, peak):
        # Per inserted row that cuts rays: positive/negative pairs tested,
        # new rays made, and the live rays once the row is in.
        counts = []

        def spy(masks, zero_on, live, pos, neg, need):
            pairs = adjacency_pairs(masks, zero_on, live, pos, neg, need)
            counts.append((len(pos) * len(neg), len(pairs),
                           live.bit_count() - len(neg) + len(pairs)))
            return pairs

        monkeypatch.setattr(polyhedra, "adjacency_pairs", spy)
        rows = facet_system(n).normal_matrix
        out = dd_rays(rows)
        assert sum(c[0] for c in counts) == tested
        assert sum(c[1] for c in counts) == made
        assert max(len(rows[0]), *(c[2] for c in counts)) == peak == len(out)


def fraction_inverse(rows: list[tuple[int, ...]]) -> list[list[Fraction]]:
    """Inverse of a square invertible matrix by Gauss-Jordan over Fraction."""
    d = len(rows)
    eye = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    rank, _, rre = gauss_pivots([row + e for row, e in zip(rows, eye)])
    assert rank == d
    return [row[d:] for row in rre]


def primitive(v: list[Fraction]) -> tuple[int, ...]:
    """Positive multiple of v with coprime integer entries."""
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return tuple(x // g for x in ints)


def random_basis(rng: random.Random, d: int) -> list[tuple[int, ...]]:
    """A full-rank d x d integer matrix with a determinant other than +-1."""
    while True:
        rows = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(d)]
        if gauss_pivots(rows)[0] < d:
            continue
        inv = fraction_inverse(rows)
        if any(x.denominator != 1 for row in inv for x in row):
            return rows


class TestInitialBasis:
    # dd_rays picks no initial basis: on d independent rows, starting from
    # the whole space, it must still return the simplicial cone's rays, the
    # columns of their inverse.  _independent_rows is the echelon routine of
    # matrix_rank and is_extreme.

    @pytest.mark.parametrize("d", range(2, 9))
    def test_inverse_columns_match_fraction_inverse(self, d):
        rng = random.Random(100 + d)
        for _ in range(5):
            B = random_basis(rng, d)
            inv = fraction_inverse(B)
            expected = sorted(
                (primitive([inv[i][j] for i in range(d)]),
                 tuple(i for i in range(d) if i != j))
                for j in range(d))
            out = dd_rays(B)
            assert [(r.coords, active) for r, active in out] == expected
            for ray, active in out:
                for i, row in enumerate(B):
                    value = sum(a * b for a, b in zip(row, ray.coords))
                    assert value == 0 if i in active else value > 0

    @pytest.mark.parametrize("d", range(2, 9))
    def test_independent_rows_match_greedy_rank(self, d):
        # Mix in combinations of earlier rows, which must be skipped.
        rng = random.Random(200 + d)
        rows: list[tuple[int, ...]] = []
        for _ in range(2 * d):
            if rows and rng.random() < 0.4:
                a, b = rng.choice(rows), rng.choice(rows)
                s, t = rng.randint(-3, 3), rng.randint(-3, 3)
                rows.append(tuple(s * x + t * y for x, y in zip(a, b)))
            else:
                rows.append(tuple(rng.randint(-4, 4) for _ in range(d)))
        expected: list[int] = []
        for k in range(len(rows)):
            if gauss_pivots([rows[i] for i in expected + [k]])[0] > len(expected):
                expected.append(k)
        for limit in (1, d - 1, d):
            assert polyhedra._independent_rows(rows, limit) == expected[:limit]

    @pytest.mark.parametrize("rows, rank", [
        ([(0, 0, 0)], 0),
        ([(2, -1, 3), (-4, 2, -6)], 1),
        ([(1, 0, 0), (0, 1, 0), (1, 1, 0), (2, -1, 0)], 2),
    ])
    def test_rank_deficient_rows_not_pointed(self, rows, rank):
        with pytest.raises(NotPointed, match=r"^inequality rows have rank %d < 3$" % rank):
            dd_rays(rows)


class TestBlockerConeCounts:
    def test_rank3_rays_are_the_five_listed(self):
        rays = [r for r, _ in dd_rays(facet_matrix(2))]
        # f-coefficients over masks (empty, {1}, {2}, {1,2})
        expected = {
            (1, 0, 0, 0),    # f_empty
            (-1, 1, 0, 0),   # f_1 - f_empty
            (-1, 0, 1, 0),   # f_2 - f_empty
            (0, -1, 0, 1),   # f_12 - f_1
            (0, 0, -1, 1),   # f_12 - f_2
        }
        assert {r.coords for r in rays} == expected

    def test_rank4_count(self):
        assert len(dd_rays(facet_matrix(3))) == 13

    def test_rank5_count(self):
        assert len(dd_rays(facet_matrix(4))) == 41


class TestInputShape:
    def test_requires_rows(self):
        with pytest.raises(EmptyInput):
            dd_rays([])

    def test_requires_columns(self):
        with pytest.raises(EmptyInput):
            dd_rays([()])

    def test_requires_rectangular(self):
        with pytest.raises(ValueError):
            matrix_rank([(1, 2), (3,)])
