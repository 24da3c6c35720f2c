"""Tests for the inequality cone: facets, membership, extremes, polar."""

from __future__ import annotations

import dataclasses
import functools
import gc
import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flagcone import algebra, cone, polyhedra, ranksets
from flagcone.algebra import (
    Form, convolve, eval_poset, reflect, shift,
)
from flagcone.cone import (
    DegreeTooLarge,
    ExtremeReport,
    NotInCone,
    classify,
    contains,
    contains_by_projection,
    extreme_rays,
    facet_system,
    flag_cone,
    form_to_ray,
    generate_extremes,
    is_extreme,
    ray_to_form,
)
from flagcone.intervals import (
    AmbientTooLarge, IntervalOutOfRange, IntervalSystem, blockers, catalan,
    enumerate_antichains, is_blocker,
)
from flagcone.polyhedra import dd_rays, matrix_rank
from flagcone.poset import WitnessSpec, flag_number, flag_vector, witness_poset

from oracles import (
    classify_by_factoring, compress, h_form, leading_ones_factor,
    random_graded_poset, trailing_ones_factor,
)


def M(*elems: int) -> int:
    return ranksets.mask_of(elems)


BANKER = Form(4, {M(1, 3): 1, M(1): -1, M(2): 1, M(3): -1})


def random_form(degree: int, rng: random.Random, lo: int = -3, hi: int = 3) -> Form:
    return Form(
        degree,
        {s: rng.randint(lo, hi) for s in ranksets.subsets(degree - 1)},
    )


def sparse_form(degree: int, rng: random.Random) -> Form:
    """A nonzero form on one to four rank sets, so supports often miss letters."""
    size = 1 << (degree - 1)
    masks = rng.sample(range(size), min(rng.randint(1, 4), size))
    return Form(degree, {s: rng.choice((-2, -1, 1, 2, 3)) for s in masks})


class TestFacetSystem:
    def test_counts_are_catalan(self):
        for n, count in [(1, 2), (2, 5), (3, 14), (4, 42), (5, 132)]:
            fs = facet_system(n)
            assert len(fs) == count == catalan(n + 1)

    def test_normals_are_distinct_indicator_vectors(self):
        # The normals are read off the inclusion-exclusion terms; the
        # oracle tests each rank set against the antichain directly.
        for n in range(7):
            seen = set()
            for sys_, normal in facet_system(n).facets:
                assert set(normal.coords) <= {0, 1}
                assert normal.coords not in seen
                seen.add(normal.coords)
                family = blockers(sys_)
                for mask, bit in zip(ranksets.subsets(n), normal.coords):
                    assert bit == int(is_blocker(mask, sys_)) == int(mask in family)

    def test_rank7_normals_digest(self):
        # The 429 rank-7 normals, which no CLI output covers.
        text = "\n".join(",".join(map(str, row)) for row in facet_system(6).normal_matrix)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "8f5e993f8e19cdc12b289bce51057008d6bb004119aa8508e5828b6d3791c3b7")

    def test_canonical_order(self):
        fs = facet_system(3)
        keys = [sys_.sort_key() for sys_, _ in fs.facets]
        assert keys == sorted(keys)

    def test_rank2_facets(self):
        fs = facet_system(1)
        as_dict = {str(sys_): normal.coords for sys_, normal in fs.facets}
        assert as_dict == {"empty": (1, 1), "[1,1]": (0, 1)}

    def test_singleton_systems_give_superset_indicators(self):
        fs = facet_system(3)
        for sys_, normal in fs.facets:
            if all(iv.lo == iv.hi for iv in sys_.intervals):
                u = ranksets.mask_of(iv.lo for iv in sys_.intervals)
                expected = tuple(
                    1 if s & u == u else 0 for s in ranksets.subsets(3)
                )
                assert normal.coords == expected


@functools.lru_cache(maxsize=None)
def blocker_members(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(blockers(sys_).members) for sys_ in enumerate_antichains(n))


@functools.lru_cache(maxsize=None)
def facet_table(n: int) -> cone.FacetSystem:
    """facet_system(n), or above its cap the same table built directly."""
    if n <= cone.MAX_MEMBERSHIP_AMBIENT:
        return facet_system(n)
    return cone.FacetSystem(
        n, tuple((s, *cone._blocker_terms(s)) for s in enumerate_antichains(n)))


def coefficient_vectors(scalars):
    return st.integers(0, 7).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(scalars, min_size=1 << n, max_size=1 << n))
    )


class TestFacetValues:
    # FacetSystem.values reads every blocker sum off one subset-sum
    # transform; the oracle adds the coefficients over the blocker family.

    @given(st.one_of(coefficient_vectors(st.integers(-10**6, 10**6)),
                     coefficient_vectors(st.fractions(-9, 9, max_denominator=7))))
    @settings(max_examples=60, deadline=None)
    def test_matches_blocker_sums(self, case):
        n, vec = case
        got = list(facet_table(n).values(vec))
        expected = [sum(vec[s] for s in members) for members in blocker_members(n)]
        assert got == expected
        assert [type(v) for v in got] == [type(v) for v in expected]

    # _is_extreme_ray pairs each value with the normal at the same index,
    # the values from the subset sums and the normals from superset sums.
    @pytest.mark.parametrize("n", range(7))
    def test_matches_facet_normals(self, n):
        rng = random.Random(n)
        vec = [rng.randint(-5, 5) for _ in range(1 << n)]
        expected = [sum(a * z for a, z in zip(vec, normal.coords))
                    for _, normal in facet_system(n).facets]
        assert list(facet_system(n).values(vec)) == expected

    @pytest.mark.parametrize("n, terms", [(0, 1), (1, 3), (6, 4019), (7, 18771)])
    def test_term_counts(self, n, terms):
        # 9.4 terms per facet at rank 7 and 13.1 at rank 8, against 23.8
        # and 44.2 nonzeros in the 0/1 normals.
        antichains = enumerate_antichains(n)
        lists = [cone._blocker_terms(sys_) for sys_ in antichains]
        assert sum(len(plus) + len(minus) for plus, minus in lists) == terms
        if n <= cone.MAX_MEMBERSHIP_AMBIENT:
            assert facet_system(n).terms == tuple(
                (sys_, *pm) for sys_, pm in zip(antichains, lists))


class TestContains:
    def test_banker_inside(self):
        res = contains(BANKER)
        assert bool(res) and res.violated is None

    def test_negative_ones_form_fails_at_empty_system(self):
        for degree in (2, 3, 4, 5):
            F = Form(degree, {0: -1})
            res = contains(F)
            assert not res
            assert res.violated == IntervalSystem.empty(degree - 1)
            assert res.value == -1
            # the witness chain evaluates to the coefficient sum for any N
            assert res.witness is not None and res.witness_value == -1

    def test_rank_counting_form_inside(self):
        for m in (1, 2, 3):
            for n in (1, 2):
                F = Form(m + n, {M(m): 1, 0: -1})
                assert contains(F)

    def test_violation_reports_first_canonical_antichain(self):
        F = Form(2, {0: 1, M(1): -1})
        res = contains(F)
        assert str(res.violated) == "[1,1]"
        assert res.value == -1

    def test_witness_recipe_is_real(self):
        # f_empty - f_1, then seeded forms of degrees 3 to 5 whose violated
        # antichain has two or more intervals; eval_poset counts chains on
        # the built poset, apart from the N ** hits the search sums.
        F = Form(2, {0: 1, M(1): -1})
        cases = [(F, contains(F))]
        for degree in (3, 4, 5):
            rng = random.Random(degree)
            found = 0
            while found < 3:
                F = random_form(degree, rng, -1, 3)
                res = contains(F)
                if not res.inside and len(res.violated) >= 2:
                    cases.append((F, res))
                    found += 1
        for F, res in cases:
            assert res.witness is not None
            P = witness_poset(res.witness)
            assert eval_poset(P, F) == res.witness_value < 0
        assert max(res.witness.N for _, res in cases) >= 2

    def test_no_witness_below_the_cap(self):
        # 2^30 f_empty - f_{2} violates [1,2] by -1, but on P(2, [1,2], N)
        # it evaluates to 2^30 - N, negative only from N = 2^31 on, beyond
        # the search's cap; the antichain alone is the certificate.
        F = Form(3, {0: 1 << 30, M(2): -1})
        res = contains(F)
        assert not res
        assert str(res.violated) == "[1,2]"
        assert res.value == -1
        assert res.witness is None and res.witness_value is None
        for N, sign in ((cone.WITNESS_N_CAP, 1), (1 << 31, -1)):
            spec = WitnessSpec(2, res.violated, N)
            value = sum(c * spec.predicted_flag_number(s) for s, c in F.terms())
            assert value * sign > 0

    def test_rank_one_has_no_witness(self):
        # A degree-1 form is its one coefficient; no recipe is sought.
        res = contains(Form(1, {0: -1}))
        assert not res
        assert res.violated == IntervalSystem.empty(0)
        assert res.value == -1
        assert res.witness is None and res.witness_value is None

    def test_zero_form_inside(self):
        assert contains(Form(3))

    def test_repr_is_independent_of_insertion_order(self):
        # In CPython these three intervals iterate in another frozenset
        # order when inserted reversed; the system keeps them sorted, so
        # the two equal systems print the same.
        ivs = [(1, 1), (2, 3), (4, 4)]
        a = IntervalSystem.of(4, ivs)
        b = IntervalSystem.of(4, ivs[::-1])
        assert a == b
        assert repr(a) == repr(b) == (
            "IntervalSystem(ambient_n=4, intervals=("
            "Interval(lo=1, hi=1), Interval(lo=2, hi=3), Interval(lo=4, hi=4)))"
        )
        res_a = cone.MembershipResult(False, a, Fraction(-1))
        res_b = cone.MembershipResult(False, b, Fraction(-1))
        assert str(res_a) == str(res_b)
        assert repr(IntervalSystem.empty(2)) == (
            "IntervalSystem(ambient_n=2, intervals=())"
        )

    def test_degree_cap(self):
        with pytest.raises(DegreeTooLarge):
            contains(Form(8, {0: 1}))
        with pytest.raises(DegreeTooLarge):
            contains_by_projection(Form(8, {0: 1}))


class TestProjectionMembership:
    def test_banker(self):
        assert contains_by_projection(BANKER)

    def test_simple_failure(self):
        # f_empty - f_1: the cutoff-1 projection keeps only -f_empty
        assert not contains_by_projection(Form(2, {0: 1, M(1): -1}))

    def test_agreement_random(self):
        rng = random.Random(99)
        for degree in (2, 3, 4, 5):
            for _ in range(60):
                F = random_form(degree, rng)
                assert contains_by_projection(F) == bool(contains(F))

    def test_agreement_on_extremes(self):
        for n in (1, 2, 3):
            for entry in extreme_rays(n).rays:
                assert contains_by_projection(entry.form)

    def test_recursion_sees_only_int_tuples(self, monkeypatch):
        seen = []
        project_vector = cone._project_vector

        def spy(vec, m):
            seen.append(vec)
            return project_vector(vec, m)

        monkeypatch.setattr(cone, "_project_vector", spy)
        inside = [BANKER * Fraction(1, 3) + Form(4, {M(2): Fraction(3, 4)})]
        inside += [e.form * Fraction(2, 7) for e in extreme_rays(3).rays]
        for F in inside:
            assert contains_by_projection(F)
        assert not contains_by_projection(Form(3, {0: Fraction(1, 2), M(2): Fraction(-2, 3)}))
        assert seen
        assert all(type(v) is tuple and all(type(x) is int for x in v) for v in seen)

    @pytest.mark.parametrize("degree", range(2, 8))
    def test_positive_scaling_keeps_verdict(self, degree):
        rng = random.Random(700 + degree)
        pool = [e.form for k in range(min(degree, 5)) for e in extreme_rays(k).rays]

        def lifted(F):
            while F.degree < degree:
                F = shift(F, rng.randrange(F.degree))
            return F

        verdicts = set()
        for i in range(12):
            F = lifted(rng.choice(pool)) * rng.randint(1, 3) + lifted(rng.choice(pool))
            if i % 2:
                F = F - Form.monomial(degree, rng.randrange(1 << (degree - 1)), rng.randint(1, 4))
            verdict = contains_by_projection(F)
            assert verdict == bool(contains(F))
            for _ in range(3):
                scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
                assert contains_by_projection(F * scale) == verdict
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_call_leaves_no_garbage(self):
        # The recursion's cache and projected vectors must be freed on return
        # by reference counting, with no cycle left for the collector.
        F = shift(shift(extreme_rays(4).rays[-1].form, 2), 0) + convolve(
            BANKER, extreme_rays(2).rays[-1].form)
        gc.collect()
        gc.disable()
        try:
            assert contains_by_projection(F)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestIsExtreme:
    def test_ones_form_extreme_all_ranks(self):
        for n in range(0, 6):
            assert is_extreme(Form(n + 1, {0: 1}))

    def test_rank_counting_form_not_extreme(self):
        # f_m in degree m+n decomposes as a ones-by-ones convolution
        assert not is_extreme(Form(2, {M(1): 1}))
        assert not is_extreme(Form(3, {M(1): 1}))
        assert not is_extreme(Form(4, {M(2): 1}))

    def test_banker_extreme(self):
        assert is_extreme(BANKER)

    def test_outside_raises(self):
        with pytest.raises(NotInCone):
            is_extreme(Form(3, {0: -1}))

    def test_zero_form_not_extreme(self):
        for degree in range(1, 8):
            assert not is_extreme(Form(degree))

    def test_one_sweep_without_contains(self, monkeypatch):
        # The facet sweep of is_extreme decides membership itself.
        def boom(F):
            raise AssertionError("is_extreme called contains")

        monkeypatch.setattr(cone, "contains", boom)
        for n in range(5):
            for entry in extreme_rays(n).rays:
                assert is_extreme(entry.form)
        for n in range(6):
            assert is_extreme(Form(n + 1, {0: 1}))
        assert not is_extreme(Form(2, {M(1): 1}))
        assert not is_extreme(Form(3, {M(1): 1}))
        assert not is_extreme(Form(4, {M(2): 1}))
        assert is_extreme(BANKER)
        assert not is_extreme(Form(2))
        with pytest.raises(NotInCone):
            is_extreme(Form(3, {0: -1}))

    def test_outside_names_first_violated_facet(self):
        rng = random.Random(7)
        outside = 0
        for degree in (2, 3, 4, 5):
            for _ in range(40):
                F = random_form(degree, rng)
                result = contains(F)
                if result:
                    continue
                outside += 1
                with pytest.raises(NotInCone) as exc:
                    is_extreme(F)
                assert str(exc.value) == f"form violates the facet at {result.violated}"
        assert outside > 50


def fraction_rank(rows) -> int:
    """Rank by Gaussian elimination over Fractions, run to the end."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def reference_is_extreme(F: Form) -> bool:
    """is_extreme the long way: Fraction facet sums, full Fraction rank.

    Needs no zero-form case: every facet vanishes on the zero form, and
    the facet normals have full rank 2^n, not 2^n - 1.
    """
    n = F.degree - 1
    vec = F.vector()
    active = []
    for sys_, normal in facet_system(n).facets:
        value = sum(a * b for a, b in zip(normal.coords, vec))
        if value < 0:
            raise NotInCone(f"form violates the facet at {sys_}")
        if value == 0:
            active.append(normal.coords)
    return fraction_rank(active) == (1 << n) - 1


def verdict(decide, F: Form):
    """True/False, or the NotInCone message."""
    try:
        return decide(F)
    except NotInCone as exc:
        return str(exc)


class TestIsExtremeExact:
    # is_extreme sweeps the facets in integers and stops its rank scan at
    # 2^n - 1; both must leave every verdict and message as they were.

    def test_agrees_with_reference_on_generated_candidates(self, monkeypatch):
        # Every lift and non-excluded product generate_extremes builds for
        # 1 <= n <= 4, before it drops the ones that are not extreme.  It
        # runs the test of is_extreme on each candidate's canonical ray.
        candidates = []
        decide = cone._is_extreme_ray

        def spy(fs, ray):
            verdict = decide(fs, ray)
            candidates.append((ray_to_form(polyhedra.Ray(ray)), verdict))
            return verdict

        monkeypatch.setattr(cone, "_is_extreme_ray", spy)
        for n in range(1, 5):
            generate_extremes(n)
        monkeypatch.undo()
        assert sorted({F.degree for F, _ in candidates}) == [2, 3, 4, 5]
        assert len(candidates) == 52
        for F, verdict in candidates:
            assert verdict == is_extreme(F) == reference_is_extreme(F)

    def test_agrees_with_reference_on_random_forms(self):
        # Scaled by a random Fraction; outside forms compare their NotInCone
        # messages.
        rng = random.Random(12)
        extremes = {n: extreme_rays(n).forms for n in range(5)}
        kinds = set()
        for _ in range(300):
            degree = rng.randint(1, 5)
            pick = rng.randrange(4)
            if pick == 0:
                F = random_form(degree, rng)
            elif pick == 1:
                F = sparse_form(degree, rng)
            elif pick == 2:
                F = rng.choice(extremes[degree - 1])
            else:
                F = rng.choice(extremes[degree - 1]) + rng.choice(extremes[degree - 1])
            F = F * Fraction(rng.randint(1, 9), rng.randint(1, 9))
            expected = verdict(reference_is_extreme, F)
            assert verdict(is_extreme, F) == expected
            kinds.add(type(expected) if isinstance(expected, str) else expected)
        assert kinds == {str, True, False}

    def test_facet_sweep_sees_only_ints(self, monkeypatch):
        swept = []
        values = cone.FacetSystem.values

        def spy(fs, vec):
            swept.append(tuple(vec))
            return values(fs, vec)

        monkeypatch.setattr(cone.FacetSystem, "values", spy)
        forms = [BANKER * Fraction(1, 3), Form(4, {M(2): Fraction(3, 4)}),
                 Form(3, {0: Fraction(-1, 2)})]
        forms += [e.form * Fraction(2, 7) for e in extreme_rays(3).rays]
        for F in forms:
            verdict(is_extreme, F)
        assert len(swept) == len(forms)
        assert all(type(x) is int for vec in swept for x in vec)


def excluded_pair(left: tuple[int, ...], right: tuple[int, ...]) -> bool:
    """The exclusion rule of _derived_rays on one ordered pair of rays."""
    return cone._ends_in_ones(left) and cone._starts_with_ones(right)


class TestConvolutionTheorem:
    # Convolution assigns extreme rays to pairs of extreme rays except for
    # the family excluded_pair names; shifting keeps every ray extreme.  Both
    # are read off extreme_rays(n).ray_set, the double description.

    @pytest.mark.parametrize(
        "n, kept, excluded",
        [(1, 0, 1), (2, 2, 2), (3, 9, 5), (4, 32, 14),
         pytest.param(5, 119, 40, marks=pytest.mark.slow)],
    )
    def test_products_and_shifts(self, n, kept, excluded):
        rays = extreme_rays(n).ray_set
        inside = {True: [], False: []}
        for a in range(1, n + 1):
            for left in extreme_rays(a - 1).rays:
                for right in extreme_rays(n - a).rays:
                    H = convolve(left.form, right.form)
                    inside[excluded_pair(left.ray, right.ray)].append(
                        form_to_ray(H).coords in rays)
        assert inside[False] == [True] * kept
        assert inside[True] == [False] * excluded
        for F in extreme_rays(n - 1).forms:
            for k in range(n):
                assert form_to_ray(shift(F, k)).coords in rays


nonzero_forms = st.integers(1, 5).flatmap(
    lambda d: st.dictionaries(
        st.integers(0, (1 << (d - 1)) - 1),
        st.integers(-3, 3).filter(bool),
        min_size=1, max_size=6,
    ).map(lambda coeffs: Form(d, coeffs))
)


class TestOnesFactors:
    # The exclusion read off the rays is the old rule, which factors a
    # ones form off each side of the pair.

    def test_every_pair_of_extreme_rays(self):
        entries = [e for n in range(5) for e in extreme_rays(n).rays]
        hits = 0
        for left in entries:
            for right in entries:
                expected = (trailing_ones_factor(left.form)[1] >= 1
                            and leading_ones_factor(right.form)[1] >= 1)
                assert excluded_pair(left.ray, right.ray) == expected
                hits += expected
        assert 0 < hits < len(entries) ** 2

    @given(nonzero_forms)
    @settings(max_examples=200)
    def test_forms(self, F):
        for predicate, factor in ((cone._ends_in_ones, trailing_ones_factor),
                                  (cone._starts_with_ones, leading_ones_factor)):
            rest, k = factor(F)
            assert predicate(F.vector()) == predicate(form_to_ray(F).coords) == (k >= 1)
            if k == F.degree:
                assert F == Form(k, {0: rest})
            elif k:
                ones = Form(k, {0: 1})
                pair = (rest, ones) if factor is trailing_ones_factor else (ones, rest)
                assert convolve(*pair) == F


class TestExtremeRays:
    def test_counts(self):
        for n, count in [(0, 1), (1, 2), (2, 5), (3, 13), (4, 41)]:
            assert len(extreme_rays(n).rays) == count

    def test_rank3_forms(self):
        expected = {
            form_to_ray(F).coords
            for F in (
                Form(3, {0: 1}),
                h_form(3, 1),
                h_form(3, 2),
                Form(3, {M(1, 2): 1, M(1): -1}),
                Form(3, {M(1, 2): 1, M(2): -1}),
            )
        }
        assert extreme_rays(2).ray_set == expected

    def test_new_tag_counts(self):
        for n, news in [(0, 1), (1, 1), (2, 0), (3, 1), (4, 7)]:
            assert len(extreme_rays(n).tagged("new")) == news

    def test_rank4_new_is_unique_and_known(self):
        (entry,) = extreme_rays(3).tagged("new")
        assert form_to_ray(entry.form).coords == form_to_ray(BANKER).coords

    def test_active_sets_certify_extremeness(self):
        for n in (2, 3):
            fs = facet_system(n)
            for entry in extreme_rays(n).rays:
                assert len(entry.active) >= (1 << n) - 1
                rows = [fs.facets[i][1].coords for i in entry.active]
                assert matrix_rank(rows) == (1 << n) - 1

    def test_forms_valid_on_random_posets(self):
        for seed in range(8):
            for rank in (2, 3, 4):
                P = random_graded_poset(rank, seed=seed)
                for entry in extreme_rays(rank - 1).rays:
                    assert eval_poset(P, entry.form) >= 0

    @pytest.mark.parametrize(
        "n", [0, 1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)]
    )
    def test_active_sets_are_the_zero_dot_products(self, n):
        normals = [normal.coords for _, normal in facet_system(n).facets]
        for entry in extreme_rays(n).rays:
            coords = form_to_ray(entry.form).coords
            dots = [sum(a * b for a, b in zip(row, coords)) for row in normals]
            assert min(dots) >= 0
            assert entry.active == tuple(i for i, v in enumerate(dots) if v == 0)

    @pytest.mark.parametrize(
        "n", [0, 1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)]
    )
    def test_ray_set_closed_under_reflection(self, n):
        # Reversing the levels j -> n+1-j is poset duality, which maps the
        # cone onto itself, so it permutes the extreme rays.
        report = extreme_rays(n)
        reflected = {form_to_ray(reflect(e.form)).coords for e in report.rays}
        assert reflected == report.ray_set

    @pytest.mark.parametrize(
        "n", [0, 1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)]
    )
    def test_entries_keep_the_dd_rays(self, n):
        # form_to_ray rebuilds the ray from the form: an independent reference.
        for entry in extreme_rays(n).rays:
            assert entry.ray == form_to_ray(entry.form).coords

    def test_ray_set_builds_no_ray_from_a_form(self, monkeypatch):
        def boom(v):
            raise AssertionError("ray_set called canonicalize")

        old = extreme_rays(3)
        expected = {form_to_ray(e.form).coords for e in old.rays}
        report = ExtremeReport(old.n, old.rays)
        monkeypatch.setattr(cone, "canonicalize", boom)
        monkeypatch.setattr(polyhedra, "canonicalize", boom)
        assert report.ray_set == expected
        assert len(expected) == 13

    def test_ray_form_roundtrip(self):
        for entry in extreme_rays(3).rays:
            ray = form_to_ray(entry.form)
            assert form_to_ray(ray_to_form(ray)).coords == ray.coords


class TestClassify:
    def test_support_gap_is_lift(self):
        F = Form(5, {M(2): 1, 0: -1})  # h_2 in degree 5
        assert classify(F, [extreme_rays(k) for k in range(4)]) == "lift"

    def test_lift_precedes_convolution(self):
        # support misses letters 3 and 4, although the form also factors
        F = Form(5, {M(1, 2): 1, M(1): -1})
        assert classify(F, [extreme_rays(k) for k in range(4)]) == "lift"

    def test_lift_rule_agrees_with_compress(self):
        # classify tags a lift when the support union misses a letter, which
        # is exactly when compress relabels the form into a lower degree.
        forms = [e.form for n in range(5) for e in extreme_rays(n).rays]
        rng = random.Random(2024)
        forms += [sparse_form(degree, rng) for degree in range(1, 7) for _ in range(50)]
        lifts = 0
        for F in forms:
            is_lift = classify(F, ()) == "lift"
            assert is_lift == (compress(F) != F)
            lifts += is_lift
        assert 0 < lifts < len(forms)

    def test_convolution_with_negated_factors(self):
        # factoring normalizes so both factors come out negated here; the
        # product ray is the same either way
        F = convolve(h_form(2, 1), h_form(2, 1))
        assert classify(F, [extreme_rays(k) for k in range(3)]) == "convolution"

    def test_positive_multiple_of_product(self):
        lower = [extreme_rays(k) for k in range(3)]
        F = convolve(h_form(2, 1), h_form(2, 1))
        assert classify(F * Fraction(3, 2), lower) == "convolution"
        assert classify(-F, lower) == "new"

    def test_convolution_needs_given_reports(self):
        # a product is a convolution only relative to reports holding both
        # factors' degrees
        F = convolve(h_form(2, 1), h_form(2, 1))
        assert classify(F, [extreme_rays(0), extreme_rays(2)]) == "new"

    @pytest.mark.parametrize("n", range(6))
    def test_tags_agree_with_factoring(self, n):
        # The tags read off the construction agree with the old rule that
        # factors each form, on every ray of ranks 1 to 6.
        lower = [extreme_rays(k) for k in range(n)]
        for entry in extreme_rays(n).rays:
            assert entry.tag == classify_by_factoring(entry.form, lower)

    @pytest.mark.parametrize("n", range(5))
    def test_tags_agree_with_report(self, n):
        # classify builds the products of the reports it is given on each
        # call, so rank 6 is left to the test above.
        lower = [extreme_rays(k) for k in range(n)]
        for entry in extreme_rays(n).rays:
            assert entry.tag == classify(entry.form, lower)


class TestGenerateExtremes:
    def test_rank3_complete(self):
        got = {form_to_ray(F).coords for F in generate_extremes(2)}
        assert got == extreme_rays(2).ray_set

    def test_rank4_derives_all_but_banker(self):
        generated = {form_to_ray(F).coords for F in generate_extremes(3)}
        dd = extreme_rays(3).ray_set
        assert len(generated) == 12
        assert generated < dd
        missing = dd - generated
        assert missing == {form_to_ray(BANKER).coords}

    def test_generated_subset_of_dd(self):
        for n in (1, 2, 3, 4):
            dd = extreme_rays(n).ray_set
            for F in generate_extremes(n):
                assert form_to_ray(F).coords in dd

    def test_excluded_ones_product(self):
        # f_1 in degree 2 is the ones-by-ones convolution: skipped, not extreme
        generated = generate_extremes(1)
        assert all(F.coeff(M(1)) != 1 or F.coeff(0) != 0 for F in generated)
        assert not is_extreme(Form(2, {M(1): 1}))

    def test_every_output_extreme(self):
        for n in (2, 3, 4):
            for F in generate_extremes(n):
                assert is_extreme(F)

    def test_reads_no_tags(self, monkeypatch):
        # Every lower-rank ray is lifted and convolved whatever its tag, so
        # tagging every ray "lift" changes nothing.
        expected = [repr(F) for F in generate_extremes(4)]
        monkeypatch.setattr(cone, "_tag", lambda ray, products: "lift")
        extreme_rays.cache_clear()
        try:
            assert [repr(F) for F in generate_extremes(4)] == expected
        finally:
            extreme_rays.cache_clear()

    @pytest.mark.parametrize("n", range(1, 6))
    def test_derived_rays_read_only_the_rays(self, n):
        # The lifts, the products and their exclusion flags come from the
        # lower entries' integer rays alone, not from their forms.
        lower = [extreme_rays(k) for k in range(n)]
        bare = [
            ExtremeReport(rep.n, tuple(dataclasses.replace(e, form=None) for e in rep.rays))
            for rep in lower
        ]
        assert cone._derived_rays(n, bare) == cone._derived_rays(n, lower)

    def test_builds_candidates_as_integer_rays(self, monkeypatch):
        # Each lift and product is built on the lower ranks' integer rays,
        # so no Form arithmetic and no canonicalize runs.  The forms are
        # pinned by the SHA-256 of their reprs.
        for k in range(4):
            extreme_rays(k)

        def boom(*args):
            raise AssertionError("generate_extremes built a form or canonicalized")

        # every module that could hold one of the names, imported or not
        for module in (algebra, polyhedra, cone):
            for name in ("shift", "convolve", "canonicalize"):
                monkeypatch.setattr(module, name, boom, raising=False)
        forms = generate_extremes(4)
        assert len(forms) == 34
        assert hashlib.sha256("\n".join(map(repr, forms)).encode()).hexdigest() == (
            "d1277161e866f1552ede1305741e9cf3c0b6a7a0c604e4eb9d1915b1b761582b")

    def test_rank6_digest(self):
        forms = generate_extremes(5)
        assert len(forms) == 137
        assert hashlib.sha256("\n".join(map(repr, forms)).encode()).hexdigest() == (
            "fcdb65b55e384d0173f8bed71a972370793ea9102c2f626e611f3c80bb2e3c6f")

    def test_ambient_out_of_range(self, monkeypatch):
        # A bad ambient raises a ValueError subclass, as every other entry
        # point does; above the cap it fails before any lower rank runs.
        with pytest.raises(IntervalOutOfRange):
            generate_extremes(-1)

        def no_enumeration(k):
            raise AssertionError("extreme_rays(%d) ran" % k)

        monkeypatch.setattr(cone, "extreme_rays", no_enumeration)
        with pytest.raises(AmbientTooLarge, match="ambient 7 "):
            generate_extremes(7)


class TestFlagCone:
    def test_rank2_description(self):
        desc = flag_cone(1)
        gens = {str(sys_): ray.coords for sys_, ray in desc.generators}
        assert gens == {"empty": (1, 1), "[1,1]": (0, 1)}
        assert set(desc.facets) == {
            tuple(int(x) for x in Form(2, {0: 1}).vector()),
            tuple(int(x) for x in h_form(2, 1).vector()),
        }

    def test_polarity_counts(self):
        for n in (1, 2, 3):
            desc = flag_cone(n)
            assert len(desc.generators) == catalan(n + 1)
            assert len(desc.facets) == len(extreme_rays(n).rays)

    def test_generators_extreme_in_polar(self):
        for n in (1, 2, 3):
            desc = flag_cone(n)
            for _, g in desc.generators:
                active = [
                    row for row in desc.facets
                    if sum(a * b for a, b in zip(row, g.coords)) == 0
                ]
                assert matrix_rank(active) == (1 << n) - 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_facets_reuse_extreme_rays(self, n, monkeypatch):
        # By polarity the facets are the extreme rays, so once extreme_rays
        # has run, flag_cone runs no double description of its own.
        extreme_rays(n)
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return dd_rays(*args, **kwargs)

        monkeypatch.setattr(polyhedra, "dd_rays", spy)
        monkeypatch.setattr(cone, "dd_rays", spy)
        flag_cone(n)
        assert calls == []

    def test_generators_are_witness_limits(self):
        # normalized witness flag vectors approach the generator with O(1/N)
        desc = flag_cone(2)
        for sys_, g in desc.generators:
            if len(sys_) == 0:
                continue
            for N in (2, 4, 8):
                P = witness_poset(WitnessSpec(2, sys_, N))
                full = flag_number(P, M(1, 2))
                for mask, target in zip(ranksets.subsets(2), g.coords):
                    value = Fraction(flag_number(P, mask), full)
                    assert abs(value - target) <= Fraction(2, N)


# SHA-256 of the extreme rays of the inequality cone at ambient n, one
# comma-separated coordinate line per ray in output order.  The facets of
# the polar cone flag_cone(n) are the same vectors, so one table pins both.
PINNED_DIGESTS = {
    1: "af62962140136ae2e4f8105130202b713e4d5122a9ded98f2f796e4c4b0e2516",
    2: "b61ab40c537d51bd8d229c82e136ecfea29d19a9b6d096b8b5047bb02ab1ac0d",
    3: "3b4c24a325ec00e8a58b67fa5e7fcbe71e0a538ca14aa1b151e45b78f561baad",
    4: "e48cfd1ba684ab8a137634d2d9d87d6c67d4fbb53ce056c1781eb94eb3baa4a2",
    5: "a948311ca5f24d8512b15f26978c4f9622ddcc221598bb6ed13e6bfd162253e0",
}


# SHA-256 of the same rays with their active rows appended, one line per
# ray: dd_rays(facet_system(n).normal_matrix) as (coords + active).
ACTIVE_DIGESTS = {
    0: "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    1: "7c17095060b29c946475a61ccfebf0085e3a5768724f91df25cefe87630a6f97",
    2: "696c1af2e5ac3ff361d35409dfe5a382701b04c261999580a859614ff054c1a6",
    3: "cb803053fe93ac6c288cfa1c0477d4e32253266a9da1b1232350dfd287833e54",
    4: "9f377d2775ae7c7e2d857fbfaaeae184a06823712298c20430078ff252e90387",
    5: "248b41c8f5d03bc01d82da9189ae527cfb5dde25dc34fd9b298e048530c209c2",
}


# SHA-256 of the rows (antichain, normal) of facet_system(n).facets.
FACET_DIGESTS = {
    0: "93283ba1cf3160092440923a49508936df910b63beb75e878bbe520678497769",
    1: "e36ecdf6c5e41698f684267a42d898114d6c236c1c0a9c26294a44dc0440e35e",
    2: "50edd020615f75b51428c188e813a8e494b95c9a53e24a90cd206399fb4cf3f7",
    3: "2c0e8aefdf3144de600ea57d00748266ac818d3f4d91c7b87a825abcd9adff88",
    4: "c3e856440a47368ea2cfc275fbc0e306674c727d35d5a16d4e3a619801f3e5ca",
    5: "6ddd66efcb8043c7b14ec01d6ecbaa34825714099679b357eed5b4e6d243bff5",
    6: "d2b7e87cc6bb431212b13a414c43c4cc769354755a8d1ca4ee70e5357f486a30",
}


def rows_digest(rows) -> str:
    text = "\n".join(",".join(str(x) for x in row) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


class TestPinnedOutputs:
    # Changes to the double description loop (row order, adjacency scan)
    # must leave its output byte for byte the same.

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_dd_rays_digest(self, n):
        rays = dd_rays(facet_system(n).normal_matrix)
        assert rows_digest(r.coords for r, _ in rays) == PINNED_DIGESTS[n]

    @pytest.mark.parametrize("n", range(6))
    def test_dd_rays_active_digest(self, n):
        rays = dd_rays(facet_system(n).normal_matrix)
        assert rows_digest(r.coords + active for r, active in rays) == (
            ACTIVE_DIGESTS[n])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_flag_cone_facets_digest(self, n):
        assert rows_digest(flag_cone(n).facets) == PINNED_DIGESTS[n]

    # contains reports the first violated antichain in facet order, so the
    # order is pinned along with the normals, up to rank 7.
    @pytest.mark.parametrize("n", range(7))
    def test_facet_system_digest(self, n):
        rows = ((str(sys_),) + normal.coords for sys_, normal in facet_system(n).facets)
        assert rows_digest(rows) == FACET_DIGESTS[n]

    @staticmethod
    def rank7_forms(count: int) -> list[Form]:
        # Seeded rank-7 forms: nonnegative combinations of shifts and
        # products of extreme forms of ranks 2 to 5, every fourth minus one
        # more such image, which puts it outside.
        rng = random.Random(7)
        extremes = {n + 1: extreme_rays(n).forms for n in range(1, 5)}

        def image() -> Form:
            if rng.randrange(3) == 0:
                F = rng.choice(extremes[5])
                return shift(shift(F, rng.randrange(5)), rng.randrange(6))
            p = rng.randint(2, 5)
            return convolve(rng.choice(extremes[p]), rng.choice(extremes[7 - p]))

        forms = []
        for i in range(count):
            F = sum((image() * rng.randint(1, 3) for _ in range(rng.randint(2, 3))), Form(7))
            forms.append(F - image() if i % 4 == 3 else F)
        return forms

    def test_rank7_membership_digest(self):
        # Three inside for every one outside, as the projection recursion
        # decides; the outside results carry the violated antichain, its
        # blocker sum and the witness.
        forms = self.rank7_forms(32)
        assert [contains_by_projection(F) for F in forms] == [i % 4 != 3 for i in range(32)]
        text = "\n".join(repr(contains(F)) for F in forms)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "f4650172af458ce3be7d2af0179118927ed610f92c93c195f38a3fa0afe8c6d2")

    def test_rank7_membership_builds_no_facet_normal(self):
        # contains reads the antichains and their term lists alone, so no
        # facet normal is built, inside the cone or outside it.
        forms = self.rank7_forms(8)
        facet_system.cache_clear()
        results = [contains(F) for F in forms]
        assert [bool(r) for r in results] == [i % 4 != 3 for i in range(8)]
        assert "facets" not in vars(facet_system(6))

    @staticmethod
    def rank7_frontier(count: int) -> list:
        # The cone of facet_system(6)'s rows in lex-max order cut down to
        # its first 64 independent rows, then its first `count` other rows,
        # a rank-7 frontier small enough to pin.
        rows = sorted(facet_system(6).normal_matrix, reverse=True)
        basis = polyhedra._independent_rows(rows, len(rows[0]))
        chosen = set(basis)
        others = [k for k in range(len(rows)) if k not in chosen]
        return dd_rays([rows[k] for k in basis + others[:count]])

    def test_rank7_frontier_digest(self):
        # Each ray is pinned with its active rows.
        rays = self.rank7_frontier(175)
        assert len(rays) == 931
        assert rows_digest(r.coords + active for r, active in rays) == (
            "be62c9ee534ed4bb79dc3ef6aaa331a0b31e3aa53d40c93d6a27efdc4cd4153b")

    @pytest.mark.slow
    def test_rank7_frontier_digest_200(self):
        rays = self.rank7_frontier(200)
        assert len(rays) == 6331
        assert rows_digest(r.coords + active for r, active in rays) == (
            "7a01e2f8aa75608ae1392f728c8dedae00f5150337e1c9c082245895696c9fa9")
