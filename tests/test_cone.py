"""Tests for the inequality cone: facets, membership, extremes, polar."""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

from flagcone import cone, polyhedra, ranksets
from flagcone.algebra import (
    Form, compress, convolve, eval_poset, h_form, reflect, shift,
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
from flagcone.intervals import IntervalSystem, blockers, catalan, is_blocker
from flagcone.polyhedra import dd_rays, matrix_rank
from flagcone.poset import flag_number, flag_vector, witness_poset


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
        fs = facet_system(3)
        seen = set()
        for sys_, normal in fs.facets:
            assert set(normal.coords) <= {0, 1}
            assert normal.coords not in seen
            seen.add(normal.coords)
            for mask, bit in zip(ranksets.subsets(3), normal.coords):
                assert bit == int(is_blocker(mask, sys_))

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
            if all(iv.lo == iv.hi for iv in sys_.sorted_intervals):
                u = ranksets.mask_of(iv.lo for iv in sys_.sorted_intervals)
                expected = tuple(
                    1 if s & u == u else 0 for s in ranksets.subsets(3)
                )
                assert normal.coords == expected


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
        res = contains(Form(2, {0: 1, M(1): -1}))
        spec = res.witness
        assert spec is not None
        P = witness_poset(spec)
        assert eval_poset(P, Form(2, {0: 1, M(1): -1})) == res.witness_value < 0

    def test_zero_form_inside(self):
        assert contains(Form(3))

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
        assert not is_extreme(Form(2))

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
        from flagcone.poset import random_graded_poset

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
        # factor_once normalizes so both factors come out negated here
        F = convolve(h_form(2, 1), h_form(2, 1))
        assert classify(F, [extreme_rays(k) for k in range(3)]) == "convolution"


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

    def test_rank4_complete_with_injection(self):
        generated = generate_extremes(3, injected_new={1: [h_form(2, 1)], 3: [BANKER]})
        assert {form_to_ray(F).coords for F in generated} == extreme_rays(3).ray_set

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


class TestFlagCone:
    def test_rank2_description(self):
        desc = flag_cone(1)
        gens = {str(sys_): ray.coords for sys_, ray in desc.generators}
        assert gens == {"empty": (1, 1), "[1,1]": (0, 1)}
        facet_rows = {tuple(int(x) for x in row) for row in desc.facets.entries}
        assert facet_rows == {
            tuple(int(x) for x in Form(2, {0: 1}).vector()),
            tuple(int(x) for x in h_form(2, 1).vector()),
        }

    def test_polarity_counts(self):
        for n in (1, 2, 3):
            desc = flag_cone(n)
            assert len(desc.generators) == catalan(n + 1)
            assert desc.facets.nrows == len(extreme_rays(n).rays)

    def test_generators_extreme_in_polar(self):
        for n in (1, 2, 3):
            desc = flag_cone(n)
            rows = [tuple(int(x) for x in row) for row in desc.facets.entries]
            for _, g in desc.generators:
                active = [
                    row for row in rows
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
        from flagcone.poset import WitnessSpec

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


def rows_digest(rows) -> str:
    text = "\n".join(",".join(str(x) for x in row) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


class TestPinnedOutputs:
    # Changes to the double description loop (row order, adjacency scan)
    # must leave its output byte for byte the same.

    @pytest.mark.parametrize(
        "n", [1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)]
    )
    def test_dd_rays_digest(self, n):
        rays = dd_rays(facet_system(n).normal_matrix)
        assert rows_digest(r.coords for r in rays) == PINNED_DIGESTS[n]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_flag_cone_facets_digest(self, n):
        assert rows_digest(flag_cone(n).facets.entries) == PINNED_DIGESTS[n]
