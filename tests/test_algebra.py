"""Forms, convolution, shift, projections, evaluation, factorization."""

from __future__ import annotations

import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from flagcone import algebra, ranksets
from flagcone.algebra import (
    BadShiftIndex,
    DegreeMismatch,
    Form,
    convolve,
    eval_poset,
    eval_system,
    factor_once,
    limit_check,
    parse_form,
    prefix_restriction,
    project,
    reflect,
    render_terms,
    shift,
    to_h_coeffs,
)
from flagcone.intervals import MAX_AMBIENT, AmbientTooLarge, IntervalSystem
from flagcone.poset import (
    dual,
    flag_vector,
    validate,
    witness_poset,
    WitnessSpec,
)
from flagcone.ranksets import RankSetOutOfRange

from oracles import compress, h_form, project_by_terms, random_graded_poset

f = Form.monomial


def M(*elems: int) -> int:
    return ranksets.mask_of(elems)


def interval(P, a, b):
    """The interval [a, b] of P, for a <= b, as a graded poset of its own."""
    members = {x for x in P.elements if P.le(a, x) and P.le(x, b)}
    base = P.rank_of(a)
    return validate(
        [(x, P.rank_of(x) - base) for x in P.elements if x in members],
        [(x, y) for x, y in P.covers if x in members and y in members],
    )


# the single rank-4 extreme ray not produced by lifting or convolution
SPORADIC_RANK4 = Form(4, {M(1, 3): 1, M(1): -1, M(2): 1, M(3): -1})


def forms(degree_max: int = 4, coeff_max: int = 3) -> st.SearchStrategy[Form]:
    def build(degree, pairs):
        return Form(degree, [(m % (1 << (degree - 1)), c) for m, c in pairs])

    return st.integers(1, degree_max).flatmap(
        lambda d: st.builds(
            build,
            st.just(d),
            st.lists(
                st.tuples(
                    st.integers(0, (1 << (d - 1)) - 1),
                    st.integers(-coeff_max, coeff_max),
                ),
                max_size=6,
            ),
        )
    )


def random_form(rng: random.Random, degree: int) -> Form:
    return Form(
        degree,
        {
            m: rng.randint(-3, 3)
            for m in range(1 << (degree - 1))
            if rng.random() < 0.6
        },
    )


class TestForm:
    def test_zero_filtering_and_merge(self):
        F = Form(3, [(0, 1), (0, -1), (1, Fraction(1, 2)), (1, Fraction(1, 2))])
        assert F.support == {1}
        assert F.coeff(1) == 1
        assert F.coeff(0) == 0

    def test_mask_validation(self):
        with pytest.raises(ranksets.RankSetOutOfRange):
            Form(2, {0b10: 1})
        with pytest.raises(DegreeMismatch):
            Form(0, {})

    def test_arithmetic(self):
        F = f(3, M(1)) + f(3, M(2)) * 2
        assert F.coeff(M(2)) == 2
        G = F - f(3, M(1))
        assert G.support == {M(2)}
        assert (-G).coeff(M(2)) == -2
        assert (G / 2).coeff(M(2)) == 1

    def test_results_share_small_integers(self):
        # Arithmetic results hold the shared Fraction of each integral
        # coefficient in [-16, 16].
        shared = algebra._SMALL_INTEGERS
        F = Form(4, {0: 1, M(1): Fraction(3), M(2): Fraction(1, 2), M(3): 40})
        G = Form(4, {0: 2, M(2): Fraction(1, 2), M(1, 2): -7})
        results = [F, G, F + G, F - G, -F, F * 3, G / 2, F * Fraction(2, 3),
                   Form.monomial(4, M(1, 3), -16)]
        for H in results:
            for _, c in H.terms():
                if c.denominator == 1 and -16 <= c <= 16:
                    assert c is shared[int(c)], (H, c)
        assert repr(F + G) == (
            "Form(4, {0: Fraction(3, 1), 1: Fraction(3, 1), 2: Fraction(1, 1),"
            " 3: Fraction(-7, 1), 4: Fraction(40, 1)})"
        )

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            f(2, 0) + f(3, 0)

    def test_vector_roundtrip(self):
        F = Form(3, {0: 1, 3: Fraction(-2, 3)})
        assert Form.from_vector(3, F.vector()) == F
        assert len(F.vector()) == 4

    @pytest.mark.parametrize("degree", [1, 3, 7])
    def test_stores_its_dense_vector(self, degree):
        # The coefficient tuple is the form's one storage: vector() hands
        # it out, 2^(degree-1) entries, zeros the one shared Fraction(0).
        F = Form(degree, {0: 2, (1 << (degree - 1)) - 1: Fraction(-1, 3)})
        assert Form.__slots__ == ("degree", "_vec")
        assert F.vector() is F.vector()
        assert len(F.vector()) == 1 << (degree - 1)
        assert all(type(c) is Fraction for c in F.vector())
        assert all(c is algebra._ZERO for c in F.vector() if not c)
        assert Form.from_vector(degree, F.vector()).vector() == F.vector()

    @pytest.mark.parametrize("seed", range(4))
    def test_hash_agrees_with_equality_across_constructions(self, seed):
        rng = random.Random(seed)
        degree = rng.randint(1, 5)
        size = 1 << (degree - 1)
        vec = [rng.choice([0, 0, 1, -3, Fraction(2, 3), 40]) for _ in range(size)]
        other = [rng.choice([0, 1, -1]) for _ in range(size)]
        A, B = Form.from_vector(degree, vec), Form.from_vector(degree, other)
        same = [
            Form(degree, dict(enumerate(vec))),
            Form(degree, [(m, c) for m, c in enumerate(vec)] + [(0, 1), (0, -1)]),
            A,
            (A + B) - B,
            -(-A),
            A * 3 / 3,
            2 * A - A,
        ]
        for F in same:
            assert F == A and hash(F) == hash(A) and repr(F) == repr(A)
        assert (A - A).vector() == Form(degree).vector()
        assert hash(A - A) == hash(Form(degree))

    def test_vector_builds_no_fraction(self, monkeypatch):
        # Absent masks share one zero instead of a new Fraction(0) each.
        F = Form(7, {M(1, 3): 2, M(): Fraction(-1, 2)})
        expected = [F.coeff(m) for m in range(64)]

        def no_fraction(*args):
            raise AssertionError("Fraction built for an absent mask")

        monkeypatch.setattr(algebra, "Fraction", no_fraction)
        assert list(F.vector()) == expected
        assert F.coeff(M(2)) == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_from_vector_matches_constructor(self, seed):
        # from_vector builds its coefficients without __init__; the result
        # must be the form __init__ builds from the same masks.
        rng = random.Random(seed)
        degree = rng.randint(1, 6)
        vec = [rng.choice([0, 0, 1, -2, 3]) for _ in range(1 << (degree - 1))]
        if seed % 2:
            vec = [Fraction(c, rng.randint(1, 4)) for c in vec]
        F = Form.from_vector(degree, vec)
        G = Form(degree, dict(enumerate(vec)))
        assert F == G
        assert hash(F) == hash(G)
        assert str(F) == str(G)
        assert list(F.terms()) == list(G.terms())
        assert all(type(c) is Fraction for _, c in F.terms())
        assert F.vector() == tuple(Fraction(c) for c in vec)

    def test_from_vector_keeps_exact_values(self):
        # Small integral coordinates share one Fraction each; a
        # non-integral Fraction and integers outside +-16 keep their exact
        # values, and zeros, int or Fraction, are still dropped.
        vec = [0, 1, -16, 17, Fraction(5, 3), Fraction(-4, 2), -1000, Fraction(0)]
        F = Form.from_vector(4, vec)
        G = Form(4, dict(enumerate(vec)))
        assert F == G
        assert hash(F) == hash(G)
        assert repr(F) == repr(G)
        assert str(F) == str(G)
        assert dict(F.terms()) == {
            1: 1, 2: -16, 3: 17, 4: Fraction(5, 3), 5: -2, 6: -1000}
        assert all(type(c) is Fraction for _, c in F.terms())
        assert F[1] is Form.from_vector(2, [0, 1])[1]

    def test_from_vector_zero_and_length(self):
        assert Form.from_vector(3, [0, 0, 0, 0]).is_zero
        assert Form.from_vector(3, (Fraction(0),) * 4) == Form(3)
        with pytest.raises(DegreeMismatch):
            Form.from_vector(3, [1, 0, 1])
        with pytest.raises(DegreeMismatch):
            Form.from_vector(2, [1, 0, 1, 0])

    @pytest.mark.parametrize("degree", [0, -1])
    def test_from_vector_degree_below_one(self, degree):
        # As in the constructor, not a bare ValueError from a negative shift.
        with pytest.raises(DegreeMismatch, match="< 1"):
            Form.from_vector(degree, [])

    def test_degree_above_the_dense_cap(self):
        # A form is 2^(degree-1) coefficients, so a degree above
        # MAX_AMBIENT + 1 is refused before any vector is allocated.
        top = MAX_AMBIENT + 1
        assert len(Form(top).vector()) == 1 << MAX_AMBIENT
        for build in (
            lambda: Form(top + 1),
            lambda: Form(40, {0: 1}),
            lambda: Form.monomial(10**18, 0),
            lambda: Form.from_vector(top + 1, []),
            lambda: convolve(Form(top - 4), Form(5)),
            lambda: shift(Form(top), 0),
        ):
            with pytest.raises(AmbientTooLarge, match=f"^ambient [0-9]+ > {MAX_AMBIENT}$"):
                build()
        assert convolve(Form(top - 5), Form(5)).degree == top

    def test_immutable_and_hashable(self):
        F = f(2, 1)
        with pytest.raises(AttributeError):
            F.degree = 5
        assert hash(F) == hash(Form(2, {1: 1}))

    def test_str(self):
        F = Form(4, {M(1, 3): 1, M(1): -1})
        assert str(F) == "-f{1} + f{1,3}"
        assert str(Form(2)) == "0 (degree 2)"
        assert str(f(2, 1) * 2) == "2*f{1}"

    def test_render_terms(self):
        terms = [(0, 0), (M(1), Fraction(-1, 2)), (M(1, 2), 1), (M(2), -3)]
        assert render_terms("h", terms) == "-1/2*h{1} + h{1,2} - 3*h{2}"
        assert render_terms("h", [(0, 0)]) == ""


class TestConvolve:
    def test_monomials(self):
        assert convolve(f(1, 0), f(2, M(1))) == f(3, M(1, 2))
        assert convolve(f(2, M(1)), f(1, 0)) == f(3, M(1, 2))
        assert convolve(f(1, 0), f(1, 0)) == f(2, M(1))

    def test_h_product(self):
        assert convolve(h_form(1), h_form(2, 1)) == Form(
            3, {M(1, 2): 1, M(1): -1}
        )

    def test_scalars(self):
        assert convolve(2, f(2, 1)) == f(2, 1) * 2
        assert convolve(f(2, 1), Fraction(1, 2)) == f(2, 1) / 2
        assert convolve(2, 3) == 6
        assert convolve(convolve(2, f(1, 0)), f(1, 0)) == f(2, 1) * 2

    @given(forms(3), forms(3), forms(3))
    @settings(max_examples=60)
    def test_associative(self, a, b, c):
        assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))

    @given(forms(3), forms(3), forms(3))
    @settings(max_examples=60)
    def test_distributive(self, a, b, c):
        if b.degree != c.degree:
            b, c = b, Form(b.degree)
        assert convolve(a, b + c) == convolve(a, b) + convolve(a, c)

    def test_matches_constructor(self):
        # convolve works on dense coefficient vectors; on every pair of
        # extreme forms up to rank 5, and on random forms with fractional
        # coefficients, it must give the form the constructor gives from
        # the basis rule.
        from flagcone.cone import extreme_rays

        rng = random.Random(3)
        pairs = [
            (e.form, g.form)
            for a in range(4) for b in range(4 - a)
            for e in extreme_rays(a).rays for g in extreme_rays(b).rays
        ]
        for _ in range(40):
            F = random_form(rng, rng.randint(1, 3)) * Fraction(rng.randint(1, 5), 3)
            pairs.append((F, random_form(rng, rng.randint(1, 3))))
        for F, G in pairs:
            m = F.degree
            H = convolve(F, G)
            expected = Form(m + G.degree, [
                (s | ranksets.mask_of([m]) | (t << m), a * b)
                for s, a in F.terms() for t, b in G.terms()
            ])
            assert H == expected
            assert hash(H) == hash(expected)
            assert repr(H) == repr(expected)
            assert str(H) == str(expected)
            masks = [s for s, _ in H.terms()]
            assert masks == sorted(set(masks))
            assert all(type(c) is Fraction and c for _, c in H.terms())

    @pytest.mark.parametrize("seed", range(10))
    def test_splits_posets_at_the_junction(self, seed):
        """Oracle: (F*G)(P) sums F(lower interval) * G(upper interval) over
        the elements at the junction rank."""
        rng = random.Random(seed)
        dm, dn = rng.randint(1, 2), rng.randint(1, 2)
        P = random_graded_poset(dm + dn, seed=seed + 50)
        F, G = random_form(rng, dm), random_form(rng, dn)
        expected = sum(
            eval_poset(interval(P, P.bottom, x), F)
            * eval_poset(interval(P, x, P.top), G)
            for x in P.level(dm)
        )
        assert eval_poset(P, convolve(F, G)) == expected


class TestShift:
    def test_examples(self):
        assert shift(h_form(2, 1), 1) == Form(3, {M(1): 1, 0: -1})
        assert shift(h_form(2, 1), 0) == Form(3, {M(2): 1, 0: -1})
        assert shift(f(3, M(1, 2)), 1) == f(4, M(1, 3))

    def test_bad_index(self):
        with pytest.raises(BadShiftIndex):
            shift(f(3, 0), 3)
        with pytest.raises(BadShiftIndex):
            shift(f(3, 0), -1)

    @given(forms(4), st.integers(0, 3))
    @settings(max_examples=60)
    def test_avoids_inserted_letter(self, F, k):
        if k > F.degree - 1:
            k = F.degree - 1
        G = shift(F, k)
        assert G.degree == F.degree + 1
        for s in G.support:
            assert not (s >> k) & 1

    def test_matches_constructor_on_extreme_forms(self):
        # shift works on dense coefficient vectors; on every extreme form
        # of rank <= 5 and every index it must give the form the
        # constructor gives, letter by letter: j <= k stays, j > k moves to
        # j + 1.
        from flagcone.cone import extreme_rays

        checked = 0
        for n in range(5):
            for entry in extreme_rays(n).rays:
                F = entry.form
                for k in range(F.degree):
                    G = shift(F, k)
                    expected = Form(F.degree + 1, {
                        ranksets.mask_of(j if j <= k else j + 1
                                         for j in ranksets.elems_of(s)): c
                        for s, c in F.terms()
                    })
                    assert G == expected
                    assert hash(G) == hash(expected)
                    assert repr(G) == repr(expected)
                    assert str(G) == str(expected)
                    masks = [s for s, _ in G.terms()]
                    assert masks == sorted(set(masks))
                    checked += 1
        assert checked == 1 * 1 + 2 * 2 + 5 * 3 + 13 * 4 + 41 * 5


class TestProjections:
    def test_top_letter_drops(self):
        assert project(f(4, M(1, 3)), 3) == f(3, M(1))
        assert project(f(4, M(1, 2)), 3) == Form(3)

    def test_cutoff_window(self):
        assert project(f(4, M(1, 2)), 0) == f(3, M(1, 2))
        assert project(f(4, M(1)), 1) == f(3, M(1))
        assert project(f(4, M(1)), 2) == Form(3)

    def test_degree_one(self):
        assert project(f(1, 0), 0) == 1
        assert project(f(1, 0) * 5, -2) == 5

    @given(st.integers(1, 8), st.booleans(), st.data())
    @settings(max_examples=60)
    def test_matches_term_oracle(self, degree, fractional, data):
        # project and _project_vector against the term-by-term projection,
        # at every cutoff from -1 to n + 1: values, and value types (ints
        # stay ints on vectors; forms hold Fractions).
        size = 1 << (degree - 1)
        vec = data.draw(st.lists(st.sampled_from([0, 0, 1, -1, 2, -3]),
                                 min_size=size, max_size=size))
        if fractional:
            dens = data.draw(st.lists(st.integers(1, 4), min_size=size, max_size=size))
            vec = [Fraction(c, d) for c, d in zip(vec, dens)]
        vec = tuple(vec)
        F = Form.from_vector(degree, vec)
        for m in range(-1, degree + 1):
            expected = project_by_terms(F, m)
            got = project(F, m)
            assert repr(got) == repr(expected)
            if degree == 1:
                assert type(got) is Fraction
                continue
            assert got == expected and hash(got) == hash(expected)
            image = algebra._project_vector(vec, m)
            assert type(image) is tuple
            assert image == expected.vector()
            assert all(type(x) is (Fraction if fractional else int) for x in image)

    def test_prefix_restriction(self):
        F = Form(4, {M(1, 2): 1, M(1, 3): 1, M(2): 2})
        assert prefix_restriction(F, 2) == Form(3, {M(1, 2): 1, M(2): 2})
        assert prefix_restriction(F, 1) == Form(3)
        assert prefix_restriction(F, -1) == Form(3)
        assert prefix_restriction(f(1, 0), 0) == 0
        with pytest.raises(DegreeMismatch):
            prefix_restriction(F, 3)

    @given(forms(4), st.integers(1, 3))
    @settings(max_examples=80)
    def test_difference_identity(self, F, m):
        """project at cutoff m is project at 0 minus the prefix part."""
        if F.degree == 1:
            return
        m = min(m, F.degree - 1)
        lhs = project(F, m)
        rhs = project(F, 0) - prefix_restriction(F, m - 1)
        assert lhs == rhs

    @given(forms(3), forms(3), st.integers(-1, 6))
    @settings(max_examples=80)
    def test_convolution_compatibility_project(self, F, G, k):
        lhs = project(convolve(F, G), k)
        rhs = convolve(F, project(G, k - F.degree))
        assert lhs == rhs

    @given(forms(3), forms(3), st.integers(0, 6))
    @settings(max_examples=80)
    def test_convolution_compatibility_prefix(self, F, G, k):
        total = F.degree + G.degree
        if k > total - 2:
            return
        lhs = prefix_restriction(convolve(F, G), k)
        rhs = convolve(F, prefix_restriction(G, k - F.degree))
        assert lhs == rhs


class TestReflect:
    def test_example(self):
        assert reflect(Form(4, {M(1): 1, M(1, 2): 2})) == Form(
            4, {M(3): 1, M(2, 3): 2}
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_pairs_with_duality(self, seed):
        rng = random.Random(seed)
        P = random_graded_poset(rng.randint(2, 4), seed=seed)
        F = random_form(rng, P.rank)
        assert eval_poset(dual(P), F) == eval_poset(P, reflect(F))


class TestSupportAndFactors:
    def test_compress(self):
        F = Form(4, {M(1, 3): 1, M(3): -1})
        assert compress(F) == Form(3, {M(1, 2): 1, M(2): -1})
        G = Form(4, {M(1, 3): 1, M(1): -1})
        assert compress(G) == Form(3, {M(1, 2): 1, M(1): -1})
        assert compress(SPORADIC_RANK4).degree == 4

    def test_factor_once_monomial(self):
        got = factor_once(f(4, M(1, 3)))
        assert got is not None
        F1, F2 = got
        assert convolve(F1, F2) == f(4, M(1, 3))
        assert F1 == f(1, 0)

    def test_factor_once_none(self):
        assert factor_once(f(1, 0)) is None
        assert factor_once(f(3, 0)) is None
        assert factor_once(SPORADIC_RANK4) is None
        assert factor_once(h_form(3, 1) + f(3, M(2))) is None

    def test_factor_once_two_level(self):
        F = convolve(h_form(2, 1), h_form(2, 1))
        got = factor_once(F)
        assert got is not None
        F1, F2 = got
        assert convolve(F1, F2) == F
        # Normalization pins the first nonzero coefficient of F1 to 1, so the
        # factors come out as the negated pair (f_empty - f_1) * (f_empty - f_1).
        assert F1 == Form(2, {0: 1, M(1): -1})
        assert F2 == Form(2, {0: 1, M(1): -1})

    @given(forms(3, 2), forms(3, 2))
    @settings(max_examples=60)
    def test_factor_once_reconstructs(self, A, B):
        if A.is_zero or B.is_zero:
            return
        F = convolve(A, B)
        got = factor_once(F)
        assert got is not None
        F1, F2 = got
        assert convolve(F1, F2) == F

    def test_factor_completely(self):
        # factor_once on a product of three irreducibles, then once more on
        # the side that still splits, gives the three back.
        F = convolve(convolve(f(1, 0), h_form(2, 1)), f(1, 0))
        parts = []
        for part in factor_once(F):
            split = factor_once(part)
            parts += [part] if split is None else split
        assert len(parts) == 3
        assert all(factor_once(p) is None for p in parts)
        assert convolve(convolve(parts[0], parts[1]), parts[2]) == F


class TestHBasis:
    def test_singleton_coords(self):
        F = f(3, M(1, 2))
        coords = to_h_coeffs(F)
        assert coords == {0: 1, M(1): 1, M(2): 1, M(1, 2): 1}

    @given(forms(4))
    @settings(max_examples=60)
    def test_roundtrip(self, F):
        # Moebius inversion over supersets recovers the f-coefficients.
        coords = to_h_coeffs(F)
        full = (1 << (F.degree - 1)) - 1
        back = {
            s: sum(
                (-1) ** (u & ~s).bit_count() * coords[u]
                for u in range(full + 1) if u & s == s
            )
            for s in range(full + 1)
        }
        assert Form(F.degree, back) == F

    @pytest.mark.parametrize("degree", range(1, 8))
    def test_matches_superset_sums(self, degree):
        # The O(4^n) definition, against the transform of the reversed vector.
        rng = random.Random(4100 + degree)
        for _ in range(3):
            F = random_form(rng, degree)
            size = 1 << (degree - 1)
            assert to_h_coeffs(F) == {
                u: sum((F.coeff(s) for s in range(size) if s & u == u), Fraction(0))
                for u in range(size)
            }

    def test_h_of_h_forms(self):
        # b_U(h_i) = [U == {i}] for i >= 1
        coords = to_h_coeffs(h_form(3, 2))
        assert coords == {0: 0, M(1): 0, M(2): 1, M(1, 2): 0}


class TestEvaluation:
    def test_poset_functional(self):
        P = random_graded_poset(3, seed=1)
        F = random_form(random.Random(1), 3)
        vec = flag_vector(P)
        assert eval_poset(P, F) == sum(c * vec[s] for s, c in F.terms())
        with pytest.raises(DegreeMismatch):
            eval_poset(P, f(2, 0))

    def test_system_functional(self):
        # Blockers of {[1,2],[2,3]} in [1,3]: {2},{1,2},{2,3},{1,3},{1,2,3}.
        # Summing the form's coefficients over that family gives 1 + 1 = 2
        # (the {2} and {1,3} terms; the others carry coefficient 0).
        sys_ = IntervalSystem.of(3, [(1, 2), (2, 3)])
        assert eval_system(sys_, SPORADIC_RANK4) == 2
        assert eval_system(IntervalSystem.empty(3), SPORADIC_RANK4) == 0

    def test_singleton_functional(self):
        # The h-coordinate of a mask sums the coefficients over its supersets.
        coords = to_h_coeffs(Form(4, {M(1, 3): 1, M(1): 2}))
        assert coords[M(1)] == 3
        assert coords[M(1, 3)] == 1
        assert coords[0] == 3
        assert coords[M(3)] == 1

    def test_chain_sums_coefficients(self):
        P = witness_poset(WitnessSpec(3, IntervalSystem.empty(3), 1))
        F = Form(4, {m: m + 1 for m in range(8)})
        assert eval_poset(P, F) == sum(m + 1 for m in range(8))

    def test_limit_check_converges(self):
        sys_ = IntervalSystem.of(3, [(1, 2)])
        target = eval_system(sys_, SPORADIC_RANK4)
        vals = limit_check(sys_, SPORADIC_RANK4, [1, 2, 4, 8])
        assert all(isinstance(v, Fraction) for v in vals)
        deviations = [abs(v - target) for v in vals]
        assert deviations[-1] <= Fraction(1, 8)

    def test_limit_check_exact_on_blocker_sums(self):
        # single interval and a form supported on blockers only
        sys_ = IntervalSystem.of(2, [(2, 2)])
        vals = limit_check(sys_, f(3, M(2)), [1, 2, 3])
        assert vals == [1, 1, 1]


class TestTextFormat:
    def test_roundtrip(self):
        F = Form(3, {0: Fraction(-2, 3), M(1, 2): 4})
        text = f"form rank={F.degree}\n" + "".join(
            f'"{ranksets.to_string(m)}" {c}\n' for m, c in F.terms()
        )
        assert parse_form(text) == F

    def test_parse_flexible(self):
        text = "form rank=3\n# comment\n{1} 2\n\"{1,2}\" -1/2\n"
        F = parse_form(text)
        assert F.coeff(M(1)) == 2
        assert F.coeff(M(1, 2)) == Fraction(-1, 2)

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_form("{1} 2\n")
        with pytest.raises(ValueError):
            parse_form("form rank=3\nnonsense\n")

    def test_comments_and_blank_lines_before_header(self):
        F = parse_form("\n# a comment\n   \n  # indented\nform rank=3  # header\n{2} 1\n")
        assert F == Form(3, {M(2): 1})

    def test_huge_mask_is_refused_at_once(self):
        # Its message used to be rendered one bit at a time, quadratic in
        # the width of the mask.
        start = time.perf_counter()
        with pytest.raises(RankSetOutOfRange, match=re.escape("rank set {1000001} not within [1,2]")):
            Form(3, {1 << 10**6: 1})
        assert time.perf_counter() - start < 1

    def test_degree_is_checked_before_the_terms(self):
        with pytest.raises(AmbientTooLarge, match="^ambient 39 > 20$"):
            parse_form("form rank=40\nnonsense\n")
        with pytest.raises(DegreeMismatch, match="^degree 0 < 1$"):
            parse_form("form rank=0\n{1} 1\n")

    @pytest.mark.parametrize("header", [
        "form rank=+0_4", "form rank=\u0664", "form rank=+4", "form rank=-1",
        "form rank= 4", "form rank=4 4", "form",
    ])
    def test_header_rank_is_ascii_digits(self, header):
        # int() would read the first two as rank 4.
        with pytest.raises(ValueError, match=re.escape(f"bad header {header!r}")):
            parse_form(f"{header}\n{{1}} 1\n")

    @pytest.mark.parametrize("coeff", [
        "1_000", "1.5", "1e3", "1/2/3", "1/-2", "\u0663", "inf", "nan", "+-1", "",
        "1/0", "-3/00",
    ])
    def test_coefficient_grammar(self, coeff):
        # Only [+-]digits and [+-]digits/digits with a nonzero denominator,
        # the same on every Python.
        line = f'"{{1,3}}" {coeff}'.rstrip()
        with pytest.raises(ValueError, match=re.escape(f"bad term line {line!r}")):
            parse_form(f"form rank=4\n{line}\n")

    def test_signed_and_fractional_coefficients(self):
        F = parse_form("form rank=4\n{1} +3\n{2} -0\n{3} -12/08\n{1,2} 0/010\n")
        assert F == Form(4, {M(1): 3, M(3): Fraction(-3, 2)})

    @pytest.mark.parametrize("terms", ['"{1}" 1\n"{1}" 1', '{1,2} 1\n"{2,1}" -1'])
    def test_repeated_term_line_rejected(self, terms):
        # Repeated lines are refused, not added up.
        second = terms.splitlines()[1]
        with pytest.raises(ValueError, match=re.escape(f"repeated term line {second!r}")):
            parse_form(f"form rank=3\n{terms}\n")
