"""Acceptance suite: ten headline checks, one test and one summary line each.

Each test certifies one externally meaningful claim about the library, from
facet counts through the full algebra laws, with exact arithmetic and
independent in-test oracles where a number could otherwise be circular.
The rank-6 enumeration is gated behind --runslow; everything else runs in
the default suite.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from flagcone import ranksets
from flagcone.algebra import (
    Form,
    convolve,
    eval_system,
    limit_check,
    prefix_restriction,
    project,
    shift,
)
from flagcone.cone import (
    contains,
    contains_by_projection,
    extreme_rays,
    facet_system,
    flag_cone,
    form_to_ray,
    generate_extremes,
)
from flagcone.intervals import IntervalSystem, is_blocker
from flagcone.polyhedra import matrix_rank
from flagcone.poset import (
    GradedPoset,
    WitnessSpec,
    chain_interval_system,
    flag_vector,
    partition_classes,
    validate,
    witness_poset,
)

from oracles import order_closure, random_graded_poset


def M(*elems: int) -> int:
    return ranksets.mask_of(elems)


def ray_set(forms) -> set[tuple[int, ...]]:
    return {form_to_ray(F).coords for F in forms}


BANKER = Form(4, {M(1, 3): 1, M(1): -1, M(2): 1, M(3): -1})

RANK3_EXTREMES = [
    Form(3, {0: 1}),
    Form(3, {M(1): 1, 0: -1}),
    Form(3, {M(2): 1, 0: -1}),
    Form(3, {M(1, 2): 1, M(1): -1}),
    Form(3, {M(1, 2): 1, M(2): -1}),
]

RANK5_NEW = [
    Form(5, {M(1, 3, 4): 1, M(1, 4): -1, M(2, 4): 1, M(3, 4): -1,
             M(2): -1, M(3): 1}),
    Form(5, {M(1, 2, 4): 1, M(1, 2): -1, M(1, 3): 1, M(1, 4): -1,
             M(2): 1, M(3): -1}),
    Form(5, {M(1, 2, 3, 4): 1, M(1, 2, 3): -1, M(2, 3, 4): -1, M(1, 3): 1,
             M(1, 4): -1, M(2, 3): 1, M(2, 4): 1, M(2): -1}),
    Form(5, {M(1, 2, 3, 4): 1, M(1, 2, 3): -1, M(2, 3, 4): -1, M(1, 3): 1,
             M(1, 4): -1, M(2, 3): 1, M(2, 4): 1, M(3): -1}),
    Form(5, {M(1, 2, 4): 1, M(2, 3, 4): 1, M(1, 2): -1, M(1, 3): 1,
             M(1, 4): -1, M(2, 3): -1, M(2, 4): -1, M(2): 1}),
    Form(5, {M(1, 2, 3): 1, M(1, 3, 4): 1, M(3, 4): -1, M(2, 4): 1,
             M(1, 4): -1, M(2, 3): -1, M(1, 3): -1, M(3): 1}),
    Form(5, {M(1, 3, 4): 1, M(1, 2, 4): 1, M(1, 3): -1, M(1, 4): -1,
             M(2, 3): 1, M(2, 4): -1}),
]

TABLE_SYSTEMS = [
    "empty",
    "[1,1]", "[2,2]", "[3,3]",
    "[1,2]", "[2,3]", "[1,3]",
    "[1,1]+[2,2]", "[1,1]+[3,3]", "[2,2]+[3,3]",
    "[1,1]+[2,3]", "[1,2]+[3,3]", "[1,2]+[2,3]",
    "[1,1]+[2,2]+[3,3]",
]

# Blocker sums of the banker form per antichain, re-derived from the blocker
# definition and certified below against the witness-poset limits.
TABLE_VALUES = {
    "empty": 0,
    "[1,1]": 0, "[2,2]": 1, "[3,3]": 0,
    "[1,2]": 1, "[2,3]": 1, "[1,3]": 0,
    "[1,1]+[2,2]": 0, "[1,1]+[3,3]": 1, "[2,2]+[3,3]": 0,
    "[1,1]+[2,3]": 1, "[1,2]+[3,3]": 1, "[1,2]+[2,3]": 2,
    "[1,1]+[2,2]+[3,3]": 0,
}


def test_criterion_01_facet_counts():
    counts = [len(facet_system(n)) for n in range(1, 6)]
    assert counts == [2, 5, 14, 42, 132]
    got = {str(sys_) for sys_, _ in facet_system(3).facets}
    assert got == set(TABLE_SYSTEMS)
    print("criterion 1 PASS: facet counts 2,5,14,42,132; "
          "rank-4 antichain list matches all 14")


def test_criterion_02_banker_table():
    fs = facet_system(3)
    got = {str(sys_): eval_system(sys_, BANKER) for sys_, _ in fs.facets}
    assert got == {k: Fraction(v) for k, v in TABLE_VALUES.items()}

    # certify each tabulated value independently: the normalized witness
    # evaluation converges to the blocker sum, so at N = 16 it must sit
    # within 1/2 of the claimed integer
    for name, value in TABLE_VALUES.items():
        system = IntervalSystem.parse(name, 3)
        (approx,) = limit_check(system, BANKER, [16])
        assert abs(approx - value) < Fraction(1, 2), (name, approx)
    print("criterion 2 PASS: banker evaluations match the 14-entry table, "
          "each value certified by its witness-poset limit")


def test_criterion_03_extreme_counts_and_new_forms():
    counts = [len(extreme_rays(n).rays) for n in range(5)]
    assert counts == [1, 2, 5, 13, 41]

    assert extreme_rays(2).ray_set == ray_set(RANK3_EXTREMES)

    new4 = [e.form for e in extreme_rays(3).rays if e.tag == "new"]
    assert len(new4) == 1
    assert form_to_ray(new4[0]) == form_to_ray(BANKER)

    new5 = [e.form for e in extreme_rays(4).rays if e.tag == "new"]
    assert len(new5) == 7
    assert ray_set(new5) == ray_set(RANK5_NEW)
    print("criterion 3 PASS: extreme counts 1,2,5,13,41; rank-3 rays, the "
          "rank-4 new ray, and the seven rank-5 new rays all match")


@pytest.mark.slow
def test_criterion_04_rank6_enumeration():
    report = extreme_rays(5)
    assert len(report.rays) == 796
    all_rays = ray_set(e.form for e in report.rays)
    tagged = ray_set(e.form for e in report.rays if e.tag != "new")

    # Recompute the derived set without consulting the tags: take every
    # shift image of a degree-5 extreme form and every product of two
    # lower extreme forms that lands on one of the 796 rays.
    by_degree = {
        d: [e.form for e in extreme_rays(d - 1).rays] for d in range(1, 6)
    }
    lifted = {
        form_to_ray(shift(E, k)).coords
        for E in by_degree[5]
        for k in range(5)
    }
    assert lifted <= all_rays
    assert len(lifted) == 116
    products = {
        form_to_ray(convolve(F, G)).coords
        for a in range(1, 6)
        for F in by_degree[a]
        for G in by_degree[6 - a]
    }
    derived = lifted | (products & all_rays)
    assert derived == tagged
    assert len(derived) == 137
    assert len(all_rays) - len(derived) == 659
    assert ray_set(generate_extremes(5)) == derived
    print("criterion 4 PASS: rank 6 has 796 extreme rays; 137 arise from "
          "lower ranks (116 shift images plus 21 further products, "
          "certified by direct reconstruction) and 659 are new")


def brute_flag_number(P: GradedPoset, mask: int, less: set[tuple[str, str]]) -> int:
    """Chain count by direct descent over the selected levels, comparing in
    less, the strict order from order_closure(P)."""
    ranks = [i for i in range(1, P.n + 1) if (mask >> (i - 1)) & 1]
    if not ranks:
        return 1

    def descend(idx: int, prev: str | None) -> int:
        if idx == len(ranks):
            return 1
        total = 0
        for x in P.level(ranks[idx]):
            if prev is None or (prev, x) in less:
                total += descend(idx + 1, x)
        return total

    return descend(0, None)


def all_interval_systems(n: int, max_k: int) -> list[IntervalSystem]:
    from itertools import combinations

    ivs = [(lo, hi) for lo in range(1, n + 1) for hi in range(lo, n + 1)]
    out = []
    for k in range(max_k + 1):
        for combo in combinations(ivs, k):
            out.append(IntervalSystem.of(n, combo))
    return out


def test_criterion_05_witness_flag_numbers():
    checked = 0
    for n in range(1, 5):
        for system in all_interval_systems(n, 3):
            for N in (1, 2, 3):
                P = witness_poset(WitnessSpec(n, system, N))
                less = order_closure(P)
                for mask in range(1 << n):
                    hit = sum(
                        1
                        for iv in system.intervals
                        if any(iv.lo <= r <= iv.hi
                               for r in ranksets.elems_of(mask))
                    )
                    assert brute_flag_number(P, mask, less) == N ** hit
                    checked += 1
    print(f"criterion 5 PASS: {checked} brute-forced witness flag numbers "
          "equal N^(intervals hit) for n <= 4, N <= 3, k <= 3")


def test_criterion_06_limit_convergence():
    system = IntervalSystem.parse("[1,2]", 3)
    target = eval_system(system, BANKER)
    assert target == 1
    values = limit_check(system, BANKER, [2, 4, 8])
    deviations = [abs(v - target) for v in values]
    assert all(d <= Fraction(2, N) for d, N in zip(deviations, (2, 4, 8)))
    assert deviations[1] <= deviations[0] / 2
    assert deviations[2] <= deviations[1] / 2
    print("criterion 6 PASS: normalized witness evaluations for the banker "
          f"form at N=2,4,8 deviate by {deviations} (halving, <= 2/N)")


def renumbered(P: GradedPoset, key) -> GradedPoset:
    """P rebuilt with each level in ascending key order: a new numbering."""
    elements = sorted(((x, P.rank_of(x)) for x in P.elements),
                      key=lambda e: key[e[0]])
    return validate(elements, P.covers)


def check_partition(P: GradedPoset) -> int:
    vec = flag_vector(P)
    classes = partition_classes(P)
    assert set(classes) == set(range(1 << P.n))
    for mask, chains in classes.items():
        assert len(chains) == vec[mask]
    by_chain = {}
    for mask, chains in classes.items():
        for c in chains:
            by_chain.setdefault(c, set()).add(mask)
    count = 0
    for chain in P.maximal_chains():
        system = chain_interval_system(P, chain)
        member_of = by_chain.get(chain, set())
        for mask in range(1 << P.n):
            assert (mask in member_of) == is_blocker(mask, system)
            count += 1
    return count


def test_criterion_07_chain_partition():
    rng = random.Random(20260817)
    posets = [
        witness_poset(WitnessSpec(3, IntervalSystem.parse("[1,2]+[2,3]", 3), 2))
    ]
    for seed in range(200):
        posets.append(random_graded_poset(3 + seed % 3, seed=seed))

    checked = 0
    for P in posets:
        numberings = [P] + [
            renumbered(P, {x: rng.random() for x in P.elements})
            for _ in range(3)
        ]
        for Q in numberings:
            checked += check_partition(Q)
    print(f"criterion 7 PASS: partition classes sized f_S and blocker "
          f"equivalence on 201 posets x 4 numberings ({checked} pairs)")


def test_criterion_08_membership_agreement():
    masks3 = list(range(4))
    grid = 0
    for c0 in range(-2, 3):
        for c1 in range(-2, 3):
            for c2 in range(-2, 3):
                for c3 in range(-2, 3):
                    F = Form(3, dict(zip(masks3, (c0, c1, c2, c3))))
                    assert bool(contains(F)) == contains_by_projection(F)
                    grid += 1
    assert grid == 625

    rng = random.Random(987)
    for _ in range(1000):
        degree = rng.choice((4, 5))
        coeffs = {
            m: rng.randint(-3, 3) for m in range(1 << (degree - 1))
        }
        F = Form(degree, coeffs)
        assert bool(contains(F)) == contains_by_projection(F)
    print("criterion 8 PASS: both membership algorithms agree on the "
          "625-form degree-3 grid and 1000 random degree-4/5 forms")


def test_criterion_09_polarity():
    for n in range(1, 5):
        desc = flag_cone(n)
        count = len(extreme_rays(n).rays)
        assert len(desc.facets) == count
        assert len(desc.generators) == len(facet_system(n))
        rows = desc.facets
        full = (1 << n) - 1
        for _, g in desc.generators:
            active = [
                row for row in rows
                if sum(a * x for a, x in zip(row, g.coords)) == 0
            ]
            assert matrix_rank(active) == full
    print("criterion 9 PASS: facet/extreme counts match under polarity and "
          "every blocker generator is extreme in the polar, ranks 2-5")


def monomials(degree: int) -> list[Form]:
    return [Form(degree, {m: 1}) for m in range(1 << (degree - 1))]


def test_criterion_10_algebra_laws():
    assoc = 0
    for a in range(1, 5):
        for b in range(1, 5):
            for c in range(1, 5):
                if a + b + c > 6:
                    continue
                for F in monomials(a):
                    for G in monomials(b):
                        for H in monomials(c):
                            assert convolve(convolve(F, G), H) == \
                                convolve(F, convolve(G, H))
                            assoc += 1

    compat = 0
    for m in range(1, 6):
        for n in range(1, 7 - m):
            for F in monomials(m):
                for G in monomials(n):
                    FG = convolve(F, G)
                    for k in range(m + n):
                        lhs = project(FG, k)
                        rhs = convolve(F, project(G, k - m))
                        assert lhs == rhs
                        compat += 1
                    for k in range(m + n - 1):
                        lhs = prefix_restriction(FG, k)
                        rhs = convolve(F, prefix_restriction(G, k - m))
                        assert lhs == rhs
                        compat += 1

    relation = 0
    for d in range(1, 7):
        for F in monomials(d):
            base = project(F, 0)
            for m in range(d):
                assert project(F, m) == base - prefix_restriction(F, m - 1)
                relation += 1

    print(f"criterion 10 PASS: associativity ({assoc}), projection and "
          f"restriction compatibility ({compat}), and the projection "
          f"relation ({relation}) hold on all monomials of total degree "
          "<= 6")
