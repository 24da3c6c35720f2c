"""Test oracles: constructions the library itself does not need.

random_graded_poset draws seeded posets for identity checks, order_closure
is the poset order computed apart from GradedPoset.reach, pairwise_witness
builds the witness posets by testing every pair of adjacent-rank elements,
h_form builds the
h-basis forms the algebra tests are phrased in, compress is the
independent oracle for classify's lift rule, and classify_by_factoring is
the tagging rule read off the form by factoring it, which the library
replaced with tags read off the construction.  trailing_ones_factor and
leading_ones_factor split off ones forms by factoring; the library reads
the same convolution exclusion off the integer rays instead.
project_by_terms is the projection read term by term off a form's
coefficients, the oracle for the library's projection on coefficient
vectors.  partition_by_first_atoms tests every (chain, rank set) pair one
rank at a time, with first atoms read off the order and not through
poset.first_atom or its memo, the oracle for the library's chain partition
by blocker families.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import deque
from fractions import Fraction

from typing import Sequence

from flagcone import ranksets
from flagcone.algebra import Form, ZeroForm, factor_once
from flagcone.cone import ExtremeReport, Tag, form_to_ray
from flagcone.poset import (
    GradedPoset, WitnessSpec, next_selected_rank, validate,
)


def random_graded_poset(rank: int, seed: int = 0) -> GradedPoset:
    """Seeded random graded poset: middle widths in [1, 4], every element
    covered both ways, extra covers added with probability one half."""
    if rank < 1:
        raise ValueError(f"rank {rank} < 1")
    rng = random.Random(seed)
    widths = [1] + [rng.randint(1, 4) for _ in range(rank - 1)] + [1]
    levels = [
        tuple(f"e{r}_{i}" for i in range(w)) for r, w in enumerate(widths)
    ]
    elements = [(x, r) for r, lvl in enumerate(levels) for x in lvl]
    covers: set[tuple[str, str]] = set()
    for r in range(rank):
        lower, upper = levels[r], levels[r + 1]
        for y in upper:
            covers.add((rng.choice(lower), y))
        for x in lower:
            if not any((x, y) in covers for y in upper):
                covers.add((x, rng.choice(upper)))
        for x in lower:
            for y in upper:
                if (x, y) not in covers and rng.random() < 0.5:
                    covers.add((x, y))
    return validate(elements, sorted(covers))


def order_closure(P: GradedPoset) -> set[tuple[str, str]]:
    """The strict order of P, as the pairs (x, y) with x < y, found by a
    breadth-first search up the covers from each element."""
    less: set[tuple[str, str]] = set()
    for x in P.elements:
        queue = deque(P.up_covers(x))
        seen = set(queue)
        while queue:
            y = queue.popleft()
            less.add((x, y))
            for z in P.up_covers(y):
                if z not in seen:
                    seen.add(z)
                    queue.append(z)
    return less


def pairwise_witness(spec: WitnessSpec) -> tuple[list[str], list[tuple[str, str]]]:
    """Element names and covers of P(n, I, N), straight from its definition.

    Rank i holds one element per choice of a value in [1, N] for each
    interval containing i, the other coordinates being the wildcard, in
    lexicographic order of the values; every pair on adjacent ranks is
    tested, and it is a cover when each coordinate agrees or one side is
    the wildcard.
    """
    ivs = list(spec.intervals)
    levels = []
    for i in range(spec.n + 2):
        axes = [range(1, spec.N + 1) if iv.lo <= i <= iv.hi else ["*"] for iv in ivs]
        levels.append([
            (f"({i};" + ",".join(map(str, p)) + ")" if ivs else f"({i})", p)
            for p in itertools.product(*axes)
        ])
    elements = [x for level in levels for x, _ in level]
    covers = [
        (x, y)
        for lower, upper in zip(levels, levels[1:])
        for x, p in lower
        for y, q in upper
        if all(a == "*" or b == "*" or a == b for a, b in zip(p, q))
    ]
    return elements, covers


def h_form(degree: int, i: int = 0) -> Form:
    """h_i = f_i - f_empty for i >= 1; h_0 denotes h_empty = f_empty."""
    if i == 0:
        return Form.monomial(degree, 0)
    ranksets.check_mask(1 << (i - 1), degree - 1)
    return Form(degree, {1 << (i - 1): 1, 0: -1})


def compress(F: Form) -> Form:
    """Relabel the used letters onto an initial segment, lowering the degree.

    A form whose support union misses some letter is extreme in its cone
    exactly when its compression is extreme in the smaller cone.
    """
    if F.is_zero:
        raise ZeroForm("compressing the zero form")
    union = 0
    for s in F.support:
        union |= s
    letters = ranksets.elems_of(union)
    pos = {l: i + 1 for i, l in enumerate(letters)}
    return Form(
        len(letters) + 1,
        {
            ranksets.mask_of(pos[e] for e in ranksets.elems_of(s)): c
            for s, c in F.terms()
        },
    )


def project_by_terms(F: Form, m: int) -> Form | Fraction:
    """Projection with cutoff m, one term at a time.

    A term holding the top letter n drops it; a term without it survives
    exactly when m <= 0 or its support meets [m, n-1].  Degree-1 forms
    project to their scalar coefficient.
    """
    n = F.degree - 1
    if n == 0:
        return F.coeff(0)
    top = 1 << (n - 1)
    window = ranksets.interval_mask(m, n - 1) if 1 <= m <= n - 1 else 0
    out: dict[int, Fraction] = {}
    for s, c in F.terms():
        if s & top:
            key = s ^ top
            out[key] = out.get(key, Fraction(0)) + c
        elif m <= 0 or s & window:
            out[s] = out.get(s, Fraction(0)) + c
    return Form(n, out)


def partition_by_first_atoms(P: GradedPoset) -> dict[int, tuple[tuple[str, ...], ...]]:
    """The classes F_S straight from their definition.

    For every maximal chain and every rank set S, test at each rank i that
    the chain's rank-i element is the first atom of the interval from its
    predecessor up to the chain element at the next S-selected rank, first
    atoms taken as the least-positioned cover of the predecessor below the
    target.
    """
    n = P.n

    @functools.cache
    def phi(p: str, q: str) -> str:
        return min((z for z in P.up_covers(p) if P.le(z, q)), key=P.position)

    out: dict[int, list[tuple[str, ...]]] = {m: [] for m in range(1 << n)}
    for chain in P.maximal_chains():
        for mask in range(1 << n):
            ok = True
            for i in range(1, n + 1):
                j = next_selected_rank(mask, i, n)
                if chain[i] != phi(chain[i - 1], chain[j]):
                    ok = False
                    break
            if ok:
                out[mask].append(chain)
    return {m: tuple(cs) for m, cs in out.items()}


def trailing_ones_factor(F: Form) -> tuple[Form | Fraction, int]:
    """Split F = F' * f(k)_empty with k maximal; k = 0 returns F itself.

    The split exists exactly when every support set has the same largest
    letter; a form supported on the empty set alone is (coefficient,
    degree).
    """
    if F.is_zero:
        raise ZeroForm("factoring the zero form")
    maxes = {s.bit_length() for s in F.support}
    if len(maxes) != 1:
        return F, 0
    m = maxes.pop()
    if m == 0:
        return F.coeff(0), F.degree
    strip = ~(1 << (m - 1))
    return Form(m, {s & strip: c for s, c in F.terms()}), F.degree - m


def leading_ones_factor(F: Form) -> tuple[Form | Fraction, int]:
    """Split F = f(k)_empty * F' with k maximal; mirror of the trailing case."""
    if F.is_zero:
        raise ZeroForm("factoring the zero form")
    if F.support == frozenset({0}):
        return F.coeff(0), F.degree
    mins = {(s & -s).bit_length() for s in F.support}
    if len(mins) != 1 or 0 in F.support:
        return F, 0
    k = mins.pop()
    return Form(F.degree - k, {s >> k: c for s, c in F.terms()}), k


def classify_by_factoring(F: Form, lower: Sequence[ExtremeReport]) -> Tag:
    """Provenance of an extreme form, recovered from the form alone.

    `lift` when the union of the support sets misses a letter, else
    `convolution` when factor_once splits the form at its smallest junction
    and both factors are lower-rank extremes up to scaling, else `new`.
    Factor matching tries the factorization as returned and with both
    factors negated; the two flips cancel, so either joint assignment
    reconstructs F.
    """
    union = 0
    for s, _ in F.terms():
        union |= s
    if union != (1 << F.degree - 1) - 1:
        return "lift"
    split = factor_once(F)
    if split is not None:
        by_degree = {rep.n + 1: rep.ray_set for rep in lower}

        def matches(G: Form) -> bool:
            rays = by_degree.get(G.degree)
            return rays is not None and form_to_ray(G).coords in rays

        F1, F2 = split
        for sign in (1, -1):
            if matches(F1 * sign) and matches(F2 * sign):
                return "convolution"
    return "new"
