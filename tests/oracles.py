"""Test oracles: constructions the library itself does not need.

random_graded_poset draws seeded posets for identity checks, order_closure
is the poset order computed apart from GradedPoset.reach, h_form builds the
h-basis forms the algebra tests are phrased in, and compress is the
independent oracle for classify's lift rule.
"""

from __future__ import annotations

import random
from collections import deque

from flagcone import ranksets
from flagcone.algebra import Form, ZeroForm
from flagcone.poset import GradedPoset, validate


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
