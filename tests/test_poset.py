"""Graded posets: validation, flag numbers, witnesses, duality, partitions."""

from __future__ import annotations

import itertools
import random
import re
import time

import pytest

from flagcone import ranksets
from flagcone.cone import facet_system
from flagcone.intervals import (
    MAX_AMBIENT, AmbientTooLarge, Interval, IntervalSystem, blockers, is_blocker,
)
from flagcone.poset import (
    GradedPoset,
    NotComparable,
    PosetValidationError,
    WitnessSpec,
    chain_interval_system,
    dual,
    first_atom,
    flag_number,
    flag_vector,
    format_poset,
    next_selected_rank,
    parse_poset,
    partition_classes,
    reflect_mask,
    validate,
    witness_poset,
)

from oracles import (
    order_closure, pairwise_witness, partition_by_first_atoms, random_graded_poset,
)

DIAMOND = (
    [("0", 0), ("a", 1), ("b", 1), ("1", 2)],
    [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")],
)


@pytest.fixture
def diamond() -> GradedPoset:
    return validate(*DIAMOND)


@pytest.fixture
def fig_poset() -> GradedPoset:
    """Witness poset P(3, {[1,2],[2,3]}, 2): ten elements, rank 4."""
    sys_ = IntervalSystem.of(3, [(1, 2), (2, 3)])
    return witness_poset(WitnessSpec(3, sys_, 2))


def brute_flag_number(P: GradedPoset, mask: int, less: set[tuple[str, str]]) -> int:
    """Oracle: enumerate tuples over the selected levels, test comparability
    in less, the strict order from order_closure(P)."""
    ranks = ranksets.elems_of(mask)
    if not ranks:
        return 1
    total = 0
    for combo in itertools.product(*(P.level(r) for r in ranks)):
        if all((a, b) in less for a, b in zip(combo, combo[1:])):
            total += 1
    return total


def sample_numbering(P: GradedPoset, rng: random.Random) -> GradedPoset:
    """P rebuilt with each level randomly permuted: another numbering."""
    elements = []
    for r in range(P.rank + 1):
        order = list(P.level(r))
        rng.shuffle(order)
        elements += [(x, r) for x in order]
    return validate(elements, P.covers)


def structure(P: GradedPoset):
    """Levels, then every element with its up and down covers, in order."""
    return (tuple(P.level(r) for r in range(P.rank + 1)),
            tuple((x, P.up_covers(x), P.down_covers(x)) for x in P.elements))


def seeded_witnesses(n: int, count: int):
    """count witnesses of rank n + 1, k <= 3 intervals, N <= 3."""
    rng = random.Random(n + 70)
    every = [(lo, hi) for lo in range(1, n + 1) for hi in range(lo, n + 1)]
    for _ in range(count):
        sys_ = IntervalSystem.of(n, rng.sample(every, rng.randint(0, min(3, len(every)))))
        yield witness_poset(WitnessSpec(n, sys_, rng.randint(1, 3)))


class TestBuiltOnce:
    """witness_poset and dual build their posets without validate(); the
    maps they derive are the ones validate derives from the same covers."""

    @staticmethod
    def assert_validate_agrees(P: GradedPoset, rng: random.Random) -> None:
        # Covers fed in shuffled order still come out in position order.
        covers = list(P.covers)
        rng.shuffle(covers)
        Q = validate([(x, P.rank_of(x)) for x in P.elements], covers)
        assert structure(Q) == structure(P)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_witness_matches_validate(self, n):
        for P in seeded_witnesses(n, 6):
            self.assert_validate_agrees(P, random.Random(n))

    def test_wide_witness_matches_validate(self):
        P = witness_poset(WitnessSpec(2, IntervalSystem.parse("[1,2]+[1,1]", 2), 63))
        assert len(P) == 4034 and len(P.up_covers(P.bottom)) == 63**2
        self.assert_validate_agrees(P, random.Random(0))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_dual_of_dual(self, n):
        posets = [*seeded_witnesses(n, 4), random_graded_poset(n + 1, seed=n + 80)]
        for P in posets:
            Q = dual(P)
            assert [Q.level(r) for r in range(Q.rank + 1)] == [
                P.level(P.rank - r) for r in range(P.rank + 1)]
            assert all(Q.up_covers(x) == P.down_covers(x)
                       and Q.down_covers(x) == P.up_covers(x) for x in P.elements)
            assert structure(dual(Q)) == structure(P)


class TestValidate:
    def test_diamond(self, diamond):
        assert diamond.rank == 2
        assert diamond.bottom == "0"
        assert diamond.top == "1"
        assert diamond.level(1) == ("a", "b")
        assert diamond.le("0", "1")
        assert not diamond.le("a", "b")

    def test_duplicate_element(self):
        with pytest.raises(PosetValidationError) as e:
            validate([("x", 0), ("x", 1)], [])
        assert e.value.code == "DuplicateElement"

    def test_no_unique_bottom(self):
        with pytest.raises(PosetValidationError) as e:
            validate(
                [("a", 0), ("b", 0), ("1", 1)], [("a", "1"), ("b", "1")]
            )
        assert e.value.code == "NoUniqueBottom"

    def test_no_unique_top(self):
        with pytest.raises(PosetValidationError) as e:
            validate(
                [("0", 0), ("a", 1), ("b", 1)], [("0", "a"), ("0", "b")]
            )
        assert e.value.code == "NoUniqueTop"

    def test_bad_cover_rank(self):
        with pytest.raises(PosetValidationError) as e:
            validate(
                [("0", 0), ("a", 1), ("1", 2)],
                [("0", "a"), ("a", "1"), ("0", "1")],
            )
        assert e.value.code == "BadCoverRank"

    def test_dangling_element(self):
        with pytest.raises(PosetValidationError) as e:
            validate(
                [("0", 0), ("a", 1), ("b", 1), ("1", 2)],
                [("0", "a"), ("a", "1"), ("b", "1")],
            )
        assert e.value.code == "DanglingElement"

    def test_unknown_element(self):
        with pytest.raises(PosetValidationError) as e:
            validate([("0", 0), ("1", 1)], [("0", "z")])
        assert e.value.code == "UnknownElement"

    def test_trivial_poset(self):
        with pytest.raises(PosetValidationError):
            validate([("x", 0)], [])

    @pytest.mark.parametrize("elements, covers, code, message", [
        ([("b", 3), ("a", 0)], [], "DanglingElement", "'b' has no lower cover"),
        ([("a", 0), ("b", 3)], [], "DanglingElement", "'a' has no upper cover"),
        ([("a", 1), ("b", 3)], [], "NoUniqueBottom", "0 elements at rank 0"),
        ([("a", 0), ("b", 3), ("c", 3)], [], "NoUniqueTop", "2 elements at top rank 3"),
        ([("a", 0), ("b", 1), ("c", 3)], [("a", "z")], "UnknownElement",
         "cover ('a', 'z') uses an undeclared element"),
        ([("a", 0), ("b", 1), ("c", 3)], [("a", "b"), ("b", "c")], "BadCoverRank",
         "cover ('b', 'c') joins ranks 1 and 3"),
    ])
    def test_empty_level_keeps_its_error(self, elements, covers, code, message):
        with pytest.raises(PosetValidationError, match=f"^{re.escape(message)}$") as e:
            validate(elements, covers)
        assert e.value.code == code

    def test_huge_rank_is_refused_before_the_levels_are_built(self):
        # One level per rank used to be allocated first: 323 MB at rank
        # 4,000,000, and memory exhausted well before rank 10**9.
        start = time.perf_counter()
        with pytest.raises(PosetValidationError, match="^'a' has no upper cover$") as e:
            validate([("a", 0), ("b", 10**9)], [])
        assert e.value.code == "DanglingElement"
        assert time.perf_counter() - start < 1

    def test_rank_one_chain(self):
        P = validate([("0", 0), ("1", 1)], [("0", "1")])
        assert P.rank == 1
        assert flag_vector(P) == {0: 1}

    @pytest.mark.parametrize("enumerate_rank_sets", [flag_vector, partition_classes])
    def test_refuses_too_many_rank_sets(self, enumerate_rank_sets):
        # A chain of rank MAX_AMBIENT + 2 has 2**(MAX_AMBIENT + 1) rank sets.
        rank = MAX_AMBIENT + 2
        P = validate([(str(r), r) for r in range(rank + 1)],
                     [(str(r), str(r + 1)) for r in range(rank)])
        with pytest.raises(AmbientTooLarge, match=f"^ambient {rank - 1} > {MAX_AMBIENT}$"):
            enumerate_rank_sets(P)


def order_posets():
    for rank in range(1, 6):
        for seed in range(20):
            yield f"random rank {rank} seed {seed}", random_graded_poset(rank, seed=seed)
    for sys_, _ in facet_system(3).facets:
        for N in (1, 2):
            yield f"witness {sys_} N={N}", witness_poset(WitnessSpec(3, sys_, N))


class TestOrder:
    def test_matches_order_closure(self):
        # All pairs: x == y, equal ranks, and the bottom and top against
        # every element are among them.
        for name, P in order_posets():
            less = order_closure(P)
            assert (P.bottom, P.top) in less, name
            for x in P.elements:
                for y in P.elements:
                    assert P.lt(x, y) == ((x, y) in less), (name, x, y)
                    assert P.le(x, y) == (x == y or (x, y) in less), (name, x, y)


class TestFlagNumbers:
    def test_diamond(self, diamond):
        assert flag_number(diamond, 0) == 1
        assert flag_number(diamond, 0b1) == 2

    def test_fig_poset_vector(self, fig_poset):
        assert len(fig_poset) == 10
        by_set = {
            (): 1, (1,): 2, (2,): 4, (3,): 2,
            (1, 2): 4, (1, 3): 4, (2, 3): 4, (1, 2, 3): 4,
        }
        expected = [by_set[ranksets.elems_of(m)] for m in range(8)]
        assert [flag_number(fig_poset, m) for m in range(8)] == expected
        assert sum(flag_vector(fig_poset).values()) == 25

    def test_out_of_range(self, diamond):
        with pytest.raises(ranksets.RankSetOutOfRange):
            flag_number(diamond, 0b10)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        P = random_graded_poset(rng.randint(2, 5), seed=seed)
        less = order_closure(P)
        for mask in range(1 << P.n):
            assert flag_number(P, mask) == brute_flag_number(P, mask, less)

    def test_chain_poset(self):
        P = random_graded_poset(1, seed=3)
        assert flag_vector(P) == {0: 1}


class TestWitness:
    def test_fig_poset_structure(self, fig_poset):
        assert fig_poset.rank == 4
        assert [len(fig_poset.level(r)) for r in range(5)] == [1, 2, 4, 2, 1]
        assert len(fig_poset.covers) == 12
        assert fig_poset.level(1) == ("(1;1,*)", "(1;2,*)")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WitnessSpec(0, IntervalSystem.empty(0), 2)
        with pytest.raises(ValueError):
            WitnessSpec(2, IntervalSystem.empty(2), 0)
        with pytest.raises(ValueError):
            WitnessSpec(2, IntervalSystem.empty(3), 2)

    def test_no_intervals_gives_chain(self):
        P = witness_poset(WitnessSpec(3, IntervalSystem.empty(3), 5))
        assert len(P) == 5
        assert flag_vector(P) == {m: 1 for m in range(8)}

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_flag_numbers_are_powers(self, N):
        sys_ = IntervalSystem.of(3, [(1, 2), (2, 3)])
        spec = WitnessSpec(3, sys_, N)
        P = witness_poset(spec)
        for mask in range(8):
            assert flag_number(P, mask) == spec.predicted_flag_number(mask)

    @pytest.mark.parametrize("n, intervals, N", [
        (3, "[1,2]+[2,3]", 1),
        (3, "empty", 3),
        (1, "empty", 1),
        (1, "[1,1]", 3),
        (3, "[1,2]+[2,3]", 3),
        (4, "[1,4]+[2,3]", 2),
        (4, "[1,2]+[2,3]+[3,4]", 2),
        (4, "[1,1]+[3,4]", 3),
        (2, "[1,2]+[1,1]", 4),
    ])
    def test_covers_match_pairwise_rule(self, n, intervals, N):
        # Covers generated from each element's pattern are the pairs the
        # definition joins, in the same order.
        spec = WitnessSpec(n, IntervalSystem.parse(intervals, n), N)
        P = witness_poset(spec)
        elements, covers = pairwise_witness(spec)
        assert P.elements == tuple(elements)
        assert P.covers == tuple(covers)

    def test_overlapping_and_nested(self):
        # nested intervals exercise independent coordinates
        sys_ = IntervalSystem.of(4, [(1, 4), (2, 3)])
        spec = WitnessSpec(4, sys_, 2)
        P = witness_poset(spec)
        for mask in range(16):
            assert flag_number(P, mask) == spec.predicted_flag_number(mask)


class TestDual:
    def test_reflect_mask(self):
        assert reflect_mask(0b001, 3) == 0b100
        assert reflect_mask(0b101, 3) == 0b101
        assert reflect_mask(0, 3) == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_flag_duality(self, seed):
        P = random_graded_poset(random.Random(seed).randint(2, 5), seed=seed)
        Q = dual(P)
        for mask in range(1 << P.n):
            assert flag_number(Q, mask) == flag_number(P, reflect_mask(mask, P.n))

    def test_involution(self, fig_poset):
        Q = dual(dual(fig_poset))
        assert Q.elements == fig_poset.elements
        assert structure(Q) == structure(fig_poset)


class TestNextSelectedRank:
    def test_examples(self):
        s = ranksets.mask_of([2, 4])
        assert next_selected_rank(s, 1, 4) == 2
        assert next_selected_rank(s, 3, 4) == 4
        assert next_selected_rank(s, 5, 4) == 5
        assert next_selected_rank(0, 1, 4) == 5

    def test_bad_args(self):
        with pytest.raises(ValueError):
            next_selected_rank(0, 0, 3)
        with pytest.raises(ranksets.RankSetOutOfRange):
            next_selected_rank(0b1000, 1, 3)


class TestFirstAtom:
    def test_fig_first_atom(self, fig_poset):
        assert first_atom(fig_poset, fig_poset.bottom, fig_poset.top) == "(1;1,*)"

    def test_cover_interval(self, fig_poset):
        assert first_atom(fig_poset, "(1;1,*)", "(2;1,2)") == "(2;1,2)"

    def test_not_comparable(self, fig_poset):
        with pytest.raises(NotComparable):
            first_atom(fig_poset, "(1;1,*)", "(1;2,*)")
        with pytest.raises(NotComparable):
            first_atom(fig_poset, fig_poset.bottom, fig_poset.bottom)

    def test_not_comparable_after_memo_fills(self, fig_poset):
        # Only answers are memoized, so a bad pair raises on every call.
        partition_classes(fig_poset)
        assert first_atom(fig_poset, fig_poset.bottom, fig_poset.top) == "(1;1,*)"
        for _ in range(2):
            with pytest.raises(NotComparable):
                first_atom(fig_poset, "(1;1,*)", "(1;2,*)")
            with pytest.raises(NotComparable):
                first_atom(fig_poset, fig_poset.top, fig_poset.bottom)

    def test_numbering_override(self, fig_poset):
        P = validate(
            [(x, r) for r in range(fig_poset.rank + 1)
             for x in reversed(fig_poset.level(r))],
            fig_poset.covers,
        )
        assert first_atom(P, P.bottom, P.top) == "(1;2,*)"
        assert first_atom(fig_poset, fig_poset.bottom, fig_poset.top) == "(1;1,*)"

    @pytest.mark.parametrize("seed", range(6))
    def test_covers_given_against_position_order(self, seed):
        # Covers listed in reverse or shuffled still give the atom of least
        # position, found here from the order closure alone.
        rng = random.Random(seed)
        P = random_graded_poset(rng.randint(2, 5), seed=seed + 600)
        less = order_closure(P)
        covers = list(P.covers)
        for order in (covers[::-1], rng.sample(covers, len(covers))):
            Q = validate([(x, P.rank_of(x)) for x in P.elements], order)
            for p, q in less:
                atoms = [z for z in Q.up_covers(p) if z == q or (z, q) in less]
                assert first_atom(Q, p, q) == min(atoms, key=Q.position)

    @pytest.mark.parametrize("seed", range(4))
    def test_not_comparable_pairs(self, fig_poset, seed):
        # p == q, q below p and incomparable pairs all raise, before and
        # after partition_classes fills the memo.
        rank = random.Random(seed).randint(2, 5)
        kinds = set()
        for P in (fig_poset, random_graded_poset(rank, seed=seed + 700)):
            less = order_closure(P)
            bad = [(p, q) for p in P.elements for q in P.elements
                   if (p, q) not in less]
            kinds |= {"equal" if p == q else "below" if (q, p) in less
                      else "incomparable" for p, q in bad}
            for fill in (lambda: None, lambda: partition_classes(P)):
                fill()
                for p, q in bad:
                    with pytest.raises(NotComparable):
                        first_atom(P, p, q)
        assert kinds == {"equal", "below", "incomparable"}


class TestChainPartition:
    def test_lex_first_chain_has_empty_system(self, fig_poset):
        chain = (fig_poset.bottom, "(1;1,*)", "(2;1,1)", "(3;*,1)", fig_poset.top)
        assert chain_interval_system(fig_poset, chain) == IntervalSystem.empty(3)

    def test_second_branch_chain(self, fig_poset):
        chain = (fig_poset.bottom, "(1;2,*)", "(2;2,1)", "(3;*,1)", fig_poset.top)
        assert chain_interval_system(fig_poset, chain) == IntervalSystem.of(
            3, [(1, 2)]
        )

    def test_bad_chain(self, fig_poset):
        with pytest.raises(ValueError):
            chain_interval_system(fig_poset, (fig_poset.bottom, fig_poset.top))

    @pytest.mark.parametrize("middle, message", [
        # (1;1,*) lies below (2;1,1) and (2;1,2) only.
        (("(1;1,*)", "(2;2,1)", "(3;*,1)"), "is not a cover"),
        (("(1;1,*)", "(1;2,*)", "(3;*,1)"), "is not a cover"),
        (("(1;1,*)", "(2;1,1)", "(3;*,9)"), "is not an element"),
    ], ids=["non-cover step", "repeated rank", "unknown element"])
    def test_bad_chain_of_the_right_length(self, fig_poset, middle, message):
        chain = (fig_poset.bottom, *middle, fig_poset.top)
        # Before and after the reach bits the check reads are memoized.
        for fill in (lambda: None, lambda: partition_classes(fig_poset)):
            fill()
            with pytest.raises(ValueError, match=message):
                chain_interval_system(fig_poset, chain)

    def test_class_sizes_are_flag_numbers(self, fig_poset):
        classes = partition_classes(fig_poset)
        for mask, chains in classes.items():
            assert len(chains) == flag_number(fig_poset, mask)
        assert sum(len(c) for c in classes.values()) == 25

    def test_blocker_criterion(self, fig_poset):
        """Membership in F_S is blocking of the chain's interval system."""
        classes = partition_classes(fig_poset)
        for chain in fig_poset.maximal_chains():
            system = chain_interval_system(fig_poset, chain)
            for mask in range(8):
                expected = is_blocker(mask, system)
                assert (chain in classes[mask]) == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_partition_under_random_numberings(self, seed):
        rng = random.Random(seed)
        P = random_graded_poset(rng.randint(2, 4), seed=seed + 100)
        for _ in range(3):
            Q = sample_numbering(P, rng)
            classes = partition_classes(Q)
            for mask in range(1 << P.n):
                assert len(classes[mask]) == flag_number(P, mask)
            for chain in Q.maximal_chains():
                system = chain_interval_system(Q, chain)
                members = blockers(system).members
                for mask in range(1 << P.n):
                    assert (chain in classes[mask]) == (mask in members)

    @pytest.mark.parametrize("seed", [*range(12), "rank1", "diamond"])
    def test_matches_first_atom_oracle(self, seed):
        # Equal dicts of equal tuples: the same classes, chains in the
        # same order.  The rank-1 poset has n = 0 and the one class {}.
        rng = random.Random(seed)
        if seed == "rank1":
            P = validate([("0", 0), ("1", 1)], [("0", "1")])
            assert partition_classes(P) == {0: (("0", "1"),)}
        elif seed == "diamond":
            P = validate(*DIAMOND)
        else:
            P = random_graded_poset(rng.randint(2, 5), seed=seed + 300)
        for Q in [P] + [sample_numbering(P, rng) for _ in range(3)]:
            assert partition_classes(Q) == partition_by_first_atoms(Q)

    @staticmethod
    def assert_passing_ranks_are_intervals(P: GradedPoset) -> None:
        # The lemma partition_classes rests on: at rank i the j in [i, n+1]
        # whose first-atom test passes are exactly [i, psi_i].
        n = P.n
        for chain in P.maximal_chains():
            psi = {iv.lo: iv.hi for iv in chain_interval_system(P, chain)}
            for i in range(1, n + 1):
                passing = [j for j in range(i, n + 2)
                           if first_atom(P, chain[i - 1], chain[j]) == chain[i]]
                assert passing == list(range(i, psi.get(i, n + 1) + 1))

    @pytest.mark.parametrize("seed", range(8))
    def test_passing_ranks_form_an_interval(self, seed):
        rng = random.Random(seed)
        P = random_graded_poset(rng.randint(2, 5), seed=seed + 500)
        for Q in [P] + [sample_numbering(P, rng) for _ in range(2)]:
            self.assert_passing_ranks_are_intervals(Q)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_witness_passing_ranks_form_an_interval(self, n):
        rng = random.Random(n + 40)
        every = [(lo, hi) for lo in range(1, n + 1) for hi in range(lo, n + 1)]
        for _ in range(6):
            sys_ = IntervalSystem.of(n, rng.sample(every, rng.randint(0, min(3, len(every)))))
            self.assert_passing_ranks_are_intervals(
                witness_poset(WitnessSpec(n, sys_, rng.randint(1, 3))))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_witnesses_match_first_atom_oracle(self, n):
        rng = random.Random(n)
        every = [(lo, hi) for lo in range(1, n + 1) for hi in range(lo, n + 1)]
        for _ in range(8):
            k = rng.randint(0, min(3, len(every)))
            sys_ = IntervalSystem.of(n, rng.sample(every, k))
            P = witness_poset(WitnessSpec(n, sys_, rng.randint(1, 3)))
            assert partition_classes(P) == partition_by_first_atoms(P), sys_

    def test_rank7_witness_with_4096_chains(self):
        spec = WitnessSpec(6, IntervalSystem.parse("[1,2]+[3,4]+[5,6]", 6), 16)
        classes = partition_classes(witness_poset(spec))
        for mask, chains in classes.items():
            assert len(chains) == spec.predicted_flag_number(mask)
        assert len(classes[(1 << 6) - 1]) == 4096


class TestRandomPoset:
    def test_deterministic(self):
        a = random_graded_poset(4, seed=7)
        b = random_graded_poset(4, seed=7)
        assert a.elements == b.elements
        assert a.covers == b.covers

    def test_seed_changes_poset(self):
        outs = {random_graded_poset(4, seed=s).covers for s in range(6)}
        assert len(outs) > 1

    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
    def test_valid_and_bounded(self, rank):
        P = random_graded_poset(rank, seed=rank)
        assert P.rank == rank
        for r in range(1, rank):
            assert 1 <= len(P.level(r)) <= 4


class TestTextFormat:
    def test_roundtrip(self, fig_poset):
        text = format_poset(fig_poset)
        Q = parse_poset(text)
        assert Q.elements == fig_poset.elements
        assert Q.covers == fig_poset.covers
        assert format_poset(Q) == text

    def test_parse_with_comments(self):
        text = """
# a diamond
poset rank=2
elem 0 0
elem a 1
elem b 1  # middle
elem 1 2
cover 0 a
cover 0 b
cover a 1
cover b 1
"""
        P = parse_poset(text)
        assert P.rank == 2
        assert flag_number(P, 1) == 2

    def test_header_mismatch(self):
        text = "poset rank=3\nelem 0 0\nelem 1 1\ncover 0 1\n"
        with pytest.raises(PosetValidationError):
            parse_poset(text)

    @pytest.mark.parametrize("header", [
        "poset rank=+0_1", "poset rank=\u0661", "poset rank=-1", "poset rank=1 1",
    ])
    def test_header_rank_is_ascii_digits(self, header):
        text = f"{header}\nelem a 0\nelem b 1\ncover a b\n"
        with pytest.raises(ValueError, match=re.escape(f"bad header {header!r}")):
            parse_poset(text)

    @pytest.mark.parametrize("rank", ["0_1", "+1", "\u0661", "1.0", "-1"])
    def test_elem_rank_is_ascii_digits(self, rank):
        # int() would read the first three as rank 1.
        line = f"elem b {rank}"
        with pytest.raises(ValueError, match=re.escape(f"bad elem line {line!r}")):
            parse_poset(f"poset rank=1\nelem a 0\n{line}\ncover a b\n")

    def test_missing_header(self):
        with pytest.raises(ValueError):
            parse_poset("elem 0 0\n")

    def test_header_after_a_record_is_refused(self):
        # This file used to parse as the rank-1 chain.
        text = "elem a 0\nelem b 1\ncover a b\nposet rank=1\n"
        with pytest.raises(ValueError, match=re.escape("line 'elem a 0' before poset header")):
            parse_poset(text)

