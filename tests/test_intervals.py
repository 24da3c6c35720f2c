"""Interval systems, blockers, antichain enumeration."""

from __future__ import annotations

import gc
import itertools
import re

import pytest
from hypothesis import given, strategies as st

from flagcone import ranksets
from flagcone.intervals import (
    AmbientTooLarge,
    Interval,
    IntervalOutOfRange,
    IntervalSystem,
    blockers,
    catalan,
    enumerate_antichains,
    is_blocker,
)


def minimal_intervals(system: IntervalSystem) -> IntervalSystem:
    """Oracle: the antichain of containment-minimal member intervals."""
    ivs = system.intervals
    keep = [a for a in ivs if not any(b != a and a.contains(b) for b in ivs)]
    return IntervalSystem.of(system.ambient_n, keep)


def all_intervals(n: int) -> list[Interval]:
    return [Interval(lo, hi) for lo in range(1, n + 1) for hi in range(lo, n + 1)]


def all_systems(n: int, max_k: int | None = None) -> list[IntervalSystem]:
    ivs = all_intervals(n)
    out = []
    for k in range(len(ivs) + 1):
        if max_k is not None and k > max_k:
            break
        for combo in itertools.combinations(ivs, k):
            out.append(IntervalSystem.of(n, combo))
    return out


def brute_blockers(system: IntervalSystem) -> frozenset[int]:
    """Independent implementation: test every subset against every interval."""
    n = system.ambient_n
    out = set()
    for s in range(1 << n):
        elems = set(ranksets.elems_of(s))
        if all(any(iv.lo <= e <= iv.hi for e in elems) for iv in system.intervals):
            out.add(s)
    return frozenset(out)


def systems(n_max: int = 4) -> st.SearchStrategy[IntervalSystem]:
    def build(n, pairs):
        ivs = [Interval(min(a, b), max(a, b)) for a, b in pairs]
        return IntervalSystem.of(n, ivs)

    return st.integers(min_value=1, max_value=n_max).flatmap(
        lambda n: st.builds(
            build,
            st.just(n),
            st.lists(
                st.tuples(st.integers(1, n), st.integers(1, n)), max_size=5
            ),
        )
    )


class TestInterval:
    def test_validation(self):
        with pytest.raises(IntervalOutOfRange):
            Interval(2, 1)
        with pytest.raises(IntervalOutOfRange):
            Interval(0, 3)
        with pytest.raises(IntervalOutOfRange):
            IntervalSystem.of(3, [(2, 4)])
        with pytest.raises(IntervalOutOfRange):
            IntervalSystem(3, frozenset({Interval(1, 1), Interval(2, 4)}))

    def test_mask(self):
        assert Interval(2, 4).mask == 0b1110
        assert Interval(1, 1).mask == 0b1

    def test_str_parse_roundtrip(self):
        sys_ = IntervalSystem.of(3, [(2, 3), (1, 2)])
        assert str(sys_) == "[1,2]+[2,3]"
        assert IntervalSystem.parse("[1,2]+[2,3]", 3) == sys_
        assert IntervalSystem.parse("empty", 3) == IntervalSystem.empty(3)
        assert str(IntervalSystem.empty(5)) == "empty"

    @pytest.mark.parametrize(
        "text", ["[1,2,3]", "[1]", "[1,]", "[1_0,12]", "[\u0661,2]", "[-1,2]",
                 "[+1,2]", "[1,2]+", "+[1,2]", "[1,2]+[2,+3]"]
    )
    def test_parse_rejects_bad_literal(self, text):
        # Only ASCII digits: int() alone would read "1_0" as 10 and an
        # Arabic-Indic one as 1.  The message names the whole literal, not
        # the `+`-separated part at fault.
        with pytest.raises(ValueError, match=re.escape(f"bad interval literal {text!r}")):
            IntervalSystem.parse(text, 3)

    def test_parse_allows_spaces_around_digits(self):
        assert IntervalSystem.parse(" [ 1 , 2 ]+[2, 3] ", 3) == IntervalSystem.of(3, [(1, 2), (2, 3)])


class TestCanonicalForm:
    @given(systems(), st.randoms(use_true_random=False))
    def test_equal_however_built(self, sys_, rnd):
        n, ivs = sys_.ambient_n, list(sys_.intervals)
        assert all(a < b for a, b in zip(ivs, ivs[1:]))
        doubled = ivs + ivs
        rnd.shuffle(doubled)
        for other in (
            IntervalSystem.of(n, doubled),
            IntervalSystem.of(n, [(iv.lo, iv.hi) for iv in reversed(ivs)]),
            IntervalSystem(n, frozenset(ivs)),
            IntervalSystem(n, doubled),
            IntervalSystem.parse(str(sys_), n),
        ):
            assert other == sys_
            assert other.intervals == sys_.intervals
            assert repr(other) == repr(sys_)
            assert hash(other) == hash(sys_)
            assert list(other) == ivs


class TestBlockers:
    def test_empty_system_blocked_by_everything(self):
        sys_ = IntervalSystem.empty(3)
        fam = blockers(sys_)
        assert fam.members == frozenset(range(8))
        assert is_blocker(0, sys_)

    def test_example_pair_on_three(self):
        # {[1,2],[2,3]} on [1,3]: blockers are {2} and the four sets
        # containing a point of each interval.
        sys_ = IntervalSystem.of(3, [(1, 2), (2, 3)])
        fam = blockers(sys_)
        expected = {
            ranksets.mask_of(s)
            for s in [(2,), (1, 2), (2, 3), (1, 3), (1, 2, 3)]
        }
        assert fam.members == expected

    def test_singletons_force_containment(self):
        # {[1],[2],[3]}: only the full set meets all three.
        sys_ = IntervalSystem.of(3, [(1, 1), (2, 2), (3, 3)])
        assert blockers(sys_).members == {0b111}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_brute_force(self, n):
        for sys_ in all_systems(n, max_k=3):
            assert blockers(sys_).members == brute_blockers(sys_)

    def test_upward_closed(self):
        for sys_ in all_systems(3):
            fam = blockers(sys_)
            for s in fam.members:
                for t in range(8):
                    if t & s == s:
                        assert t in fam

    def test_ambient_guard(self):
        with pytest.raises(AmbientTooLarge):
            blockers(IntervalSystem.empty(21))

    def test_out_of_range_mask(self):
        with pytest.raises(ranksets.RankSetOutOfRange):
            is_blocker(0b1000, IntervalSystem.empty(3))


class TestDualIdeal:
    @given(systems())
    def test_blockers_of_blockers(self, sys_):
        """Blocking every blocker means containing some interval whole."""
        n = sys_.ambient_n
        fam = blockers(sys_).members  # never empty: [1,n] blocks anything
        bb = frozenset(t for t in range(1 << n) if all(t & s for s in fam))
        masks = [iv.mask for iv in sys_.intervals]
        assert bb == {t for t in range(1 << n) if any(t & m == m for m in masks)}


class TestMinimalIntervals:
    def test_removes_containing_intervals(self):
        sys_ = IntervalSystem.of(4, [(1, 4), (2, 3), (2, 4)])
        assert minimal_intervals(sys_) == IntervalSystem.of(4, [(2, 3)])

    @given(systems())
    def test_idempotent_and_blocker_preserving(self, sys_):
        m = minimal_intervals(sys_)
        assert minimal_intervals(m) == m
        assert blockers(m).members == blockers(sys_).members

    @given(systems())
    def test_result_is_antichain(self, sys_):
        m = minimal_intervals(sys_).intervals
        for a, b in itertools.combinations(m, 2):
            assert not a.contains(b) and not b.contains(a)


class TestBlockerEqual:
    def test_examples(self):
        a = IntervalSystem.of(3, [(1, 2), (1, 3)])
        b = IntervalSystem.of(3, [(1, 2)])
        assert blockers(a).members == blockers(b).members
        c = IntervalSystem.of(3, [(2, 3)])
        assert blockers(a).members != blockers(c).members

    @given(systems())
    def test_agrees_with_blocker_families(self, sys_):
        # Two systems have the same blocking sets exactly when their minimal
        # antichains agree.
        fam = blockers(sys_).members
        m = minimal_intervals(sys_)
        for other in enumerate_antichains(sys_.ambient_n):
            assert (blockers(other).members == fam) == (other == m)


class TestEnumerateAntichains:
    @pytest.mark.parametrize(
        "n,count", [(0, 1), (1, 2), (2, 5), (3, 14), (4, 42), (5, 132)]
    )
    def test_catalan_counts(self, n, count):
        assert catalan(n + 1) == count
        assert len(enumerate_antichains(n)) == count

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_exhaustive_blocker_classes(self, n):
        """Independent oracle: dedupe all interval systems by their minimal
        antichain; the result must be exactly the enumerated antichains."""
        oracle = {minimal_intervals(s) for s in all_systems(n, max_k=4)}
        # max_k=4 misses systems needing 5+ generators; add singleton-rich ones
        if n >= 5:
            oracle |= {
                minimal_intervals(s)
                for s in (
                    IntervalSystem.of(n, combo)
                    for combo in itertools.combinations(all_intervals(n), 5)
                )
            }
        enumerated = enumerate_antichains(n)
        assert len(set(enumerated)) == len(enumerated)
        assert set(enumerated) == oracle

    def test_generated_in_sort_key_order(self):
        for n in range(8):
            keys = [sys_.sort_key() for sys_ in enumerate_antichains(n)]
            assert all(a < b for a, b in zip(keys, keys[1:]))

    def test_empty_comes_first(self):
        for n in range(4):
            assert enumerate_antichains(n)[0] == IntervalSystem.empty(n)

    def test_members_are_antichains(self):
        for sys_ in enumerate_antichains(4):
            assert minimal_intervals(sys_) == sys_

    def test_ambient_guard(self):
        with pytest.raises(AmbientTooLarge):
            enumerate_antichains(15)

    @pytest.mark.parametrize("n", [5, 6])
    def test_call_leaves_no_garbage(self, n):
        # The recursion and its output list must be freed on return by
        # reference counting, with no cycle left for the collector.
        gc.collect()
        gc.disable()
        try:
            assert len(enumerate_antichains(n)) == catalan(n + 1)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestRankSets:
    def test_roundtrip(self):
        for mask in range(32):
            assert ranksets.parse(ranksets.to_string(mask), 5) == mask

    def test_literals(self):
        assert ranksets.to_string(0) == "{}"
        assert ranksets.to_string(0b101) == "{1,3}"
        assert ranksets.parse('"{1,3}"', 3) == 0b101

    @pytest.mark.parametrize("text", [
        "{1,1}", '"{2,3,2}"', "{1,}", "{a}", "{1;2}",
        "{1_0}", "{+2}", "{-1}", "{\u0663}",
    ])
    def test_parse_rejects_bad_literal(self, text):
        with pytest.raises(ValueError, match=re.escape(f"bad rank-set literal {text!r}")):
            ranksets.parse(text, 3)

    def test_parse_allows_spaces_around_digits(self):
        assert ranksets.parse("{ 1 , 3 }", 3) == 0b101
        assert ranksets.parse("{ }", 0) == 0

    def test_parse_refuses_an_element_above_n(self):
        # Refused before any mask is built, so the size of the number
        # costs nothing.
        with pytest.raises(ranksets.RankSetOutOfRange,
                           match=re.escape("rank set {2,100000000} not within [1,3]")):
            ranksets.parse("{100000000, 2}", 3)
        assert ranksets.parse("{3}", 3) == 0b100

    def test_elems_of_steps_over_set_bits(self):
        assert ranksets.elems_of(1 << 10**6 | 0b101) == (1, 3, 10**6 + 1)
        assert ranksets.to_string(1 << 10**6) == "{1000001}"

    def test_interval_mask(self):
        assert ranksets.interval_mask(2, 4) == 0b1110

    def test_labels_order(self):
        assert ranksets.labels(2) == ["{}", "{1}", "{2}", "{1,2}"]
