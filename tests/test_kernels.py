"""Oracle tests for the double description adjacency kernel.

`polyhedra.adjacency_pairs` decides which positive/negative ray pairs are
adjacent from their zero-set bitmasks alone, using the transposed incidence
(row -> rays zero on it) and the bitset of live ray ids.  Each test builds
the transposed incidence itself and checks the kernel against a plain
reference implementation written independently here, which scans every
third live ray.
"""

from __future__ import annotations

import random

import pytest

from flagcone import polyhedra
from flagcone.cone import facet_system
from flagcone.polyhedra import adjacency_pairs


def oracle_pairs(
    masks: list[int], pos: list[int], neg: list[int], need: int,
    dead: frozenset[int] = frozenset(),
) -> list[tuple[int, int]]:
    """Reference semantics: common active set large enough and not dominated
    by a third live ray's active set."""
    out = []
    for i in pos:
        for j in neg:
            z = masks[i] & masks[j]
            if bin(z).count("1") < need:
                continue
            if any(
                t not in (i, j) and t not in dead and z & ~zt == 0
                for t, zt in enumerate(masks)
            ):
                continue
            out.append((i, j))
    return out


def transpose(masks: list[int]) -> list[int]:
    """zero_on[k]: the ids of the rays whose mask has bit k."""
    width = max((mk.bit_length() for mk in masks), default=0)
    return [
        sum(1 << t for t, mk in enumerate(masks) if mk >> k & 1)
        for k in range(width)
    ]


def kernel(
    masks: list[int], pos: list[int], neg: list[int], need: int,
    dead: frozenset[int] = frozenset(),
) -> list[tuple[int, int]]:
    """adjacency_pairs on every id but the dead ones."""
    live = sum(1 << t for t in range(len(masks)) if t not in dead)
    return adjacency_pairs(masks, transpose(masks), live, pos, neg, need)


def random_state(seed: int, nrays: int, nbits: int, density: float = 0.45):
    rng = random.Random(seed)
    masks = []
    for _ in range(nrays):
        m = 0
        for b in range(nbits):
            if rng.random() < density:
                m |= 1 << b
        masks.append(m)
    idx = list(range(nrays))
    rng.shuffle(idx)
    cut = nrays // 2
    pos = sorted(idx[:cut])
    neg = sorted(idx[cut:])
    need = max(1, nbits // 3)
    return masks, pos, neg, need


class TestPureKernel:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_oracle(self, seed):
        masks, pos, neg, need = random_state(seed, nrays=18, nbits=24)
        got = kernel(masks, pos, neg, need)
        assert got == oracle_pairs(masks, pos, neg, need)

    def test_output_order(self):
        masks, pos, neg, need = random_state(3, nrays=20, nbits=30)
        got = kernel(masks, pos, neg, need)
        keys = [(pos.index(i), neg.index(j)) for i, j in got]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("seed", range(4))
    def test_output_sorted_by_id(self, seed):
        # Pairs come out sorted by (i, j), whatever the order of pos and neg.
        masks, pos, neg, need = random_state(seed, nrays=20, nbits=24, density=0.6)
        rng = random.Random(seed)
        rng.shuffle(pos)
        rng.shuffle(neg)
        got = kernel(masks, pos, neg, need)
        assert len(got) > 1
        assert got == sorted(oracle_pairs(masks, pos, neg, need))

    def test_empty_sides(self):
        masks = [0b11, 0b10]
        assert kernel(masks, [], [1], 1) == []
        assert kernel(masks, [0], [], 1) == []

    @pytest.mark.parametrize("nrays, expected", [(2, [(0, 1)]), (3, [])])
    def test_empty_common_zero_set(self, nrays, expected):
        # need = 0 (a 2-dimensional cone): a pair with no common zero row is
        # adjacent exactly when no third ray exists, since every ray's zero
        # set contains the empty set.
        masks = [0b01, 0b10, 0b100][:nrays]
        got = kernel(masks, [0], [1], 0)
        assert got == expected == oracle_pairs(masks, [0], [1], 0)

    @pytest.mark.parametrize("seed", range(32))
    def test_matches_oracle_dense(self, seed):
        masks, pos, neg, need = random_state(seed, nrays=40, nbits=24, density=0.6)
        got = kernel(masks, pos, neg, need)
        assert got == oracle_pairs(masks, pos, neg, need)

    def test_witness_is_not_the_partner(self):
        # Ray 2 rules out (0, 1) and joins ray 0's witness list; it must not
        # then rule out (0, 2), in which it is the partner.
        masks = [0b1111, 0b0011, 0b0111]
        got = kernel(masks, [0], [1, 2], 2)
        assert got == [(0, 2)] == oracle_pairs(masks, [0], [1, 2], 2)

    def test_negative_witness_is_not_the_partner(self):
        # Ray 1 rules out (0, 2), and its prune keeps only the positive rays
        # zero on row 3; ray 1 is not, but it is a later partner of ray 2,
        # so it must survive its own prune.
        masks = [0b0011, 0b0111, 0b1111]
        got = kernel(masks, [0, 1], [2], 2)
        assert got == [(1, 2)] == oracle_pairs(masks, [0, 1], [2], 2)

    def test_list_entry_is_not_the_partner(self):
        # Ray 3 rules out (0, 1) and ray 4 rules out (0, 2), so ray 0's list
        # is [4, 3]: ray 3 sits behind the head when (0, 3) comes, in which
        # it is the partner and must not rule the pair out.  The pairs with
        # ray 0 are the only ones, so no prune decides them.
        masks = [0b111111, 0b000011, 0b110000, 0b001111, 0b111100]
        got = kernel(masks, [0], [1, 2, 3], 2)
        assert got == [(0, 3)] == oracle_pairs(masks, [0], [1, 2, 3], 2)

    def test_negative_list_entry_is_not_the_partner(self):
        # Ray 2 rules out (0, 3) and ray 4 rules out (1, 3), both for the
        # same negative ray 3.  Ray 2, a later partner of ray 3, survives the
        # first prune by its own bit and the second because it is zero on
        # rows 0 and 1, outside ray 4's zero set.
        masks = [0b000011, 0b110000, 0b001111, 0b111111, 0b111100]
        got = kernel(masks, [0, 1, 2], [3], 2)
        assert got == [(2, 3)] == oracle_pairs(masks, [0, 1, 2], [3], 2)

    def test_list_witness_survives_its_prune(self):
        # Ray 1 rules out (0, 2) by the AND scan and (0, 3) from ray 0's
        # witness list.  Each time it is a later positive partner of the
        # same negative ray, zero on no row of that ray's zero set outside
        # its own, so each prune must keep it by its own bit.
        masks = [0b001111, 0b111111, 0b010011, 0b100101]
        got = kernel(masks, [0, 1], [2, 3], 2)
        assert got == [(1, 2), (1, 3)] == oracle_pairs(masks, [0, 1], [2, 3], 2)

    def test_one_prune_drops_several(self):
        # Ray 1 rules out (2, 0); its prune drops rays 3 to 6 as well, whose
        # common zero sets with ray 0 lie inside ray 1's (rows 0 to 2), and
        # keeps ray 7, which is zero on row 3.  So the masks of rays 3 to 6
        # are never read.
        masks = CountingMasks([
            0b001111, 0b110111, 0b010011, 0b100101,
            0b000110, 0b110101, 0b010110, 0b001110,
        ])
        pos = list(range(2, 8))
        got = kernel(masks, pos, [0], 2)
        assert set(masks.read).isdisjoint(range(3, 7))
        assert got == [(7, 0)] == oracle_pairs(masks, pos, [0], 2)

    @pytest.mark.parametrize("nbits", [64 * 16 + 1, 2000])
    def test_wide_masks(self, nbits):
        masks, pos, neg, need = random_state(0, nrays=10, nbits=nbits, density=0.6)
        # an extra ray zero on the first pair's common rows dominates it
        masks.append(masks[pos[0]] & masks[neg[0]])
        got = kernel(masks, pos, neg, need)
        assert (pos[0], neg[0]) not in got
        assert got == oracle_pairs(masks, pos, neg, need)

    @pytest.mark.parametrize("seed", range(4))
    def test_dead_ids_are_ignored(self, seed):
        # Removed rays keep their ids, masks and transposed incidence bits.
        # Put them first, where they would be the first witnesses: one is
        # zero on every row, so it would dominate every pair, and each other
        # one is zero exactly on one pair's common rows.
        masks, pos, neg, need = random_state(seed, nrays=18, nbits=24)
        dead_masks = [(1 << 24) - 1] + [masks[i] & masks[j] for i, j in zip(pos, neg)]
        k = len(dead_masks)
        masks = dead_masks + masks
        pos = [i + k for i in pos]
        neg = [j + k for j in neg]
        dead = frozenset(range(k))
        got = kernel(masks, pos, neg, need, dead)
        assert got
        assert got == oracle_pairs(masks, pos, neg, need, dead)


class CountingMasks(list):
    """A masks list recording the ids whose zero set the scan reads."""

    def __init__(self, masks):
        super().__init__(masks)
        self.read = []

    def __getitem__(self, t):
        self.read.append(t)
        return super().__getitem__(t)


class CountingLive(int):
    """The live bitset, counting the AND chains started from it: each chain
    begins with `live & zero_on[k]`."""

    chains = 0

    def __and__(self, other):
        CountingLive.chains += 1
        return int(self) & other


def positive_witness_only(masks, zero_on, live, pos, neg, need):
    """The scan with only the witness kept per positive ray."""
    out = []
    for i in pos:
        w = -1
        for j in neg:
            z = masks[i] & masks[j]
            if z.bit_count() < need:
                continue
            if w >= 0 and w != j and not z & ~masks[w]:
                continue
            pair = 1 << i | 1 << j
            alive = live
            for k in range(z.bit_length()):
                if z >> k & 1:
                    alive &= zero_on[k]
                    if alive == pair:
                        break
            if alive == pair:
                out.append((i, j))
            else:
                rest = alive ^ pair
                w = (rest & -rest).bit_length() - 1
    return out


def two_witness_scan(masks, zero_on, live, pos, neg, need):
    """The scan with one witness per positive ray and one per negative ray:
    the last third ray found for i, and the last one that ruled out a pair
    with j."""
    out = []
    last = {}  # j -> the witness that last ruled out a pair with j
    for i in pos:
        w = -1
        for j in neg:
            z = masks[i] & masks[j]
            if z.bit_count() < need:
                continue
            v = last.get(j, -1)
            if v >= 0 and v != i and not z & ~masks[v]:
                continue
            if w >= 0 and w != j and not z & ~masks[w]:
                last[j] = w
                continue
            pair = 1 << i | 1 << j
            alive = live
            for k in range(z.bit_length()):
                if z >> k & 1:
                    alive &= zero_on[k]
                    if alive == pair:
                        break
            if alive == pair:
                out.append((i, j))
            else:
                rest = alive ^ pair
                w = last[j] = (rest & -rest).bit_length() - 1
    return out


def chain_counts(monkeypatch, n, scans):
    """The ray count of dd_rays(facet_system(n)) and the AND chains each scan
    starts in it, checking that all scans return the same pairs on every
    call."""
    counts = dict.fromkeys(scans, 0)

    def spy(masks, zero_on, live, pos, neg, need):
        result = None
        for name, scan in scans.items():
            CountingLive.chains = 0
            got = scan(masks, zero_on, CountingLive(live), pos, neg, need)
            counts[name] += CountingLive.chains
            assert result is None or got == result
            result = got
        return result

    monkeypatch.setattr(polyhedra, "adjacency_pairs", spy)
    return len(polyhedra.dd_rays(facet_system(n).normal_matrix)), counts


def test_negative_witness_saves_and_chains(monkeypatch):
    # At rank 5 the witness kept per negative ray rules out pairs that the
    # positive ray's witness alone leaves to the AND chain.
    rays, counts = chain_counts(monkeypatch, 4, {
        "lists": adjacency_pairs, "two": two_witness_scan,
        "positive": positive_witness_only,
    })
    assert rays == 41
    assert 0 < counts["two"] < counts["positive"]


@pytest.mark.parametrize("n, expected", [
    (4, 41), pytest.param(5, 796, marks=pytest.mark.slow)])
def test_witness_lists_save_and_chains(monkeypatch, n, expected):
    # Every witness found in a call stays on its positive ray's list, and
    # each one prunes the other positive rays it rules out, so pairs the two
    # last witnesses let through are ruled out without a chain: at rank 5,
    # 117 chains against 129; at rank 6, 4,507 against 10,752.
    rays, counts = chain_counts(monkeypatch, n, {
        "lists": adjacency_pairs, "two": two_witness_scan,
    })
    assert rays == expected
    assert 0 < counts["lists"] < counts["two"]
    if n == 5:
        assert 2 * counts["lists"] < counts["two"]


@pytest.mark.slow
def test_prune_skips_most_pairs(monkeypatch):
    # Of the 287,198 positive/negative pairs of the rank-6 run with its rows
    # in lex-max order, the scan reads fewer than a tenth.  Each examined
    # pair reads its positive ray's zero set once, and the negative rays and
    # witness choices read the rest, so the reads bound the examined pairs
    # from above.
    pairs = reads = 0

    def spy(masks, zero_on, live, pos, neg, need):
        nonlocal pairs, reads
        counting = CountingMasks(masks)
        got = adjacency_pairs(counting, zero_on, live, pos, neg, need)
        pairs += len(pos) * len(neg)
        reads += len(counting.read)
        return got

    monkeypatch.setattr(polyhedra, "adjacency_pairs", spy)
    rows = sorted(facet_system(5).normal_matrix, reverse=True)
    assert len(polyhedra.dd_rays(rows)) == 796
    assert pairs == 287198
    assert reads < pairs // 10
