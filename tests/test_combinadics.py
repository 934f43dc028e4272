"""Colex ranks of k-subsets.  ``rank_subset`` is arithmetic on binomials; the
rank-r k-subset is row r of ``subset_table(n, k)``, read from the one
enumeration, so each is checked against the other and against itertools."""

import itertools
import math

import pytest

from spinwedge import rank_subset, subset_table


def test_rank_colex_extremes():
    assert rank_subset((0, 1), 4) == 0
    assert rank_subset((2, 3), 4) == 5


def test_unrank_zero():
    assert tuple(subset_table(4, 2)[0]) == (0, 1)


def test_rank_matches_colex_position():
    combos = sorted(itertools.combinations(range(5), 3), key=lambda c: c[::-1])
    for pos, combo in enumerate(combos):
        assert rank_subset(combo, 5) == pos
        assert tuple(subset_table(5, 3)[pos]) == combo


def test_roundtrip_exhaustive_8_choose_3():
    seen = set()
    for combo in itertools.combinations(range(8), 3):
        r = rank_subset(combo, 8)
        assert 0 <= r < math.comb(8, 3)
        assert tuple(subset_table(8, 3)[r]) == combo
        seen.add(r)
    assert len(seen) == 56


@pytest.mark.parametrize("n,k", [(6, 0), (6, 6), (9, 4), (1, 1)])
def test_roundtrip_all_sizes(n, k):
    for r, row in enumerate(subset_table(n, k)):
        assert rank_subset(row, n) == r


def test_colex_rank_equals_bitmask_order():
    # Colex order on subsets is numeric order on their occupation bitmasks:
    # for every n <= 8 and every k, the rows of subset_table ascend as masks,
    # and rank_subset gives each row its index.
    for n in range(9):
        for k in range(n + 1):
            table = subset_table(n, k)
            assert table.shape == (math.comb(n, k), k)
            ranks = [rank_subset(row, n) for row in table]
            assert ranks == list(range(len(table))), (n, k)
            masks = [sum(1 << int(v) for v in row) for row in table]
            assert all(a < b for a, b in zip(masks, masks[1:])), (n, k)


def test_rank_input_errors():
    with pytest.raises(ValueError):
        rank_subset((1, 0), 4)
    with pytest.raises(ValueError):
        rank_subset((0, 0), 4)
    with pytest.raises(ValueError):
        rank_subset((0, 4), 4)


def test_unrank_input_errors():
    # A table exists for 0 <= k <= n only, and has C(n, k) rows.
    with pytest.raises(ValueError):
        subset_table(4, 5)
    with pytest.raises(ValueError):
        subset_table(4, -1)
    with pytest.raises(IndexError):
        subset_table(4, 2)[6]


def test_complement_reverses_the_rank():
    # Sector n-k is sector k relabelled by this map, checked here through
    # rank_subset alone, with subsets and complements listed by itertools.
    for n in range(13):
        for k in range(n + 1):
            total = math.comb(n, k)
            for subset in itertools.combinations(range(n), k):
                rest = sorted(set(range(n)) - set(subset))
                assert rank_subset(rest, n) == total - 1 - rank_subset(subset, n), (n, subset)
