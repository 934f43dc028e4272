import itertools
import math

import pytest

from spinwedge import rank_subset, unrank_subset


def test_rank_colex_extremes():
    assert rank_subset((0, 1), 4) == 0
    assert rank_subset((2, 3), 4) == 5


def test_unrank_zero():
    assert unrank_subset(0, 4, 2) == (0, 1)


def test_rank_matches_colex_position():
    combos = sorted(itertools.combinations(range(5), 3), key=lambda c: c[::-1])
    for pos, combo in enumerate(combos):
        assert rank_subset(combo, 5) == pos
        assert unrank_subset(pos, 5, 3) == combo


def test_roundtrip_exhaustive_8_choose_3():
    seen = set()
    for combo in itertools.combinations(range(8), 3):
        r = rank_subset(combo, 8)
        assert 0 <= r < math.comb(8, 3)
        assert unrank_subset(r, 8, 3) == combo
        seen.add(r)
    assert len(seen) == 56


@pytest.mark.parametrize("n,k", [(6, 0), (6, 6), (9, 4), (1, 1)])
def test_roundtrip_all_sizes(n, k):
    for r in range(math.comb(n, k)):
        assert rank_subset(unrank_subset(r, n, k), n) == r


def test_colex_rank_equals_bitmask_order():
    # Colex order on subsets is numeric order on their occupation bitmasks.
    masks = []
    for r in range(math.comb(7, 3)):
        mask = 0
        for v in unrank_subset(r, 7, 3):
            mask |= 1 << v
        masks.append(mask)
    assert masks == sorted(masks)


def test_rank_input_errors():
    with pytest.raises(ValueError):
        rank_subset((1, 0), 4)
    with pytest.raises(ValueError):
        rank_subset((0, 0), 4)
    with pytest.raises(ValueError):
        rank_subset((0, 4), 4)


def test_unrank_input_errors():
    with pytest.raises(ValueError):
        unrank_subset(6, 4, 2)
    with pytest.raises(ValueError):
        unrank_subset(-1, 4, 2)
    with pytest.raises(ValueError):
        unrank_subset(0, 4, 5)
