import pytest

from lattice_succ import (
    BudgetExceeded,
    GridPoint,
    SortedStream,
    enumerate_sorted,
    naive_next,
    validate_pair,
    value,
)

from conftest import PAIR_ARGS, pair_for


def test_first_elements_2_3(pair23):
    assert [v for _, v in enumerate_sorted(pair23, 8)] == [1, 2, 3, 4, 6, 8, 9, 12]


def test_single_element(pair23):
    assert enumerate_sorted(pair23, 1) == [(GridPoint(0, 0), 1)]


def test_first_elements_2_5():
    pair = pair_for(2, 5)
    assert [v for _, v in enumerate_sorted(pair, 6)] == [1, 2, 4, 5, 8, 10]


def test_rejects_nonpositive_count(pair23):
    with pytest.raises(ValueError):
        enumerate_sorted(pair23, 0)


@pytest.mark.parametrize("p1,p2", PAIR_ARGS)
def test_strictly_increasing_and_distinct(p1, p2):
    pair = pair_for(p1, p2)
    elems = enumerate_sorted(pair, 3000)
    values = [v for _, v in elems]
    assert values == sorted(set(values))
    coords = [p for p, _ in elems]
    assert len(set(coords)) == len(coords)
    for p, v in elems:
        assert value(pair, p) == v


def test_affine_key_mode_matches_value_mode(pair23):
    s1 = SortedStream(pair23)
    s2 = SortedStream(pair23, key="affine")
    for _ in range(300):
        assert next(s1) == next(s2)


@pytest.mark.parametrize("p1,p2", PAIR_ARGS)
def test_value_and_affine_keys_agree_on_3000(p1, p2):
    pair = pair_for(p1, p2)
    s1 = SortedStream(pair)
    s2 = SortedStream(pair, key="affine")
    for _ in range(3000):
        assert next(s1) == next(s2)
        assert s1.last_value == s2.last_value


@pytest.mark.parametrize("p1,p2", PAIR_ARGS)
def test_budget_refusal_at_the_element_value_refuses(p1, p2):
    pair = validate_pair(p1, p2, bit_budget=64)
    # reference: the first element of the stream whose value() is refused
    for idx, p in enumerate(SortedStream(pair)):
        try:
            value(pair, p)
        except BudgetExceeded as exc:
            want = str(exc)
            break
    assert len(enumerate_sorted(pair, idx)) == idx
    with pytest.raises(BudgetExceeded) as got:
        enumerate_sorted(pair, idx + 1)
    assert str(got.value) == want


def test_bad_key_rejected(pair23):
    with pytest.raises(ValueError):
        SortedStream(pair23, key="float")


class TestNaiveNext:
    @pytest.mark.parametrize(
        "p,expected", [((1, 0), (0, 1)), ((0, 0), (1, 0)), ((2, 1), (4, 0))]
    )
    def test_examples(self, pair23, p, expected):
        assert naive_next(pair23, GridPoint(*p)) == GridPoint(*expected)

    def test_affine_mode_agrees(self, pair23):
        for p in [GridPoint(0, 0), GridPoint(3, 2), GridPoint(5, 5)]:
            assert naive_next(pair23, p, key="affine") == naive_next(pair23, p)
