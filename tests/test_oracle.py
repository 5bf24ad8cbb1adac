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


@pytest.mark.parametrize("p1,p2", PAIR_ARGS)
def test_budget_refusal_at_every_budget_from_2_to_160(p1, p2):
    # enumerate_sorted skips the budget check below bit length budget; near that
    # length it must still refuse at the element value() refuses, with its message.
    points = SortedStream(pair_for(p1, p2))
    seen = [next(points)]
    idx = 0
    for budget in range(2, 161):
        pair = validate_pair(p1, p2, bit_budget=budget)
        # a refusal at some budget holds at every lower one, so idx never moves back
        while True:
            try:
                value(pair, seen[idx])
            except BudgetExceeded as exc:
                want = str(exc)
                break
            idx += 1
            if idx == len(seen):
                seen.append(next(points))
        with pytest.raises(BudgetExceeded) as got:
            enumerate_sorted(pair, idx + 1)
        assert str(got.value) == want, budget


@pytest.mark.parametrize("p1,p2", PAIR_ARGS)
def test_batch_heap_matches_the_stream_on_3000(p1, p2):
    pair = pair_for(p1, p2)
    stream = SortedStream(pair)
    assert enumerate_sorted(pair, 3000) == [(next(stream), stream.last_value) for _ in range(3000)]


# The conftest pairs, a p2 that p1 divides, and adjacent generators. Every
# element p1**i * p2**j with i, j >= 1 is both (p1**(i-1) * p2**j) * p1 and
# (p1**i * p2**(j-1)) * p2, so the merge advances both indexes on every pair.
MERGE_PAIRS = PAIR_ARGS + [(2, 6), (6, 7), (1000, 1001)]


@pytest.mark.parametrize("p1,p2", MERGE_PAIRS)
def test_merge_matches_the_stream_on_20000(p1, p2):
    pair = pair_for(p1, p2)
    stream = SortedStream(pair)
    assert enumerate_sorted(pair, 20_000) == [(next(stream), stream.last_value) for _ in range(20_000)]


@pytest.mark.parametrize("p1,p2", MERGE_PAIRS)
def test_batch_heap_and_stream_refuse_at_the_same_index(p1, p2):
    # The stream does not refuse by itself; enumerate_sorted refuses where
    # value() refuses the stream's element.
    pair = validate_pair(p1, p2, bit_budget=40)
    stream = SortedStream(pair)
    streamed = []
    with pytest.raises(BudgetExceeded):
        while True:
            p = next(stream)
            assert value(pair, p) == stream.last_value
            streamed.append((p, stream.last_value))
    idx = len(streamed)
    assert enumerate_sorted(pair, idx) == streamed
    with pytest.raises(BudgetExceeded):
        enumerate_sorted(pair, idx + 1)


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

    @pytest.mark.parametrize("key", ["bogus", "Value", None])
    def test_bad_key_rejected(self, pair23, key):
        with pytest.raises(ValueError, match="key must be"):
            naive_next(pair23, GridPoint(1, 1), key=key)
