import random

import pytest

from lattice_succ import (
    LESS,
    AffineForm,
    BudgetExceeded,
    GridPoint,
    SortedStream,
    compare_affine,
    enumerate_sorted,
    naive_next,
    validate_pair,
    value,
)
from lattice_succ.core_arith import ZERO_FORM

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


@pytest.mark.parametrize("p1,p2", PAIR_ARGS)
def test_value_and_affine_keys_agree_on_3000(p1, p2):
    # The stream orders by exact values; compare_affine orders the same exponent
    # pairs by i*alpha + j without forming a power, an independent check:
    # (i_a, j_a) < (i_b, j_b) iff (i_a - i_b)*alpha - (j_b - j_a) < 0.
    pair = pair_for(p1, p2)
    stream = SortedStream(pair)
    points = [next(stream) for _ in range(3000)]

    def below(a, b):
        return compare_affine(pair, AffineForm(a.i - b.i, b.j - a.j), ZERO_FORM) == LESS

    for a, b in zip(points, points[1:]):
        assert below(a, b)
    rng = random.Random(p1 * 1000 + p2)
    for _ in range(3000):
        x, y = sorted(rng.sample(range(3000), 2))
        assert below(points[x], points[y])


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


class TestNaiveNext:
    @pytest.mark.parametrize(
        "p,expected", [((1, 0), (0, 1)), ((0, 0), (1, 0)), ((2, 1), (4, 0))]
    )
    def test_examples(self, pair23, p, expected):
        assert naive_next(pair23, GridPoint(*p)) == GridPoint(*expected)
