import random

import pytest
from hypothesis import given, settings, strategies as st

from lattice_succ import (
    BudgetExceeded,
    ConvergentTable,
    GridPoint,
    NoPredecessor,
    NonIntegerArgument,
    RectangleId,
    enumerate_sorted,
    large_gap,
    locate,
    locate_tilde,
    minimal_fractional_subsequences,
    naive_next,
    next_point,
    predicted_record_indices,
    prev_point,
    rectangle_point,
    rectangles_in_window,
    translation,
    validate_pair,
    value,
    verify_fg_at_convergents,
    verify_monotone_fractional_chains,
    verify_partition,
    walk,
)

from conftest import PAIR_ARGS, table_for

points = st.tuples(st.integers(0, 60), st.integers(0, 60)).map(lambda t: GridPoint(*t))
pair_args = st.sampled_from(PAIR_ARGS)


class TestLocate:
    def test_origin(self, table23):
        assert locate(table23, GridPoint(0, 0)) == RectangleId("P", 0, 0, 0, 0)

    def test_known_points(self, table23):
        assert locate(table23, GridPoint(3, 2)) == RectangleId("A", 2, 0, 0, 2)
        assert locate(table23, GridPoint(4, 0)) == RectangleId("A", 2, 0, 1, 0)

    def test_rejects_negative(self, table23):
        with pytest.raises(ValueError):
            locate(table23, GridPoint(-1, 0))

    @pytest.mark.parametrize("fn", [locate, locate_tilde, next_point, prev_point])
    def test_rejects_float_coordinates(self, table23, fn):
        with pytest.raises(TypeError):
            fn(table23, GridPoint(1.5, 2))
        with pytest.raises(TypeError):
            fn(table23, GridPoint(2, 2.0))

    def test_accepts_index_objects(self, table23):
        class Index:
            def __init__(self, n):
                self.n = n

            def __index__(self):
                return self.n

        p = GridPoint(Index(3), Index(2))
        assert next_point(table23, p) == GridPoint(0, 4)
        assert prev_point(table23, GridPoint(Index(0), Index(4))) == GridPoint(3, 2)
        assert locate(table23, p) == RectangleId("A", 2, 0, 0, 2)

    @given(args=pair_args, p=points)
    @settings(max_examples=120)
    def test_roundtrips(self, args, p):
        table = table_for(*args)
        rid = locate(table, p)
        assert not rid.tilde
        assert rectangle_point(table, rid) == p

    @given(args=pair_args, p=points)
    @settings(max_examples=120)
    def test_tilde_roundtrips(self, args, p):
        if p == (0, 0):
            return
        table = table_for(*args)
        rid = locate_tilde(table, p)
        assert rid.tilde
        assert rectangle_point(table, rid) == p

    @given(args=pair_args, p=points)
    @settings(max_examples=80)
    def test_offsets_within_extents(self, args, p):
        table = table_for(*args)
        rid = locate(table, p)
        L = rid.level
        if rid.family == "A":
            assert 0 <= rid.band < table.quotient(2 * L + 1)
            assert 0 <= rid.offset_r < table.k(2 * L)
            assert 0 <= rid.offset_s < table.h(2 * L)
        else:
            assert 0 <= rid.band < table.quotient(2 * L + 2)
            assert 0 <= rid.offset_r < table.k(2 * L + 1)
            assert 0 <= rid.offset_s < table.h(2 * L + 1)


class TestNext:
    @pytest.mark.parametrize(
        "p,expected",
        [((0, 0), (1, 0)), ((3, 2), (0, 4)), ((4, 0), (1, 2)), ((2, 1), (4, 0)), ((1, 0), (0, 1))],
    )
    def test_frozen_oracle_examples(self, table23, p, expected):
        assert next_point(table23, GridPoint(*p)) == GridPoint(*expected)

    @pytest.mark.parametrize("p1,p2", PAIR_ARGS)
    def test_agrees_with_enumeration(self, p1, p2):
        table = table_for(p1, p2)
        elems = enumerate_sorted(table.pair, 2000)
        for (p, _), (q, _) in zip(elems, elems[1:]):
            assert next_point(table, p) == q

    @given(args=pair_args, p=points)
    @settings(max_examples=60)
    def test_value_strictly_increases(self, args, p):
        table = table_for(*args)
        q = next_point(table, p)
        assert q != (0, 0)
        assert value(table.pair, q) > value(table.pair, p)

    def test_no_element_in_between(self, table23):
        # order property, oracle-free: inside a window no value falls strictly
        # between a point and its successor
        W = 25
        vals = sorted(
            value(table23.pair, GridPoint(i, j)) for i in range(2 * W) for j in range(2 * W)
        )
        for i in range(W):
            for j in range(W):
                lo = value(table23.pair, GridPoint(i, j))
                hi = value(table23.pair, next_point(table23, GridPoint(i, j)))
                between = [v for v in vals if lo < v < hi]
                assert between == []

    def test_injective_on_window(self, table23):
        image = {next_point(table23, GridPoint(i, j)) for i in range(40) for j in range(40)}
        assert len(image) == 1600
        assert GridPoint(0, 0) not in image


class TestWalk:
    @staticmethod
    def iterated(table, p, n):
        out = []
        for _ in range(n):
            p = next_point(table, p)
            out.append(p)
        return out

    @pytest.mark.parametrize("p1,p2", PAIR_ARGS)
    def test_from_origin_equals_iterated_next_point(self, p1, p2):
        table = table_for(p1, p2)
        assert walk(table, GridPoint(0, 0), 2000) == self.iterated(table, GridPoint(0, 0), 2000)

    @pytest.mark.parametrize("p1,p2", PAIR_ARGS)
    def test_from_seeded_points_equals_iterated_next_point(self, p1, p2):
        table = table_for(p1, p2)
        rng = random.Random(p1 * 100 + p2)
        for _ in range(20):
            p = GridPoint(rng.randrange(10_001), rng.randrange(10_001))
            assert walk(table, p, 50) == self.iterated(table, p, 50)

    def test_zero_steps(self, table23):
        assert walk(table23, GridPoint(3, 2), 0) == []

    def test_rejects_negative_count_and_bad_points(self, table23):
        with pytest.raises(ValueError):
            walk(table23, GridPoint(0, 0), -1)
        with pytest.raises(ValueError):
            walk(table23, GridPoint(-1, 0), 1)
        with pytest.raises(TypeError):
            walk(table23, GridPoint(1.5, 2), 1)


class TestPrev:
    def test_no_predecessor_at_origin(self, table23):
        with pytest.raises(NoPredecessor):
            prev_point(table23, GridPoint(0, 0))

    def test_examples(self, table23):
        assert prev_point(table23, GridPoint(1, 0)) == GridPoint(0, 0)
        assert prev_point(table23, GridPoint(0, 4)) == GridPoint(3, 2)

    @given(args=pair_args, p=points)
    @settings(max_examples=120)
    def test_inverse_of_next(self, args, p):
        table = table_for(*args)
        assert prev_point(table, next_point(table, p)) == p
        if p != (0, 0):
            assert next_point(table, prev_point(table, p)) == p


class TestTranslation:
    @pytest.mark.parametrize("p1,p2", PAIR_ARGS)
    def test_carries_source_onto_tilde(self, p1, p2):
        table = table_for(p1, p2).extend_to(8)
        for family, level in (("A", 1), ("A", 2), ("P", 0), ("P", 1)):
            dx, dy = translation(table, family, level, 0)
            src = rectangle_point(table, RectangleId(family, level, 0, 0, 0))
            tld = rectangle_point(table, RectangleId(family, level, 0, 0, 0, tilde=True))
            assert (src.i + dx, src.j + dy) == tld

    def test_unknown_family(self, table23):
        with pytest.raises(ValueError):
            translation(table23, "Q", 1, 0)


class TestValue:
    def test_examples(self, pair23, table23):
        assert value(pair23, GridPoint(0, 0)) == 1
        assert value(pair23, GridPoint(3, 2)) == 72
        assert value(pair23, GridPoint(7, 11)) == 22674816

    def test_budget(self):
        pair = validate_pair(2, 3, bit_budget=100)
        with pytest.raises(BudgetExceeded):
            value(pair, GridPoint(200, 0))

    @pytest.mark.parametrize("p", [GridPoint(10**400, 0), GridPoint(0, 10**400), GridPoint(3, 10**400)])
    def test_huge_exponent_is_budget_exceeded_not_overflow(self, pair23, p):
        with pytest.raises(BudgetExceeded, match="exponent above the bit budget"):
            value(pair23, p)



_pair23 = validate_pair(2, 3)
_table23 = table_for(2, 3)


@pytest.mark.parametrize(
    "fn,args",
    [
        (walk, (_table23, GridPoint(3, 2), 2.0)),
        (next_point, (_table23, GridPoint(2, 2.0))),
        (prev_point, (_table23, GridPoint(1.5, 2))),
        (value, (_pair23, GridPoint(0, 40.0))),
        (enumerate_sorted, (_pair23, 2.0)),
        (naive_next, (_pair23, GridPoint(2.5, 1), "affine")),
        (naive_next, (_pair23, GridPoint(2.5, 1), "value")),
        (ConvergentTable.extend_to, (_table23, 2.5)),
        (ConvergentTable.extend_until, (_table23, 2.5)),
        (ConvergentTable.extend_until, (_table23, "x")),
        (ConvergentTable.extend_until, (_table23, 10, "k", 1.5)),
        (rectangles_in_window, (_table23, 2.5, 3)),
        (verify_partition, (_table23, 5, 2.5)),
        (large_gap, (_table23, 1.5)),
        (predicted_record_indices, (_table23, 2.0)),
        (minimal_fractional_subsequences, (_table23, 2.0)),
        (verify_fg_at_convergents, (_table23, 2.0)),
        (verify_monotone_fractional_chains, (_table23, 2.0)),
    ],
    ids=lambda v: v.__name__ if callable(v) else repr(v[1:]),
)
def test_non_integer_arguments_are_typed(fn, args):
    # NonIntegerArgument is a TypeError, so callers catching TypeError still do.
    with pytest.raises(NonIntegerArgument):
        fn(*args)


def test_parity_outside_0_1_is_value_error():
    with pytest.raises(ValueError, match="parity must be 0 or 1"):
        _table23.extend_until(10, "k", 2)

