import io
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from lattice_succ import (
    GREATER,
    LESS,
    AffineForm,
    BudgetExceeded,
    ConvergentTable,
    GridPoint,
    IndexBeyondTable,
    InvalidArgument,
    LatticeError,
    NoPredecessor,
    NonIntegerArgument,
    Rectangle,
    SortedStream,
    compare_affine,
    compare_fraction,
    enumerate_sorted,
    f,
    g,
    large_gap,
    locate,
    locate_tilde,
    minimal_fractional_subsequences,
    naive_next,
    next_point,
    predicted_record_indices,
    prev_point,
    rectangles_in_window,
    validate_pair,
    value,
    verify_fg_at_convergents,
    verify_monotone_fractional_chains,
    verify_partition,
    walk,
)

from lattice_succ import successor
from lattice_succ.cli import build_parser
from lattice_succ.core_arith import DEFAULT_BIT_BUDGET, _check_value_budget

from conftest import PAIR_ARGS, pair_for, table_for

points = st.tuples(st.integers(0, 60), st.integers(0, 60)).map(lambda t: GridPoint(*t))
pair_args = st.sampled_from(PAIR_ARGS)


class TestLocate:
    def test_origin(self, table23):
        assert locate(table23, GridPoint(0, 0)) == Rectangle("P", 0, 0, 0, 0, 0, 0)

    def test_known_points(self, table23):
        # A band (3, 0) of (2,3): x from k_3 = 3, k_4 = 8 wide, y < h_4 = 5.
        band = Rectangle("A", 2, 0, 3, 10, 0, 4)
        assert locate(table23, GridPoint(3, 2)) == band
        assert locate(table23, GridPoint(4, 0)) == band
        # Its partner A~: y from h_3 = 2, h_4 = 5 high, x < k_4 = 8.
        assert locate_tilde(table23, GridPoint(0, 4)) == Rectangle("A~", 2, 0, 0, 7, 2, 6)
        assert locate_tilde(table23, GridPoint(1, 0)) == Rectangle("P~", 0, 0, 1, 1, 0, 0)

    def test_rejects_negative(self, table23):
        with pytest.raises(ValueError):
            locate(table23, (-1, 0))
        with pytest.raises(ValueError):
            GridPoint(-1, 0)

    def test_origin_has_no_tilde_rectangle(self, table23):
        with pytest.raises(NoPredecessor):
            locate_tilde(table23, GridPoint(0, 0))

    @pytest.mark.parametrize("fn", [locate, locate_tilde, next_point, prev_point])
    def test_rejects_float_coordinates(self, table23, fn):
        with pytest.raises(TypeError):
            fn(table23, (1.5, 2))
        with pytest.raises(TypeError):
            fn(table23, (2, 2.0))
        with pytest.raises(TypeError):
            GridPoint(1.5, 2)
        with pytest.raises(TypeError):
            GridPoint(2, 2.0)

    def test_accepts_index_objects(self, table23):
        class Index:
            def __init__(self, n):
                self.n = n

            def __index__(self):
                return self.n

        p = GridPoint(Index(3), Index(2))
        assert type(p.i) is int and type(p.j) is int
        assert next_point(table23, p) == GridPoint(0, 4)
        assert prev_point(table23, GridPoint(Index(0), Index(4))) == GridPoint(3, 2)
        assert locate(table23, p) == Rectangle("A", 2, 0, 3, 10, 0, 4)
        # The same coordinates in a plain tuple go through the queries' own check.
        assert next_point(table23, (Index(3), Index(2))) == GridPoint(0, 4)
        assert prev_point(table23, (Index(0), Index(4))) == GridPoint(3, 2)
        assert locate(table23, (Index(3), Index(2))) == Rectangle("A", 2, 0, 3, 10, 0, 4)

    @given(args=pair_args, p=points)
    @settings(max_examples=120)
    def test_roundtrips(self, args, p):
        # point -> rectangle -> its corners -> the same rectangle, and the
        # point's offset inside it gives the point back.
        table = table_for(*args)
        r = locate(table, p)
        for corner in ((r.x_min, r.y_min), (r.x_max, r.y_max)):
            assert locate(table, GridPoint(*corner)) == r
        dx, dy = p.i - r.x_min, p.j - r.y_min
        assert GridPoint(r.x_min + dx, r.y_min + dy) == p

    @given(args=pair_args, p=points)
    @settings(max_examples=80)
    def test_offsets_within_extents(self, args, p):
        table = table_for(*args)
        r = locate(table, p)
        L = r.level
        dx, dy = p.i - r.x_min, p.j - r.y_min
        if r.family == "A":
            assert 0 <= r.band < table.quotient(2 * L + 1)
            assert (r.width, r.height) == (table.k(2 * L), table.h(2 * L))
        else:
            assert 0 <= r.band < table.quotient(2 * L + 2)
            assert (r.width, r.height) == (table.k(2 * L + 1), table.h(2 * L + 1))
        assert 0 <= dx < r.width and 0 <= dy < r.height

    @pytest.mark.parametrize("tilde", [False, True], ids=["source", "tilde"])
    @given(args=pair_args, p=points)
    @settings(max_examples=120)
    def test_rectangle_contains_the_point(self, tilde, args, p):
        if tilde and p == (0, 0):
            return
        table = table_for(*args)
        r = (locate_tilde if tilde else locate)(table, p)
        assert type(r) is Rectangle
        assert r.family in (("A~", "P~") if tilde else ("A", "P"))
        assert r.x_min <= p.i <= r.x_max and r.y_min <= p.j <= r.y_max
        assert r in rectangles_in_window(table, p.i + 1, p.j + 1, tilde=tilde)


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

    @pytest.mark.parametrize("p1,p2", PAIR_ARGS)
    @pytest.mark.parametrize("start,n", [((0, 0), 3000), ((0, 5000), 300), ((5000, 0), 300)], ids=str)
    def test_cold_table_equals_iterated_next_point(self, monkeypatch, p1, p2, start, n):
        # walk grows the table as it goes: the ue list (h_even, over j) and the vo list (k_odd, over i).
        walked, stepped = ConvergentTable(pair_for(p1, p2)), ConvergentTable(pair_for(p1, p2))
        ue, _, _, vo = walked._views[False]
        grown = []

        def grow(table, values, c):
            if table is walked:
                grown.append("ue" if values is ue else "vo" if values is vo else "other")
            real_grow(table, values, c)

        real_grow = successor._grow
        monkeypatch.setattr(successor, "_grow", grow)
        assert walk(walked, GridPoint(*start), n) == self.iterated(stepped, GridPoint(*start), n)
        assert walked.depth == stepped.depth
        assert grown and set(grown) <= {"ue", "vo"}
        if start == (0, 0):
            assert set(grown) == {"ue", "vo"}

    def test_zero_steps(self, table23):
        assert walk(table23, GridPoint(3, 2), 0) == []

    def test_rejects_negative_count_and_bad_points(self, table23):
        with pytest.raises(ValueError):
            walk(table23, GridPoint(0, 0), -1)
        with pytest.raises(ValueError):
            walk(table23, (-1, 0), 1)
        with pytest.raises(TypeError):
            walk(table23, (1.5, 2), 1)
        with pytest.raises(ValueError):
            GridPoint(-1, 0)
        with pytest.raises(TypeError):
            GridPoint(1.5, 2)


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


def _above(pair, q, p) -> bool:
    """Exactly whether q lies above p in S: (q.i - p.i)*alpha + (q.j - p.j) > 0."""
    return compare_affine(pair, AffineForm(q[0] - p[0], p[1] - q[1]), AffineForm(0, 0)) > 0


def _column_scan(pair, p):
    """(successor, predecessor) of p in S by a scan over every column; nothing here uses the continued fraction.

    Column t holds one successor candidate, the least (t, y) above p, and one
    predecessor candidate, the greatest (t, y) below it. With x = v - t*alpha,
    v the value of p in units of log(p2), these lie at y = floor(x) + 1 and
    y = ceil(x) - 1, at distances 1 - frac(x) and frac(x). Floats pick the
    columns whose frac(x) is within a moat of the extremes, or of 0 and 1
    where the float floor may be off by one; exact comparisons settle those.
    """
    i, j = p
    alpha = math.log(pair.p1) / math.log(pair.p2)
    v = i * alpha + j
    # Column int(v/alpha) + 1 is the first whose every point lies above p.
    fracs = [(v - t * alpha) % 1.0 for t in range(int(v / alpha) + 2)]
    fracs[i] = 0.5  # p's own column: x = j, and its candidates (i, j + 1) and (i, j - 1) lie a whole unit away
    moat = 1e-6  # float error in x stays below 1e-9 for values up to 1e7
    low, high = min(fracs) + 2 * moat, max(fracs) - 2 * moat
    columns = [t for t, fr in enumerate(fracs) if fr < low or fr > high or fr < moat or fr > 1 - moat]
    succ = pred = None
    for t in columns:
        x = v - t * alpha
        y = max(0, math.floor(x) + 1)
        while y > 0 and _above(pair, (t, y - 1), p):
            y -= 1
        while not _above(pair, (t, y), p):
            y += 1
        if succ is None or _above(pair, succ, (t, y)):
            succ = (t, y)
        y = max(-1, math.ceil(x) - 1)  # -1: no point of column t below p
        while y >= 0 and not _above(pair, p, (t, y)):
            y -= 1
        while _above(pair, p, (t, y + 1)):
            y += 1
        if y >= 0 and (pred is None or _above(pair, (t, y), pred)):
            pred = (t, y)
    return succ, pred


@pytest.mark.parametrize("p1,p2", PAIR_ARGS)
def test_queries_from_1e3_to_1e6_match_a_column_scan(p1, p2):
    # Coordinates up to the default bit budget, past the reach of the heap oracle.
    pair = validate_pair(p1, p2)
    table = ConvergentTable(pair)
    rng = random.Random(p1 * 100 + p2)
    for _ in range(3):
        p = GridPoint(*(int(10 ** rng.uniform(3, 6)) for _ in range(2)))
        assert (next_point(table, p), prev_point(table, p)) == _column_scan(pair, p), p


# Depth of a fresh table after locate and locate_tilde have visited every cell
# of the 150x150 window; recorded from the separate source and tilde band
# lookups that the single rectangle lookup replaced.
SWEEP_DEPTHS = {(2, 3): 9, (2, 5): 7, (3, 5): 8, (2, 12): 9, (6, 10): 6}


class TestLookupAgainstTiling:
    @pytest.mark.parametrize("p1,p2", PAIR_ARGS)
    def test_every_cell_names_the_tiling_rectangle(self, p1, p2):
        # The tiling is built on the band enumerator, not on the lookup.
        W = H = 150
        pair = validate_pair(p1, p2)
        swept = ConvergentTable(pair)
        for tilde, lookup in ((False, locate), (True, locate_tilde)):
            cover = {}
            for r in rectangles_in_window(ConvergentTable(pair), W, H, tilde=tilde):
                for x in range(max(r.x_min, 0), min(r.x_max + 1, W)):
                    for y in range(max(r.y_min, 0), min(r.y_max + 1, H)):
                        cover.setdefault((x, y), []).append(r)
            assert len(cover) == W * H - tilde  # the tilde partition leaves out the origin
            for (x, y), rects in cover.items():
                assert len(rects) == 1, (x, y, rects)
                r = rects[0]
                assert lookup(swept, GridPoint(x, y)) == r
        assert swept.depth == SWEEP_DEPTHS[(p1, p2)]


# Partial quotients near 700: (2, 1025) = [0; 10, 710, 7, ...] and (2, 1023) = [0; 9, 1, 708, ...].
# Their bands hold hundreds of t >= 1 cells: P bands in the first pair's 300x300 window, A bands in the
# second's.
LARGE_QUOTIENT_PAIRS = [(2, 1025), (2, 1023)]
KINDS = {(family + "~" * tilde, t_above_0) for family in "PA" for tilde in (0, 1) for t_above_0 in (False, True)}


def _translations(pair, W, H, tilde):
    """Each cell of the W x H window mapped to the translation (dx, dy) of the tiling rectangle holding it.

    Band (n, t) has the mediant h/k = (h_n + t*h_{n+1}) / (k_n + t*k_{n+1});
    a P band (n = 2*level) moves by (k, -h), an A band (n = 2*level - 1) by
    (-k, h), in the source partition and onto the tilde one alike.
    """
    table = ConvergentTable(pair)
    rects = rectangles_in_window(table, W, H, tilde=tilde)
    hk = table.convergents
    moves = {}
    for r in rects:
        p_band = r.family[0] == "P"
        n = 2 * r.level - (not p_band)
        h = hk[n][0] + r.band * hk[n + 1][0]
        k = hk[n][1] + r.band * hk[n + 1][1]
        move = (k, -h) if p_band else (-k, h)
        for x in range(max(r.x_min, 0), min(r.x_max + 1, W)):
            for y in range(max(r.y_min, 0), min(r.y_max + 1, H)):
                assert (x, y) not in moves, (x, y, r)
                moves[x, y] = move
    assert len(moves) == W * H - tilde  # the tilde partition leaves out the origin
    return moves


def _kinds(pair, W, H):
    """(family, t >= 1) of every rectangle of both partitions on the window."""
    table = ConvergentTable(pair)
    return {(r.family, r.band > 0) for tilde in (False, True) for r in rectangles_in_window(table, W, H, tilde=tilde)}


class TestLargePartialQuotients:
    W = H = 300

    @pytest.mark.parametrize("p1,p2", LARGE_QUOTIENT_PAIRS)
    def test_every_cell_moves_by_its_tiling_rectangle(self, p1, p2):
        # next_point carries a source cell by its rectangle's translation, prev_point undoes a tilde one's.
        pair = validate_pair(p1, p2)
        table = ConvergentTable(pair)
        for tilde, query, sign in ((False, next_point, 1), (True, prev_point, -1)):
            for (x, y), (dx, dy) in _translations(pair, self.W, self.H, tilde).items():
                assert query(table, GridPoint(x, y)) == (x + sign * dx, y + sign * dy), (tilde, x, y)

    @pytest.mark.parametrize("p1,p2", LARGE_QUOTIENT_PAIRS)
    def test_next_and_prev_are_inverse_on_the_window(self, p1, p2):
        table = ConvergentTable(validate_pair(p1, p2))
        for x in range(self.W):
            for y in range(self.H):
                p = GridPoint(x, y)
                assert prev_point(table, next_point(table, p)) == p
                if x or y:
                    assert next_point(table, prev_point(table, p)) == p

    @pytest.mark.parametrize("p1,p2", LARGE_QUOTIENT_PAIRS)
    def test_walk_equals_iterated_next_point_and_the_oracle(self, p1, p2):
        pair = validate_pair(p1, p2)
        walked = walk(ConvergentTable(pair), GridPoint(0, 0), 3000)
        assert walked == TestWalk.iterated(ConvergentTable(pair), GridPoint(0, 0), 3000)
        assert walked == [q for q, _ in enumerate_sorted(pair, 3001)[1:]]

    def test_windows_hold_every_cell_kind(self):
        # The lookup takes its t = 0 arm or its t >= 1 arm in a P cell and in an A cell, in both views.
        # Each pair of the suite shows all four kinds of both partitions on its own window; the two
        # large-quotient pairs show them together.
        for args in PAIR_ARGS:
            assert _kinds(pair_for(*args), self.W, self.H) == KINDS, args
        assert _kinds(pair_for(2, 1025), self.W, self.H) | _kinds(pair_for(2, 1023), self.W, self.H) == KINDS


class TestTranslation:
    @pytest.mark.parametrize("p1,p2", PAIR_ARGS)
    def test_carries_source_onto_tilde(self, p1, p2):
        # next_point moves each point of a source rectangle to the same offset
        # in its tilde partner, and that partner has the same extents.
        table = table_for(p1, p2)
        for x in range(40):
            for y in range(40):
                src = locate(table, GridPoint(x, y))
                q = next_point(table, GridPoint(x, y))
                tld = locate_tilde(table, q)
                assert tld[:3] == (src.family + "~", src.level, src.band)
                assert (tld.width, tld.height) == (src.width, src.height)
                assert (q.i - tld.x_min, q.j - tld.y_min) == (x - src.x_min, y - src.y_min)


class TestValue:
    def test_examples(self, pair23, table23):
        assert value(pair23, GridPoint(0, 0)) == 1
        assert value(pair23, GridPoint(3, 2)) == 72
        assert value(pair23, GridPoint(7, 11)) == 22674816

    def test_budget(self):
        pair = validate_pair(2, 3, bit_budget=100)
        with pytest.raises(BudgetExceeded):
            value(pair, GridPoint(200, 0))

    @pytest.mark.parametrize(
        "p", [GridPoint(10**400, 0), GridPoint(0, 10**400), GridPoint(3, 10**400), GridPoint(10**5000, 0)]
    )
    def test_huge_exponent_is_budget_exceeded_not_overflow(self, pair23, p):
        with pytest.raises(BudgetExceeded, match="exponent above the bit budget"):
            value(pair23, p)



_pair23 = validate_pair(2, 3)
_table23 = table_for(2, 3)

# Every public function that takes a table, with the arguments after it.
_TABLE_TAKERS = [
    (next_point, ((1, 1),)),
    (prev_point, ((1, 1),)),
    (walk, ((0, 0), 3)),
    (locate, ((1, 1),)),
    (locate_tilde, ((1, 1),)),
    (rectangles_in_window, (5, 5)),
    (verify_partition, (5, 5)),
    (large_gap, (1,)),
    (verify_fg_at_convergents, (3,)),
    (verify_monotone_fractional_chains, (3,)),
    (minimal_fractional_subsequences, (10,)),
    (predicted_record_indices, (10,)),
]
_NOT_TABLES = [("pair", _pair23), ("None", None)]


@pytest.mark.parametrize(
    "fn,args",
    [
        (walk, (_table23, GridPoint(3, 2), 2.0)),
        # A GridPoint refuses these coordinates itself (test_grid_point_refuses_what_the_queries_refuse),
        # so the queries get them as plain tuples; the ids keep the GridPoint spelling they had,
        # and naive_next's keeps the 'value' key that the oracle no longer takes.
        pytest.param(next_point, (_table23, (2, 2.0)), id="next_point-(GridPoint(i=2, j=2.0),)"),
        pytest.param(prev_point, (_table23, (1.5, 2)), id="prev_point-(GridPoint(i=1.5, j=2),)"),
        pytest.param(value, (_pair23, (0, 40.0)), id="value-(GridPoint(i=0, j=40.0),)"),
        (enumerate_sorted, (_pair23, 2.0)),
        pytest.param(naive_next, (_pair23, (2.5, 1)), id="naive_next-(GridPoint(i=2.5, j=1), 'value')"),
        (ConvergentTable.extend_to, (_table23, 2.5)),
        (ConvergentTable.h, (_table23, 1.5)),
        (ConvergentTable.quotient, (_table23, 1.0)),
        (ConvergentTable.k, (_table23, "2")),
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
        # A pair that is not a GeneratorPair, and forms that are not AffineForms.
        pytest.param(f, ((2, 3), 5), id="f-pair_tuple"),
        pytest.param(g, ((2, 3), 5), id="g-pair_tuple"),
        pytest.param(compare_fraction, (None, 1, 2), id="compare_fraction-pair_None"),
        pytest.param(compare_affine, ((2, 3), AffineForm(1, 1), AffineForm(0, 0)), id="compare_affine-pair_tuple"),
        pytest.param(value, ((2, 3), (1, 1)), id="value-pair_tuple"),
        pytest.param(enumerate_sorted, ((2, 3), 3), id="enumerate_sorted-pair_tuple"),
        pytest.param(SortedStream, ((2, 3),), id="SortedStream-pair_tuple"),
        pytest.param(naive_next, ((2, 3), (1, 1)), id="naive_next-pair_tuple"),
        pytest.param(compare_affine, (_pair23, (1, 1), (0, 0)), id="compare_affine-form_tuple"),
        pytest.param(compare_affine, (_pair23, None, AffineForm(0, 0)), id="compare_affine-form_None"),
        # Ints past the int-to-str limit, inside a value the message shows by its type alone.
        pytest.param(f, ((2, 10**5000), 5), id="f-pair_past_str_limit"),
        pytest.param(ConvergentTable, ((2, 10**5000),), id="ConvergentTable-pair_past_str_limit"),
        pytest.param(
            compare_affine, (_pair23, (10**5000, 1), AffineForm(0, 0)), id="compare_affine-form_past_str_limit"
        ),
        pytest.param(next_point, (_table23, (10**5000, 1, 2)), id="next_point-point_past_str_limit"),
        pytest.param(GridPoint, ([10**5000], 0), id="GridPoint-i_past_str_limit"),
        # A table that is not a ConvergentTable.
        *(
            pytest.param(fn, (table, *rest), id=f"{fn.__name__}-table_{label}")
            for fn, rest in _TABLE_TAKERS
            for label, table in _NOT_TABLES
        ),
    ],
    ids=lambda v: v.__name__ if callable(v) else repr(v[1:]),
)
def test_non_integer_arguments_are_typed(fn, args):
    # NonIntegerArgument is a TypeError, so callers catching TypeError still do.
    with pytest.raises(NonIntegerArgument):
        fn(*args)


@pytest.mark.parametrize(
    "call",
    [
        lambda: next_point(_table23, (-1, 0)),
        lambda: prev_point(_table23, (0, -1)),
        lambda: walk(_table23, GridPoint(0, 0), -1),
        lambda: _table23.extend_until(10, "x", 1),
        lambda: _table23.extend_until(10, "k", 2),
        lambda: rectangles_in_window(_table23, 0, 5),
        lambda: verify_partition(_table23, 5, -1),
        lambda: large_gap(_table23, 1, "B"),
        lambda: large_gap(_table23, 0, "A"),
        lambda: minimal_fractional_subsequences(_table23, 0),
        # Within a budget of 10**400 bits; no float holds the first N, nor the second's error bound.
        lambda: minimal_fractional_subsequences(ConvergentTable(validate_pair(2, 3, bit_budget=10**400)), 10**399),
        lambda: minimal_fractional_subsequences(ConvergentTable(validate_pair(2, 3, bit_budget=10**400)), 10**308),
        lambda: predicted_record_indices(_table23, 0),
        lambda: compare_fraction(_pair23, 0, 0),
        lambda: f(_pair23, 0),
        lambda: enumerate_sorted(_pair23, 0),
        lambda: GridPoint(-1, 0),
        lambda: large_gap(_table23, 1, family=[10**5000]),
        lambda: _table23.extend_until(5, seq=[10**5000]),
        lambda: verify_fg_at_convergents(_table23, -7),
        lambda: verify_monotone_fractional_chains(_table23, -10**5000),
        lambda: _table23.extend_to(-3),
    ],
    ids=[
        "negative_point", "negative_point_prev", "walk_negative_count", "extend_until_seq",
        "extend_until_parity", "window", "partition_window", "gap_family", "gap_level",
        "record_scan_N", "record_scan_N_past_float_range", "record_scan_margin_past_float_range", "predicted_N",
        "fraction", "f_n", "enumerate_count", "grid_point",
        "gap_family_past_str_limit", "extend_until_seq_past_str_limit",
        "fg_max_index", "chains_max_index_past_str_limit", "extend_to_index",
    ],
)
def test_out_of_range_arguments_are_typed(call):
    # InvalidArgument is a ValueError, so callers catching ValueError still do.
    with pytest.raises(InvalidArgument) as exc:
        call()
    assert isinstance(exc.value, LatticeError) and isinstance(exc.value, ValueError)


class _Index:
    def __init__(self, n):
        self.n = n

    def __index__(self):
        return self.n


def _cli_handler(argv, attr):
    """Call the handler of a parsed CLI argv with its count attribute set to x; run() is not in the way."""

    def call(x):
        args = build_parser(str(DEFAULT_BIT_BUDGET)).parse_args(argv[:1] + ["--p1", "2", "--p2", "3"] + argv[1:])
        setattr(args, attr, x)
        return args.handler(args, _pair23, io.StringIO())

    return call


@pytest.mark.parametrize(
    "call,name,least",
    [
        (lambda x: f(_pair23, x), "n", 1),
        (lambda x: walk(_table23, (0, 0), x), "n", 0),
        (lambda x: enumerate_sorted(_pair23, x), "count", 1),
        (lambda x: minimal_fractional_subsequences(_table23, x), "N", 1),
        (lambda x: predicted_record_indices(_table23, x), "N", 1),
        (lambda x: rectangles_in_window(_table23, x, 5), "W", 1),
        (lambda x: rectangles_in_window(_table23, 5, x), "H", 1),
        (lambda x: verify_partition(_table23, x, 5), "W", 1),
        (lambda x: verify_partition(_table23, 5, x), "H", 1),
        (lambda x: large_gap(_table23, x), "level", 1),
        (lambda x: large_gap(_table23, x, "P"), "level", 0),
        (lambda x: verify_fg_at_convergents(_table23, x), "max_index", 1),
        (lambda x: verify_monotone_fractional_chains(_table23, x), "max_index", 1),
        (lambda x: _table23.extend_to(x), "index", 0),
        (_cli_handler(["cf"], "depth"), "--depth", 0),
        (_cli_handler(["enum"], "count"), "--count", 1),
        (_cli_handler(["tile", "--width", "5", "--height", "5"], "width"), "--width", 1),
        (_cli_handler(["tile", "--width", "5", "--height", "5"], "height"), "--height", 1),
        (_cli_handler(["gaps"], "levels"), "--levels", 1),
        (_cli_handler(["gaps", "--family", "P"], "levels"), "--levels", 0),
        (_cli_handler(["verify", "--window", "5x5"], "scan"), "--scan", 1),
        (_cli_handler(["verify", "--window", "5x5"], "depth"), "--depth", 1),
    ],
    ids=[
        "f", "walk", "enumerate_sorted", "minimal_fractional_subsequences", "predicted_record_indices",
        "rectangles_in_window_W", "rectangles_in_window_H", "verify_partition_W", "verify_partition_H",
        "large_gap_A", "large_gap_P", "verify_fg_at_convergents", "verify_monotone_fractional_chains", "extend_to",
        "cli_cf_depth", "cli_enum_count", "cli_tile_width", "cli_tile_height",
        "cli_gaps_levels_A", "cli_gaps_levels_P", "cli_verify_scan", "cli_verify_depth",
    ],
)
def test_every_count_follows_the_one_rule(call, name, least):
    # core_arith._count: least - 1 is refused with one message shape, a count past the int-to-str
    # limit is shown by its bit length, and an __index__ object at least is accepted.
    word = ("non-negative", "positive")[least]
    with pytest.raises(InvalidArgument, match=f"^{re.escape(name)} must be {word}, got {least - 1}$"):
        call(least - 1)
    with pytest.raises(InvalidArgument, match=f"^{re.escape(name)} must be {word}, got -<16610-bit integer>$"):
        call(-10**5000)
    call(_Index(least))


def test_a_table_that_is_not_a_table_is_named():
    # The queries catch the AttributeError of their one table read; the error does not chain it.
    for fn, rest in _TABLE_TAKERS:
        for _, table in _NOT_TABLES:
            with pytest.raises(NonIntegerArgument, match=f"^{fn.__name__} needs a ConvergentTable, got ") as exc:
                fn(table, *rest)
            assert exc.value.__suppress_context__ and exc.value.__cause__ is None


def test_parity_outside_0_1_is_value_error():
    with pytest.raises(ValueError, match="parity must be 0 or 1"):
        _table23.extend_until(10, "k", 2)



def test_results_are_grid_points():
    stream = SortedStream(_pair23)
    results = [
        next_point(_table23, (18, 4)),
        prev_point(_table23, GridPoint(7, 11)),
        *walk(_table23, (0, 0), 5),
        next(stream),
        next(stream),
        *(p for p, _ in enumerate_sorted(_pair23, 5)),
    ]
    assert results[:2] == [(7, 11), (18, 4)]
    for p in results:
        assert type(p) is GridPoint
        assert p._asdict() == {"i": p.i, "j": p.j}
        plain = (p.i, p.j)
        assert p == plain and plain == p and hash(p) == hash(plain)
        assert {p: 1}[plain] == 1


@pytest.mark.parametrize(
    "p,name",
    [((1.5, 2), "i"), ((2, 1.5), "j"), ((1.5, 2.5), "i"), (("1", 2), "i"), ((2, None), "j")],
)
def test_non_integer_coordinate_is_named(p, name):
    for query in (next_point, prev_point):
        with pytest.raises(NonIntegerArgument, match=f"^{name} must be an integer, got {p[name == 'j']!r}$"):
            query(_table23, p)


_POINT_TAKERS = [
    lambda p: next_point(_table23, p),
    lambda p: prev_point(_table23, p),
    lambda p: walk(_table23, p, 3),
    lambda p: locate(_table23, p),
    lambda p: locate_tilde(_table23, p),
    lambda p: value(_pair23, p),
    lambda p: naive_next(_pair23, p),
]


@pytest.mark.parametrize("p", [5, None, (1, 2, 3), (1,), "12", 2.5, b"12", bytearray(b"12"), range(3, 5)], ids=repr)
@pytest.mark.parametrize(
    "call", _POINT_TAKERS, ids=["next_point", "prev_point", "walk", "locate", "locate_tilde", "value", "naive_next"]
)
def test_a_point_that_is_not_a_pair_is_named_whole(call, p):
    # A LatticeError, and a TypeError like the other NonIntegerArguments.
    with pytest.raises(NonIntegerArgument, match=f"^grid point must be a pair of integers, got {re.escape(repr(p))}$"):
        call(p)


@pytest.mark.parametrize("p", [(3, 2), [3, 2], (True, 2), (3, False)], ids=repr)
def test_pairs_of_integers_in_any_sequence_are_points(p):
    # The fast path of next_point/prev_point takes exact ints; the rest goes through _grid_point.
    q = (int(p[0]), int(p[1]))
    assert next_point(_table23, p) == next_point(_table23, q)
    assert prev_point(_table23, p) == prev_point(_table23, q)


@pytest.mark.parametrize(
    "p", [(1.5, 2), (2, 2.0), (-1, 0), (0, 40.0), (2.5, 1), (0, -3), ("1", 2), (-10**5000, 0)],
    ids=["1.5,2", "2,2.0", "-1,0", "0,40.0", "2.5,1", "0,-3", "'1',2", "-10**5000,0"],
)
def test_grid_point_refuses_what_the_queries_refuse(p):
    # Same exception type and message from the constructor and from a query given the plain tuple.
    with pytest.raises(LatticeError) as built:
        GridPoint(*p)
    for query in (next_point, prev_point):
        with pytest.raises(LatticeError) as asked:
            query(_table23, p)
        assert (type(asked.value), str(asked.value)) == (type(built.value), str(built.value))


@pytest.mark.parametrize(
    "build",
    [
        lambda p: GridPoint._make([p[0], -1]),
        lambda p: p._replace(j=-1),
        lambda p: p._replace(i=2.5),
        lambda p: GridPoint(i=-1, j=p[1]),
    ],
    ids=["_make", "_replace_negative", "_replace_float", "keywords"],
)
def test_every_grid_point_constructor_checks(build):
    with pytest.raises(LatticeError):
        build(GridPoint(3, 2))


def test_grid_point_round_trips_through_pickle_and_copy():
    import copy
    import pickle

    p = GridPoint(3, 10**400)
    copies = [copy.copy(p), copy.deepcopy(p), p._replace(), GridPoint._make(p)]
    copies += [pickle.loads(pickle.dumps(p, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for q in copies:
        assert type(q) is GridPoint and q == p and (q.i, q.j) == (3, 10**400)
    assert GridPoint(True, 2) == (1, 2) and type(GridPoint(True, 2).i) is int


def test_grid_point_subclass_goes_through_the_check():
    # Only an exact GridPoint is taken as checked; a subclass is a tuple like any other.
    class Point(GridPoint):
        __slots__ = ()

    bad = tuple.__new__(Point, (-1, 0))
    with pytest.raises(InvalidArgument):
        next_point(_table23, bad)
    assert next_point(_table23, Point(3, 2)) == GridPoint(0, 4)


@pytest.mark.parametrize(
    "call",
    [
        lambda pair: f(pair, -10**5000),
        lambda pair: enumerate_sorted(pair, -10**5000),
        lambda pair: GridPoint(-10**5000, 0),
        lambda pair: next_point(ConvergentTable(pair), (-10**5000, 0)),
        lambda pair: walk(ConvergentTable(pair), (0, 0), -10**5000),
        lambda pair: compare_fraction(pair, -10**5000, 1),
        lambda pair: ConvergentTable(pair).extend_until(10, "k", -10**5000),
        lambda pair: minimal_fractional_subsequences(ConvergentTable(pair), -10**5000),
        lambda pair: predicted_record_indices(ConvergentTable(pair), -10**5000),
        lambda pair: rectangles_in_window(ConvergentTable(pair), -10**5000, 10),
        lambda pair: verify_partition(ConvergentTable(pair), -10**5000, 10),
    ],
    ids=[
        "f", "enumerate_sorted", "GridPoint", "next_point", "walk", "compare_fraction", "extend_until_parity",
        "minimal_fractional_subsequences", "predicted_record_indices", "rectangles_in_window", "verify_partition",
    ],
)
def test_huge_int_in_a_message_is_named_by_bit_length(call):
    # Past the interpreter's int-to-str limit (4300 digits); the message shows the bit length.
    with pytest.raises(InvalidArgument, match=r"-<16610-bit integer>"):
        call(_pair23)


@pytest.mark.parametrize("accessor", ["h", "k", "quotient"])
def test_huge_index_beyond_the_table_is_named_by_bit_length(accessor):
    with pytest.raises(IndexBeyondTable, match=r"^index <16610-bit integer> beyond table depth \d+$"):
        getattr(ConvergentTable(_pair23), accessor)(10**5000)


@pytest.mark.parametrize(
    "call,message",
    [
        (
            lambda: value(validate_pair(2, 3, bit_budget=10**5000), GridPoint(0, 10**5000)),
            r"^value at \(0, <16610-bit integer>\) needs ~<16611-bit integer> bits, budget is <16610-bit integer>$",
        ),
        (
            lambda: minimal_fractional_subsequences(ConvergentTable(validate_pair(2, 3, bit_budget=10**4400)), 10**5000),
            r"^record scan to N = <16610-bit integer> builds 3\*\*<16610-bit integer>, "
            r"more bits than the budget <14617-bit integer>$",
        ),
    ],
    ids=["value", "record_scan"],
)
def test_huge_ints_in_a_budget_message_are_named_by_bit_length(call, message):
    with pytest.raises(BudgetExceeded, match=message):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda pair: value(pair, GridPoint(0, 10**400)),
        lambda pair: value(pair, (10**400 // 2, 10**400 // 2)),
        lambda pair: minimal_fractional_subsequences(ConvergentTable(pair), 10**400 - 1),
    ],
    ids=["value", "value_both_exponents", "record_scan"],
)
def test_budget_rule_past_float_range_refuses_without_overflow(call):
    # Every exponent is within the budget of 10**400 bits, but the value is not; no float holds them.
    with pytest.raises(BudgetExceeded, match="bits"):
        call(validate_pair(2, 3, bit_budget=10**400))


def test_budget_rule_past_float_range_admits_what_fits():
    # Only the rule is run: the values it admits are far too large to build.
    pair = validate_pair(2, 3, bit_budget=10**400)
    for i, j in [(10**400 * 99 // 100, 0), (0, 10**400 * 10 // 16), (10**400 // 3, 10**400 // 3)]:
        assert _check_value_budget(pair, i, j) is None
    with pytest.raises(BudgetExceeded, match="needs ~"):
        _check_value_budget(pair, 0, 10**400 * 10 // 15)


def test_repr_of_a_pair_with_a_huge_generator():
    assert repr(validate_pair(3, 2**20000 + 1)) == "GeneratorPair(p1=3, p2=<20001-bit integer>, bit_budget=1000000)"
    assert repr(_pair23) == "GeneratorPair(p1=2, p2=3, bit_budget=1000000)"


@pytest.mark.parametrize("p1,p2", PAIR_ARGS)
def test_note_adjfact_translation_is_the_band_mediant(p1, p2):
    # Theorem FactRectangles with Note AdjFact: the successor of p is p*p1^dx*p2^dy,
    # with (dx, dy) = (k, -h) for an even-index mediant h/k (below alpha) and
    # (-k, h) for an odd-index one (above alpha); the tiling's rectangle names the band.
    W = H = 200
    pair = validate_pair(p1, p2)
    table = ConvergentTable(pair)
    bands = ConvergentTable(pair)  # mediants read from a second table, apart from the queries'
    for tilde in (False, True):
        lookup = locate_tilde if tilde else locate
        for r in rectangles_in_window(ConvergentTable(pair), W, H, tilde=tilde):
            n = 2 * r.level - r.family.startswith("A")
            bands.extend_to(n + 1)
            h = bands.h(n) + r.band * bands.h(n + 1)
            k = bands.k(n) + r.band * bands.k(n + 1)
            assert compare_fraction(pair, h, k) == (GREATER if n % 2 else LESS)
            dx, dy = (-k, h) if n % 2 else (k, -h)
            for x in range(max(r.x_min, 0), min(r.x_max + 1, W)):
                for y in range(max(r.y_min, 0), min(r.y_max + 1, H)):
                    p = GridPoint(x, y)
                    assert lookup(table, p) == r
                    if tilde:  # p is the image of its predecessor under the band's translation
                        q = prev_point(table, p)
                        assert (x - q.i, y - q.j) == (dx, dy) and next_point(table, q) == p
                    else:
                        q = next_point(table, p)
                        assert (q.i - x, q.j - y) == (dx, dy) and prev_point(table, q) == p
