import math
import random
import sys
import threading
import traceback

import pytest

from lattice_succ import (
    DEFAULT_BIT_BUDGET,
    GREATER,
    LESS,
    BudgetExceeded,
    ConvergentTable,
    GridPoint,
    IndexBeyondTable,
    compare_fraction,
    core_arith,
    next_point,
    prev_point,
    validate_pair,
)
from lattice_succ.cf_engine import _bands

from conftest import PAIR_ARGS, pair_for, safe_depth, table_for


def slow_quotients(pair, depth):
    """Independent oracle: one-step mediant walk, no doubling tricks."""
    rows = [(0, 0, 1)]
    hp, kp = 1, 0
    while len(rows) <= depth:
        m = len(rows) - 1
        _, hm, km = rows[m]
        side_prev = LESS if (m - 1) % 2 == 0 else GREATER
        t = 1
        while compare_fraction(pair, hp + (t + 1) * hm, kp + (t + 1) * km) == side_prev:
            t += 1
        rows.append((t, hp + t * hm, kp + t * km))
        hp, kp = hm, km
    return rows


def test_quotients_2_3(table23):
    table23.extend_to(10)
    assert table23.quotients[:11] == [0, 1, 1, 1, 2, 2, 3, 1, 5, 2, 23]


def test_convergents_2_3(table23):
    table23.extend_to(8)
    assert table23.convergents[:9] == [
        (0, 1),
        (1, 1),
        (1, 2),
        (2, 3),
        (5, 8),
        (12, 19),
        (41, 65),
        (53, 84),
        (306, 485),
    ]


def test_row_zero(table23):
    assert (table23.h(0), table23.k(0)) == (0, 1)
    assert table23.quotient(0) == 0


def test_determinant_example(table23):
    table23.extend_to(5)
    assert table23.h(4) * table23.k(5) - table23.k(4) * table23.h(5) == 5 * 19 - 8 * 12 == -1


@pytest.mark.parametrize("p1,p2", PAIR_ARGS)
def test_table_invariants(p1, p2):
    table = table_for(p1, p2)
    depth = safe_depth(table, 12)
    pair = table.pair
    for i in range(depth - 1):
        # recurrence
        assert table.h(i + 2) == table.quotient(i + 2) * table.h(i + 1) + table.h(i)
        assert table.k(i + 2) == table.quotient(i + 2) * table.k(i + 1) + table.k(i)
    for i in range(depth):
        # determinant and lowest terms
        det = table.h(i) * table.k(i + 1) - table.k(i) * table.h(i + 1)
        assert abs(det) == 1
        assert math.gcd(table.h(i), table.k(i)) == 1
        # parity versus alpha: even below, odd above
        side = compare_fraction(pair, table.h(i), table.k(i))
        assert side == (LESS if i % 2 == 0 else GREATER)
    for i in range(1, depth + 1):
        assert table.quotient(i) >= 1


@pytest.mark.parametrize("p1,p2", PAIR_ARGS)
def test_agrees_with_slow_mediant_walk(p1, p2):
    table = table_for(p1, p2)
    depth = safe_depth(table, 8)
    assert slow_quotients(table.pair, depth) == [
        (table.quotient(i), table.h(i), table.k(i)) for i in range(depth + 1)
    ]


def test_extend_until(table23):
    table23.extend_until(1000, seq="k", parity=1)
    d = table23.depth if table23.depth % 2 == 1 else table23.depth - 1
    assert table23.k(d) > 1000
    with pytest.raises(ValueError):
        table23.extend_until(10, seq="x")


def test_concurrent_extension_matches_single_thread():
    want = ConvergentTable(pair_for(2, 3)).extend_to(14).quotients
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            table = ConvergentTable(pair_for(2, 3))
            errors = []

            def extend():
                try:
                    table.extend_to(14)
                except Exception as exc:  # reported below; a thread's raise is otherwise lost
                    errors.append(exc)

            threads = [threading.Thread(target=extend) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert table.quotients == want
    finally:
        sys.setswitchinterval(interval)


def test_index_beyond_table():
    table = ConvergentTable(pair_for(2, 3))
    with pytest.raises(IndexBeyondTable):
        table.k(table.depth + 1)
    with pytest.raises(IndexBeyondTable):
        table.h(-1)


def secondary(table, level):
    """(h, k) of the secondary convergents strictly between `level` and `level + 2`.

    The t > 0 mediants of band `level` in `_bands`; the table must already
    reach index level + 2.
    """
    limit = table._k[level + 2]
    return [(h, k) for n, t, h, k in _bands(table, "k", level % 2, limit) if n == level and t]


class TestSecondaryConvergents:
    def test_level_2(self, table23):
        table23.extend_to(4)
        assert secondary(table23, 2) == [(3, 5)]

    def test_level_1_empty(self, table23):
        table23.extend_to(3)
        assert secondary(table23, 1) == []

    def test_level_4(self, table23):
        table23.extend_to(6)
        assert secondary(table23, 4) == [(17, 27), (29, 46)]

    @pytest.mark.parametrize("p1,p2", PAIR_ARGS)
    def test_between_and_on_correct_side(self, p1, p2):
        table = table_for(p1, p2)
        depth = safe_depth(table, 10)
        pair = table.pair
        for level in range(depth - 1):
            for num, den in secondary(table, level):
                assert math.gcd(num, den) == 1
                # strictly between convergents `level` and `level + 2`
                a = num * table.k(level)
                b = table.h(level) * den
                c = num * table.k(level + 2)
                d = table.h(level + 2) * den
                if level % 2 == 0:
                    assert a > b and c < d
                    assert compare_fraction(pair, num, den) == LESS
                else:
                    assert a < b and c > d
                    assert compare_fraction(pair, num, den) == GREATER


def test_monotone_secondary_chain(table23):
    # mediant chain at an even level increases toward alpha
    table23.extend_to(8)
    fracs = [(table23.h(6), table23.k(6))] + secondary(table23, 6) + [(table23.h(8), table23.k(8))]
    for (h1, k1), (h2, k2) in zip(fracs, fracs[1:]):
        assert h1 * k2 < h2 * k1


def _refusal(call):
    """(type, message) of the BudgetExceeded that call raises."""
    with pytest.raises(BudgetExceeded) as exc:
        call()
    return type(exc.value), str(exc.value)


def _hit_wall(table):
    """Extend row by row until the budget refuses; (type, message, depth) of that refusal."""
    while True:
        try:
            table.extend_to(table.depth + 1)
        except BudgetExceeded as exc:
            return type(exc), str(exc), table.depth


def _past_wall(table):
    """A grid point whose band in both the source and the tilde search lies past the table."""
    return GridPoint(0, max(table._h) + 1)


def _count_affine_sign(monkeypatch):
    calls = []
    real = core_arith._affine_sign

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(core_arith, "_affine_sign", spy)
    return calls


class TestRememberedWall:
    @pytest.mark.parametrize("budget", [DEFAULT_BIT_BUDGET, 64, 400])
    @pytest.mark.parametrize("p1,p2", PAIR_ARGS)
    def test_repeated_refusals_match_the_first(self, p1, p2, budget):
        pair = validate_pair(p1, p2, bit_budget=budget)
        first = _hit_wall(ConvergentTable(pair))
        table = ConvergentTable(pair)
        assert _hit_wall(table) == first
        kind, message, depth = first
        past = _past_wall(table)
        for _ in range(3):
            assert _refusal(lambda: table.extend_to(depth + 1)) == (kind, message)
            assert _refusal(lambda: table.extend_to(depth + 40)) == (kind, message)
            assert _refusal(lambda: table.extend_until(max(table._k), "k", depth % 2)) == (kind, message)
            assert _refusal(lambda: next_point(table, past)) == (kind, message)
            assert _refusal(lambda: prev_point(table, past)) == (kind, message)
            assert _hit_wall(table) == first
        assert table.depth == depth

    @pytest.mark.parametrize("p1,p2", PAIR_ARGS)
    def test_known_wall_makes_no_comparison(self, p1, p2, monkeypatch):
        table = ConvergentTable(validate_pair(p1, p2))
        calls = _count_affine_sign(monkeypatch)
        _, message, depth = _hit_wall(table)
        assert calls  # the first refusal compared
        calls.clear()
        past = _past_wall(table)
        for call in (
            lambda: table.extend_to(depth + 1),
            lambda: table.extend_until(max(table._k), "k", 0),
            lambda: table.extend_until(max(table._h), "h", 1),
            lambda: next_point(table, past),
            lambda: prev_point(table, past),
        ):
            assert _refusal(call) == (BudgetExceeded, message)
        assert calls == []
        assert table.depth == depth

    def test_threads_share_one_refusal(self):
        pair = validate_pair(2, 3)
        _, message, depth = _hit_wall(ConvergentTable(pair))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                table = ConvergentTable(pair)
                seen = []

                def hit():
                    for _ in range(20):
                        try:
                            table.extend_to(depth + 5)
                        except Exception as exc:  # checked below; a thread's raise is otherwise lost
                            seen.append((type(exc), str(exc)))

                threads = [threading.Thread(target=hit) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert seen == [(BudgetExceeded, message)] * 80
                assert table.depth == depth
        finally:
            sys.setswitchinterval(interval)

    def test_traceback_does_not_grow(self):
        table = ConvergentTable(validate_pair(2, 3))
        _hit_wall(table)
        frames, previous = set(), None
        for _ in range(1000):
            try:
                table.extend_to(table.depth + 1)
            except BudgetExceeded as exc:
                assert exc is not previous
                frames.add(len(traceback.extract_tb(exc.__traceback__)))
                previous = exc
        assert len(frames) == 1 and frames.pop() <= 3

    @pytest.mark.parametrize("p1,p2", PAIR_ARGS)
    def test_answers_match_a_fresh_table(self, p1, p2):
        pair = validate_pair(p1, p2)
        walled = ConvergentTable(pair)
        _hit_wall(walled)
        rng = random.Random(p1 * 100 + p2)

        def outcome(query, table, p):
            try:
                return query(table, p)
            except BudgetExceeded as exc:
                return type(exc), str(exc)

        answered = 0
        for _ in range(60):
            p = GridPoint(*(int(10 ** rng.uniform(2, 6)) for _ in range(2)))
            for query in (next_point, prev_point):
                got = outcome(query, walled, p)
                assert got == outcome(query, ConvergentTable(pair), p)
                answered += isinstance(got, GridPoint)
        assert answered  # some of the points lie below the wall
