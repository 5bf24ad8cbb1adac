import math
import random
import subprocess
import sys
import threading
import traceback
from pathlib import Path

import pytest

import lattice_succ
from lattice_succ import (
    DEFAULT_BIT_BUDGET,
    GREATER,
    LESS,
    BudgetExceeded,
    ConvergentTable,
    GridPoint,
    IndexBeyondTable,
    cf_engine,
    compare_fraction,
    core_arith,
    locate,
    locate_tilde,
    next_point,
    prev_point,
    validate_pair,
    walk,
)
from lattice_succ.cf_engine import _bands

from conftest import PAIR_ARGS, pair_for, safe_depth, slow_quotients, table_for


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


@pytest.mark.parametrize("p1,p2", PAIR_ARGS)
def test_quotients_to_depth_60_match_slow_mediant_walk(p1, p2):
    # A budget of 10**40 bits lets both reach k_60 (about 1e28 to 1e32).
    pair = validate_pair(p1, p2, bit_budget=10**40)
    table = ConvergentTable(pair).extend_to(60)
    assert table.k(60) > 10**27
    assert slow_quotients(pair, 60) == [(table.quotient(i), table.h(i), table.k(i)) for i in range(61)]


@pytest.mark.parametrize("p1,p2", [(2, 4), (4, 8), (9, 27), (2, 1024)])
def test_dependent_pair_ends_in_rational_log_ratio(p1, p2):
    # Built directly, bypassing validate_pair: alpha is rational, so no
    # interval separates its last quotient at any precision, and the table
    # must find the dependence instead of doubling forever. Run apart, so a
    # loop that never ends fails the test at the timeout instead of hanging it.
    code = (
        "import lattice_succ\n"
        f"table = lattice_succ.ConvergentTable(lattice_succ.GeneratorPair({p1}, {p2}))\n"
        "try:\n"
        "    table.extend_to(3)\n"
        "except lattice_succ.RationalLogRatio:\n"
        "    print('RationalLogRatio', table.depth)\n"
    )
    src = str(Path(lattice_succ.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, cwd=src, check=True)
    assert done.stdout.split()[0] == "RationalLogRatio"


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


def _assert_parity_lists(table):
    """The four parity lists are h and k of slow_quotients' rows split by index parity."""
    rows = slow_quotients(table.pair, table.depth)
    h, k = [row[1] for row in rows], [row[2] for row in rows]
    assert table._h_even == h[0::2] and table._h_odd == h[1::2]
    assert table._k_even == k[0::2] and table._k_odd == k[1::2]


@pytest.mark.parametrize("p1,p2", PAIR_ARGS)
def test_parity_lists_follow_the_flat_lists(p1, p2):
    table = ConvergentTable(pair_for(p1, p2))
    _assert_parity_lists(table)  # depth 0: the odd lists are empty
    for step in (
        lambda: table.extend_to(3),
        lambda: table.extend_until(50, "h", 0),
        lambda: table.extend_until(200, "k", 1),
        lambda: next_point(table, GridPoint(300, 40)),
        lambda: prev_point(table, GridPoint(40, 300)),
        lambda: locate_tilde(table, GridPoint(900, 0)),
        lambda: walk(table, GridPoint(0, 0), 2000),
    ):
        step()
        _assert_parity_lists(table)
    assert table.depth > 4  # the queries grew the table past extend_to(3)


def test_concurrent_lookups_match_single_thread():
    # walk, locate and locate_tilde grow a fresh table from four threads;
    # lock-free readers must never see a row in one list and not another.
    def outcome(table, query, arg):
        try:
            if query == "walk":
                return walk(table, arg, 40)
            return (locate if query == "locate" else locate_tilde)(table, arg)
        except BudgetExceeded as exc:
            return str(exc)

    rng = random.Random(7)
    queries = [("walk", GridPoint(rng.randrange(400), rng.randrange(400))) for _ in range(8)]
    queries += [
        (query, GridPoint(int(10 ** rng.uniform(0, 4)), int(10 ** rng.uniform(0, 4))))
        for query in ("locate", "locate_tilde")
        for _ in range(40)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for p1, p2 in PAIR_ARGS:
            reference = ConvergentTable(pair_for(p1, p2))
            want = [outcome(reference, *q) for q in queries]
            for trial in range(10):
                table = ConvergentTable(pair_for(p1, p2))
                start = threading.Barrier(4, timeout=60)
                got = [dict() for _ in range(4)]

                def run(seen, order):
                    start.wait()
                    for idx in order:
                        seen[idx] = outcome(table, *queries[idx])

                orders = [random.Random(trial * 4 + n).sample(range(len(queries)), len(queries)) for n in range(4)]
                threads = [threading.Thread(target=run, args=(got[n], orders[n])) for n in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                for seen in got:
                    assert [seen[idx] for idx in range(len(queries))] == want, (p1, p2, trial)
                assert table.depth == reference.depth
                _assert_parity_lists(table)
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
    limit = table.k(level + 2)
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
    return GridPoint(0, table.h(table.depth) + 1)


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
            assert _refusal(lambda: table.extend_until(table.k(depth), "k", depth % 2)) == (kind, message)
            assert _refusal(lambda: next_point(table, past)) == (kind, message)
            assert _refusal(lambda: prev_point(table, past)) == (kind, message)
            assert _hit_wall(table) == first
        assert table.depth == depth

    @pytest.mark.parametrize("budget", [64, 400])
    @pytest.mark.parametrize("p1,p2", PAIR_ARGS)
    def test_a_refused_row_appends_to_no_list(self, p1, p2, budget):
        table = ConvergentTable(validate_pair(p1, p2, bit_budget=budget))
        _, _, depth = _hit_wall(table)
        _assert_parity_lists(table)
        lists = (table._a, table._h_even, table._h_odd, table._k_even, table._k_odd)
        lengths = [len(values) for values in lists]
        past = _past_wall(table)
        for call in (
            lambda: table.extend_to(depth + 1),
            lambda: table.extend_until(table.h(depth), "h", 0),
            lambda: table.extend_until(table.k(depth), "k", 1),
            lambda: next_point(table, past),
            lambda: prev_point(table, past),
            lambda: locate_tilde(table, past),
        ):
            _refusal(call)
            _assert_parity_lists(table)
            assert [len(values) for values in lists] == lengths

    @pytest.mark.parametrize("p1,p2", PAIR_ARGS)
    def test_known_wall_makes_no_comparison(self, p1, p2, monkeypatch):
        table = ConvergentTable(validate_pair(p1, p2))
        calls = _count_affine_sign(monkeypatch)
        _, message, depth = _hit_wall(table)
        assert calls == []  # growth to the wall compares nothing, and neither does the first refusal
        past = _past_wall(table)
        for call in (
            lambda: table.extend_to(depth + 1),
            lambda: table.extend_until(table.k(depth), "k", 0),
            lambda: table.extend_until(table.h(depth), "h", 1),
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

    def test_threads_below_and_past_the_wall_match_one_thread(self):
        # _grow re-reads its list under the lock, so a row another thread
        # appended just before the wall counts and is not refused. A budget of
        # 40 puts the wall inside the grid: some queries are refused.
        pair = validate_pair(2, 3, bit_budget=40)
        queries = [
            (query, GridPoint(x, y))
            for query in (next_point, prev_point)
            for x in range(0, 100, 9)
            for y in range(0, 60, 4)
            if x or y
        ]

        def outcome(table, query, p):
            try:
                return query(table, p)
            except BudgetExceeded as exc:
                return str(exc)

        reference = ConvergentTable(pair)
        want = [outcome(reference, query, p) for query, p in queries]
        assert {type(w) for w in want} == {GridPoint, str}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(20):
                table = ConvergentTable(pair)
                start = threading.Barrier(4, timeout=60)
                got = [dict() for _ in range(4)]

                def run(seen, order):
                    start.wait()
                    for idx in order:
                        seen[idx] = outcome(table, *queries[idx])

                orders = [random.Random(trial * 4 + n).sample(range(len(queries)), len(queries)) for n in range(4)]
                threads = [threading.Thread(target=run, args=(got[n], orders[n])) for n in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                for seen in got:
                    assert [seen[idx] for idx in range(len(queries))] == want, trial
                assert table.depth == reference.depth
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("seam", ["_grow", "lock"], ids=["in_band", "in_extend_until"])
    def test_extension_between_depth_read_and_wall_read(self, monkeypatch, seam):
        # The race above, forced: another extension runs to the wall at the
        # seam, after a read of the table and before the locked re-read. _grow is
        # entered after _rectangle's read of the last entry of a parity list;
        # on a fresh table the first acquisition of the table lock is _grow's,
        # after that read and before its locked re-read of the list. Neither
        # seam holds the table lock, so the competing extension can take it.
        pair = validate_pair(2, 3, bit_budget=400)
        reference = ConvergentTable(pair)
        _, _, depth = _hit_wall(reference)
        answered = 0
        for query in (next_point, prev_point):
            for p in (GridPoint(x, y) for x in range(0, 100, 9) for y in range(0, 60, 4) if x or y):
                try:
                    want = query(reference, p)
                except BudgetExceeded:
                    continue
                table, calls = ConvergentTable(pair), []
                lock = table._lock

                def compete():
                    calls.append(None)
                    if len(calls) == 1:
                        assert not lock.locked()  # extend_to would deadlock under it
                        with pytest.raises(BudgetExceeded):
                            table.extend_to(depth + 1)

                if seam == "_grow":
                    real = cf_engine._grow

                    def interleaved(*args):
                        compete()
                        return real(*args)

                    monkeypatch.setattr(cf_engine, "_grow", interleaved)
                    got = query(table, p)
                    monkeypatch.setattr(cf_engine, "_grow", real)
                else:

                    class Interleaved:
                        # The competing extend_to enters here too, as the second call, and takes the real lock.
                        def __enter__(self):
                            compete()
                            return lock.__enter__()

                        def __exit__(self, *exc):
                            return lock.__exit__(*exc)

                    table._lock = Interleaved()
                    got = query(table, p)
                assert got == want and calls and table.depth == depth, p
                answered += 1
        assert answered > 100

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
