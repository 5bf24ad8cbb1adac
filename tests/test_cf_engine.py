import math
import sys
import threading

import pytest

from lattice_succ import (
    GREATER,
    LESS,
    ConvergentTable,
    IndexBeyondTable,
    compare_fraction,
    secondary_convergents,
)

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


class TestSecondaryConvergents:
    def test_level_2(self, table23):
        table23.extend_to(4)
        secs = secondary_convergents(table23, 2)
        assert [(s.numerator, s.denominator) for s in secs] == [(3, 5)]

    def test_level_1_empty(self, table23):
        table23.extend_to(3)
        assert secondary_convergents(table23, 1) == []

    def test_level_4(self, table23):
        table23.extend_to(6)
        secs = secondary_convergents(table23, 4)
        assert [(s.numerator, s.denominator) for s in secs] == [(17, 27), (29, 46)]

    def test_requires_depth(self, table23):
        with pytest.raises(IndexBeyondTable):
            secondary_convergents(table23, table23.depth - 1)

    @pytest.mark.parametrize("p1,p2", PAIR_ARGS)
    def test_between_and_on_correct_side(self, p1, p2):
        table = table_for(p1, p2)
        depth = safe_depth(table, 10)
        pair = table.pair
        for level in range(depth - 1):
            lo = table.h(level) * table.k(level + 2)
            hi = table.h(level + 2) * table.k(level)
            for s in secondary_convergents(table, level):
                assert math.gcd(s.numerator, s.denominator) == 1
                # strictly between convergents `level` and `level + 2`
                a = s.numerator * table.k(level)
                b = table.h(level) * s.denominator
                c = s.numerator * table.k(level + 2)
                d = table.h(level + 2) * s.denominator
                if level % 2 == 0:
                    assert a > b and c < d
                    assert compare_fraction(pair, s.numerator, s.denominator) == LESS
                else:
                    assert a < b and c > d
                    assert compare_fraction(pair, s.numerator, s.denominator) == GREATER


def test_monotone_secondary_chain(table23):
    # mediant chain at an even level increases toward alpha
    table23.extend_to(8)
    secs = secondary_convergents(table23, 6)
    fracs = [(table23.h(6), table23.k(6))] + [(s.numerator, s.denominator) for s in secs] + [
        (table23.h(8), table23.k(8))
    ]
    for (h1, k1), (h2, k2) in zip(fracs, fracs[1:]):
        assert h1 * k2 < h2 * k1
