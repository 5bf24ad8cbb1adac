from functools import lru_cache

import pytest

from lattice_succ import GREATER, LESS, ConvergentTable, compare_fraction, validate_pair

# Pairs covering primes, a composite, and non-coprime composite generators.
PAIR_ARGS = [(2, 3), (2, 5), (3, 5), (2, 12), (6, 10)]


@lru_cache(maxsize=None)
def pair_for(p1: int, p2: int):
    return validate_pair(p1, p2)


@lru_cache(maxsize=None)
def table_for(p1: int, p2: int) -> ConvergentTable:
    # Tables are append-only, so sharing one per pair across tests is safe.
    return ConvergentTable(pair_for(p1, p2))


def safe_depth(table: ConvergentTable, target: int, k_cap: int = 100_000) -> int:
    """Extend toward `target` but stop once denominators pass k_cap.

    Keeps power comparisons inside the default bit budget for pairs whose
    continued fraction has huge partial quotients (e.g. (6, 10)).
    """
    while table.depth < target and table.convergents[-1][1] < k_cap:
        table.extend_to(table.depth + 1)
    return min(table.depth, target)


def columns(table: ConvergentTable) -> tuple[list[int], list[int], list[int]]:
    """The quotients a_i, numerators h_i and denominators k_i of the rows stored so far, as three lists."""
    h, k = zip(*table.convergents)
    return table.quotients, list(h), list(k)


def slow_quotients(pair, depth):
    """Independent oracle: rows (a_i, h_i, k_i) by a one-step mediant walk, no doubling tricks."""
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


@pytest.fixture
def pair23():
    return pair_for(2, 3)


@pytest.fixture
def table23() -> ConvergentTable:
    return table_for(2, 3)
