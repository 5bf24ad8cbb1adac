"""Successor/predecessor queries on the exponent grid of S = {p1^i * p2^j}.

The grid decomposes into rectangles, one per band (n, t) of the continued
fraction of alpha (see `tiling.locate`). A translation built from a primary
or secondary convergent carries each rectangle onto its tilde partner and
every element onto its successor in sorted S; undoing the translation of the
tilde rectangle holding a point gives its predecessor. Each query is one
`cf_engine._rectangle` call, which finds the rectangle and applies its
translation: over h, k it gives the successor, over k, h the predecessor.
"""

from __future__ import annotations

from typing import NamedTuple

from .cf_engine import ConvergentTable, _rectangle
# NoPredecessor is raised in cf_engine._rectangle and exported from here.
from .core_arith import (
    BudgetExceeded,
    GeneratorPair,
    InvalidArgument,
    NoPredecessor,
    NonIntegerArgument,
    _integer,
)


class GridPoint(NamedTuple):
    i: int  # exponent of p1
    j: int  # exponent of p2


_point = tuple.__new__  # _point(GridPoint, (i, j)) skips the Python-level NamedTuple __new__


def _coords(p) -> tuple[int, int]:
    """Integer coordinates of p, a tuple or list pair of integers; anything else raises NonIntegerArgument."""
    if not isinstance(p, (tuple, list)) or len(p) != 2:  # bytes, range and the like are not points
        raise NonIntegerArgument(f"grid point must be a pair of integers, got {p!r}")
    x, y = _integer(p[0], "i"), _integer(p[1], "j")  # the error names the first bad coordinate
    if x < 0 or y < 0:
        raise InvalidArgument(f"grid point must be non-negative, got {tuple(p)}")
    return x, y


def next_point(table: ConvergentTable, p: GridPoint) -> GridPoint:
    """Coordinates of the successor of p1^i * p2^j in sorted S."""
    # A tuple of two non-negative exact ints passes; anything else goes through _coords and its errors.
    try:
        x, y = p
    except (TypeError, ValueError):
        x, y = _coords(p)
    if type(x) is not int or type(y) is not int or x < 0 or y < 0 or not isinstance(p, tuple):
        x, y = _coords(p)
    _, _, _, y, x = _rectangle(table, table._h_even, table._h_odd, table._k_even, table._k_odd, y, x)
    return _point(GridPoint, (x, y))


def walk(table: ConvergentTable, p: GridPoint, n: int) -> list[GridPoint]:
    """The n successors of p in sorted S: next_point iterated n times in one call."""
    n = _integer(n, "n")
    if n < 0:
        raise InvalidArgument(f"step count must be non-negative, got {n}")
    x, y = _coords(p)
    # append-only, so rows added mid-walk show here
    he, ho, ke, ko = table._h_even, table._h_odd, table._k_even, table._k_odd
    out = []
    for _ in range(n):
        _, _, _, y, x = _rectangle(table, he, ho, ke, ko, y, x)
        out.append(_point(GridPoint, (x, y)))
    return out


def prev_point(table: ConvergentTable, p: GridPoint) -> GridPoint:
    """Coordinates of the predecessor; raises NoPredecessor at (0, 0)."""
    try:
        x, y = p
    except (TypeError, ValueError):
        x, y = _coords(p)
    if type(x) is not int or type(y) is not int or x < 0 or y < 0 or not isinstance(p, tuple):
        x, y = _coords(p)
    _, _, _, x, y = _rectangle(table, table._k_even, table._k_odd, table._h_even, table._h_odd, x, y)
    return _point(GridPoint, (x, y))


def _check_value_budget(pair: GeneratorPair, i: int, j: int) -> None:
    """Refuse p1**i * p2**j with BudgetExceeded when it needs more bits than the budget."""
    budget = pair.bit_budget
    # log2(p) >= 1, so this also keeps exponents too large for a float out of the estimate.
    if i > budget or j > budget:
        raise BudgetExceeded(f"value at {(i, j)} has an exponent above the bit budget {budget}")
    lp1, lp2 = pair._log2
    bits = i * lp1 + j * lp2
    if bits > budget:
        raise BudgetExceeded(f"value at {(i, j)} needs ~{int(bits)} bits, budget is {budget}")


def value(pair: GeneratorPair, p: GridPoint) -> int:
    """Exact integer p1**i * p2**j."""
    i, j = _coords(p)
    _check_value_budget(pair, i, j)
    return pair.p1**i * pair.p2**j
