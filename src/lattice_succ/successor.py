"""Successor/predecessor queries on the exponent grid of S = {p1^i * p2^j}.

The grid decomposes into rectangles, one per band (n, t) of the continued
fraction of alpha (see `tiling.locate`). A translation built from a primary
or secondary convergent carries each rectangle onto its tilde partner and
every element onto its successor in sorted S; undoing the translation of the
tilde rectangle holding a point gives its predecessor. Each query is one
`cf_engine._rectangle` call plus that translation, written out inline in
`next_point`, `prev_point` and `walk`.
"""

from __future__ import annotations

from operator import index
from typing import NamedTuple

from .cf_engine import ConvergentTable, _rectangle
# NoPredecessor is raised in cf_engine._rectangle and exported from here.
from .core_arith import BudgetExceeded, GeneratorPair, NoPredecessor, _integer


class GridPoint(NamedTuple):
    i: int  # exponent of p1
    j: int  # exponent of p2


_point = tuple.__new__  # _point(GridPoint, (i, j)) skips the Python-level NamedTuple __new__


def _coords(p) -> tuple[int, int]:
    """Integer coordinates of p; anything without __index__ raises NonIntegerArgument."""
    i, j = p
    try:
        x, y = index(i), index(j)
    except TypeError:  # redone one at a time so the error names the bad coordinate
        x, y = _integer(i, "i"), _integer(j, "j")
    if x < 0 or y < 0:
        raise ValueError(f"grid point must be non-negative, got {tuple(p)}")
    return x, y


def next_point(table: ConvergentTable, p: GridPoint) -> GridPoint:
    """Coordinates of the successor of p1^i * p2^j in sorted S."""
    # Adding the translation leaves the band offset rem on the band's axis.
    x, y = _coords(p)
    h, k = table._h, table._k
    family, n, t, rem = _rectangle(table, h, k, y, x)
    if family == "P":
        return _point(GridPoint, (x + k[n] + t * k[n + 1], rem))
    return _point(GridPoint, (rem, y + h[n] + t * h[n + 1]))


def walk(table: ConvergentTable, p: GridPoint, n: int) -> list[GridPoint]:
    """The n successors of p in sorted S: next_point iterated n times in one call."""
    n = _integer(n, "n")
    if n < 0:
        raise ValueError(f"step count must be non-negative, got {n}")
    x, y = _coords(p)
    h, k = table._h, table._k  # append-only, so rows added mid-walk show here
    out = []
    for _ in range(n):
        family, m, t, rem = _rectangle(table, h, k, y, x)
        if family == "P":
            x, y = x + k[m] + t * k[m + 1], rem
        else:
            x, y = rem, y + h[m] + t * h[m + 1]
        out.append(_point(GridPoint, (x, y)))
    return out


def prev_point(table: ConvergentTable, p: GridPoint) -> GridPoint:
    """Coordinates of the predecessor; raises NoPredecessor at (0, 0)."""
    # Undoing the translation leaves the band offset rem on the band's axis.
    x, y = _coords(p)
    h, k = table._h, table._k
    family, n, t, rem = _rectangle(table, k, h, x, y)
    if family == "P":
        return _point(GridPoint, (rem, y + h[n] + t * h[n + 1]))
    return _point(GridPoint, (x + k[n] + t * k[n + 1], rem))


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
