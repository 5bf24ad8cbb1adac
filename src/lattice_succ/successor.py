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
from .core_arith import BudgetExceeded, GeneratorPair, NoPredecessor, NonIntegerArgument, _integer


class GridPoint(NamedTuple):
    i: int  # exponent of p1
    j: int  # exponent of p2


_point = tuple.__new__  # _point(GridPoint, (i, j)) skips the Python-level NamedTuple __new__


def _coords(p) -> tuple[int, int]:
    """Integer coordinates of p; a non-pair or a coordinate without __index__ raises NonIntegerArgument."""
    try:
        i, j = p
    except (TypeError, ValueError):  # not iterable, or not two items
        raise NonIntegerArgument(f"grid point must be a pair of integers, got {p!r}") from None
    try:
        x, y = index(i), index(j)
    except TypeError:
        if isinstance(p, str):  # its two characters are not coordinates
            raise NonIntegerArgument(f"grid point must be a pair of integers, got {p!r}") from None
        # redone one at a time so the error names the bad coordinate
        x, y = _integer(i, "i"), _integer(j, "j")
    if x < 0 or y < 0:
        raise ValueError(f"grid point must be non-negative, got {tuple(p)}")
    return x, y


def next_point(table: ConvergentTable, p: GridPoint) -> GridPoint:
    """Coordinates of the successor of p1^i * p2^j in sorted S."""
    # Two non-negative exact ints pass; anything else goes through _coords and its errors.
    try:
        x, y = p
    except (TypeError, ValueError):
        x, y = _coords(p)
    if type(x) is not int or type(y) is not int or x < 0 or y < 0:
        x, y = _coords(p)
    # Adding the translation leaves the band offset rem on the band's axis.
    he, ho, ke, ko = table._h_even, table._h_odd, table._k_even, table._k_odd
    family, m, t, rem = _rectangle(table, he, ho, ke, ko, y, x)
    if family == "P":
        return _point(GridPoint, (x + ke[m] + t * ko[m], rem))
    return _point(GridPoint, (rem, y + ho[m] + t * he[m + 1]))


def walk(table: ConvergentTable, p: GridPoint, n: int) -> list[GridPoint]:
    """The n successors of p in sorted S: next_point iterated n times in one call."""
    n = _integer(n, "n")
    if n < 0:
        raise ValueError(f"step count must be non-negative, got {n}")
    x, y = _coords(p)
    # append-only, so rows added mid-walk show here
    he, ho, ke, ko = table._h_even, table._h_odd, table._k_even, table._k_odd
    out = []
    for _ in range(n):
        family, m, t, rem = _rectangle(table, he, ho, ke, ko, y, x)
        if family == "P":
            x, y = x + ke[m] + t * ko[m], rem
        else:
            x, y = rem, y + ho[m] + t * he[m + 1]
        out.append(_point(GridPoint, (x, y)))
    return out


def prev_point(table: ConvergentTable, p: GridPoint) -> GridPoint:
    """Coordinates of the predecessor; raises NoPredecessor at (0, 0)."""
    try:
        x, y = p
    except (TypeError, ValueError):
        x, y = _coords(p)
    if type(x) is not int or type(y) is not int or x < 0 or y < 0:
        x, y = _coords(p)
    # Undoing the translation leaves the band offset rem on the band's axis.
    he, ho, ke, ko = table._h_even, table._h_odd, table._k_even, table._k_odd
    family, m, t, rem = _rectangle(table, ke, ko, he, ho, x, y)
    if family == "P":
        return _point(GridPoint, (rem, y + he[m] + t * ho[m]))
    return _point(GridPoint, (x + ko[m] + t * ke[m + 1], rem))


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
