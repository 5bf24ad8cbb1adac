"""Successor/predecessor queries on the exponent grid of S = {p1^i * p2^j}.

The grid decomposes into two rectangle families A (i >= 1) and P (i >= 0)
indexed by a level and a band t; each rectangle is carried by a translation
onto its tilde partner, and that translation maps every element's
coordinates to the coordinates of its successor in sorted S. Locating a
point in the tilde partition and undoing the translation gives the
predecessor.
"""

from __future__ import annotations

from operator import index
from typing import NamedTuple

from .cf_engine import ConvergentTable, _band
from .core_arith import BudgetExceeded, GeneratorPair, InternalConsistencyError, LatticeError, _integer


class NoPredecessor(LatticeError):
    """(0, 0) is the least element of S."""


class GridPoint(NamedTuple):
    i: int  # exponent of p1
    j: int  # exponent of p2


_point = tuple.__new__  # _point(GridPoint, (i, j)) skips the Python-level NamedTuple __new__


class RectangleId(NamedTuple):
    """Position of a grid point inside the rectangle decomposition.

    family "A": source extents i in [k_{2L-1}+t*k_{2L}, +k_{2L}-1], j < h_{2L};
    family "P": source extents i < k_{2L+1}, j in [h_{2L}+t*h_{2L+1}, +h_{2L+1}-1].
    With tilde=True the same fields describe the translated (next-number)
    partition instead.
    """

    family: str  # "A" or "P"
    level: int
    band: int
    offset_r: int
    offset_s: int
    tilde: bool = False


def translation(table: ConvergentTable, family: str, level: int, band: int) -> tuple[int, int]:
    """Translation carrying the source rectangle onto its tilde partner."""
    if family == "A":
        return (
            -(table.k(2 * level - 1) + band * table.k(2 * level)),
            table.h(2 * level - 1) + band * table.h(2 * level),
        )
    if family == "P":
        return (
            table.k(2 * level) + band * table.k(2 * level + 1),
            -(table.h(2 * level) + band * table.h(2 * level + 1)),
        )
    raise ValueError(f"unknown family {family!r}")


def rectangle_point(table: ConvergentTable, rid: RectangleId) -> GridPoint:
    """Reconstruct the unique grid point a RectangleId denotes."""
    r, s = rid.offset_r, rid.offset_s
    dx, dy = translation(table, rid.family, rid.level, rid.band)
    if rid.family == "A":
        base = GridPoint(-dx + r, s)  # (k_{2L-1} + t*k_{2L} + r, s)
        return GridPoint(r, dy + s) if rid.tilde else base
    base = GridPoint(r, -dy + s)  # (r, h_{2L} + t*h_{2L+1} + s)
    return GridPoint(dx + r, s) if rid.tilde else base


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


def _source(table: ConvergentTable, x: int, y: int) -> tuple[str, int, int, int]:
    """(family, n, t, rem) of the source rectangle holding (x, y).

    Follows the covering argument: y falls in the P band of index n over the
    even h; the point is a P cell iff x < k_{n+1}, otherwise it falls in the
    A band of index n over the odd k, and then y < h_{n+1}.
    """
    n, t, rem = _band(table, "h", 0, y)
    if x < table._k[n + 1]:
        return "P", n, t, rem
    n, t, rem = _band(table, "k", 1, x)
    if y >= table._h[n + 1]:
        raise InternalConsistencyError(f"covering argument violated at ({x}, {y})")
    return "A", n, t, rem


def _tilde(table: ConvergentTable, x: int, y: int) -> tuple[str, int, int, int]:
    """(family, n, t, rem) of the translated rectangle holding (x, y) != (0, 0).

    The source search with the axes and h, k swapped.
    """
    if x == 0 and y == 0:
        raise NoPredecessor("no predecessor: (0, 0) is the least element of S")
    if x >= 1:
        n, t, rem = _band(table, "k", 0, x)
        if y < table._h[n + 1]:
            return "P", n, t, rem
    n, t, rem = _band(table, "h", 1, y)
    if x >= table._k[n + 1]:
        raise InternalConsistencyError(f"covering argument violated at ({x}, {y})")
    return "A", n, t, rem


def locate(table: ConvergentTable, p: GridPoint) -> RectangleId:
    """Find the unique source rectangle containing p."""
    x, y = _coords(p)
    family, n, t, rem = _source(table, x, y)
    if family == "P":
        return RectangleId("P", n // 2, t, x, rem)
    return RectangleId("A", (n + 1) // 2, t, rem, y)


def locate_tilde(table: ConvergentTable, p: GridPoint) -> RectangleId:
    """Find the unique translated (tilde) rectangle containing p != (0, 0)."""
    x, y = _coords(p)
    family, n, t, rem = _tilde(table, x, y)
    if family == "P":
        return RectangleId("P", n // 2, t, rem, y, tilde=True)
    return RectangleId("A", (n + 1) // 2, t, x, rem, tilde=True)


def next_point(table: ConvergentTable, p: GridPoint) -> GridPoint:
    """Coordinates of the successor of p1^i * p2^j in sorted S."""
    # Adding the translation leaves the band offset rem on the band's axis.
    x, y = _coords(p)
    family, n, t, rem = _source(table, x, y)
    if family == "P":
        k = table._k
        return _point(GridPoint, (x + k[n] + t * k[n + 1], rem))
    h = table._h
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
        family, m, t, rem = _source(table, x, y)
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
    family, n, t, rem = _tilde(table, x, y)
    if family == "P":
        h = table._h
        return _point(GridPoint, (rem, y + h[n] + t * h[n + 1]))
    k = table._k
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
