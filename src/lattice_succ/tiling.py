"""Rectangles of both partitions: point lookups, window enumeration, partition
verification and gap witnesses.

The partition verifier deliberately stays dumber than the theorem: it paints
every rectangle onto the window and checks each cell is covered exactly once
(the translated family leaves exactly the origin uncovered). The window is
cut into runs of columns at the rectangles' x-edges; every column of a run is
covered by the same rectangles, so each run is painted and checked once.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import islice
from typing import NamedTuple

from .cf_engine import ConvergentTable, _bands, _rectangle
from .core_arith import InvalidArgument, _integer
from .successor import GridPoint, _coords, next_point, value

_record = tuple.__new__  # _record(Rectangle, fields) skips the Python-level NamedTuple __new__


class Rectangle(NamedTuple):
    """Inclusive integer extents of band (n, t) of one family.

    family is "A", "P" (sources) or "A~", "P~" (translated partners); level
    is (n + 1) // 2 and band is t. See `_band_rectangle` for the extents.
    """

    family: str
    level: int
    band: int
    x_min: int
    x_max: int
    y_min: int
    y_max: int

    @property
    def width(self) -> int:
        return self.x_max - self.x_min + 1

    @property
    def height(self) -> int:
        return self.y_max - self.y_min + 1


class GapWitness(NamedTuple):
    """Consecutive pair of S spanning a large element-free integer interval."""

    level: int
    family: str
    point: GridPoint
    succ: GridPoint
    gap: int


class PartitionReport(NamedTuple):
    ok: bool
    width: int
    height: int
    tilde: bool
    rectangle_count: int
    violations: list[tuple[tuple[int, int], int]]  # ((x, y), cover count)


def _band_rectangle(table: ConvergentTable, family: str, n: int, t: int, start: int, along_x: bool) -> Rectangle:
    """The rectangle of band (n, t), which runs along x over k or along y over h.

    Along x it starts at x = start = k_n + t*k_{n+1}, is k_{n+1} wide and
    spans y < h_{n+1}; along y it starts at y = start = h_n + t*h_{n+1}, is
    h_{n+1} high and spans x < k_{n+1}. The table must hold row n + 1.
    """
    h1, k1 = table._hk(n + 1)
    if along_x:
        fields = (family, (n + 1) // 2, t, start, start + k1 - 1, 0, h1 - 1)
    else:
        fields = (family, (n + 1) // 2, t, 0, k1 - 1, start, start + h1 - 1)
    return _record(Rectangle, fields)


def locate(table: ConvergentTable, p: GridPoint) -> Rectangle:
    """The source rectangle ("A" or "P") holding p, as `rectangles_in_window` reports it."""
    x, y = _coords(p)
    family, m, t, c, d = _rectangle(table, table._h_even, table._h_odd, table._k_even, table._k_odd, y, x)
    # The translation keeps the offset from the band's start: c for a P cell, d for an A cell.
    start = y - c if family == "P" else x - d
    return _band_rectangle(table, family, 2 * m + (family == "A"), t, start, family == "A")


def locate_tilde(table: ConvergentTable, p: GridPoint) -> Rectangle:
    """The translated rectangle ("A~" or "P~") holding p != (0, 0), as `rectangles_in_window` reports it."""
    x, y = _coords(p)
    family, m, t, c, d = _rectangle(table, table._k_even, table._k_odd, table._h_even, table._h_odd, x, y)
    start = x - c if family == "P" else y - d
    return _band_rectangle(table, family + "~", 2 * m + (family == "A"), t, start, family == "P")


def rectangles_in_window(
    table: ConvergentTable, W: int, H: int, tilde: bool = False
) -> list[Rectangle]:
    """All rectangles of the family-set intersecting [0, W) x [0, H).

    Full (unclipped) extents are reported, ordered by family, level, band
    (the order in which the bands are enumerated). The source partition has
    A bands over the odd k and P bands over the even h; the tilde partition
    swaps h and k.
    """
    W, H = _integer(W, "W"), _integer(H, "H")
    if W < 1 or H < 1:
        raise InvalidArgument(f"window must be positive, got {W}x{H}")
    families = (("A~", "h", 1), ("P~", "k", 0)) if tilde else (("A", "k", 1), ("P", "h", 0))
    return [
        _band_rectangle(table, family, n, t, k if seq == "k" else h, seq == "k")
        for family, seq, parity in families
        for n, t, h, k in _bands(table, seq, parity, W if seq == "k" else H)
    ]


def verify_partition(
    table: ConvergentTable, W: int, H: int, tilde: bool = False
) -> PartitionReport:
    """Check every window cell lies in exactly one rectangle of the family-set.

    For the tilde families the origin must be covered by none. The window is
    split into runs of columns at the clipped rectangles' x-edges (and, for
    tilde, after the origin column). Each run is a bitmask over y: a cell
    painted twice is recorded as doubly covered, and every run must end equal
    to its expected mask. A wrong run is expanded into its cells, x then y
    ascending, up to 20 violations.
    """
    W, H = _integer(W, "W"), _integer(H, "H")
    rects = rectangles_in_window(table, W, H, tilde)
    clipped = []
    cuts = {0, 1, W} if tilde else {0, W}
    for r in rects:
        x0, x1 = max(r.x_min, 0), min(r.x_max + 1, W)
        y0, y1 = max(r.y_min, 0), min(r.y_max, H - 1)
        if x0 < x1 and y0 <= y1:
            clipped.append((x0, x1, ((1 << (y1 - y0 + 1)) - 1) << y0))
            cuts.add(x0)
            cuts.add(x1)
    edges = sorted(cuts)
    run = {x: n for n, x in enumerate(edges)}
    painted = [0] * (len(edges) - 1)
    doubled = painted.copy()
    for x0, x1, mask in clipped:
        for n in range(run[x0], run[x1]):
            doubled[n] |= painted[n] & mask
            painted[n] |= mask
    full = (1 << H) - 1
    bad: list[tuple[int, int]] = []
    for n in range(len(edges) - 1):
        expected = full & ~1 if tilde and n == 0 else full
        wrong = (painted[n] ^ expected) | doubled[n]
        if wrong:
            bad += islice(_cells(edges[n], edges[n + 1], wrong), 20 - len(bad))
            if len(bad) == 20:
                break
    violations = [
        ((x, y), sum(r.x_min <= x <= r.x_max and r.y_min <= y <= r.y_max for r in rects))
        for x, y in bad
    ]
    return PartitionReport(
        ok=not bad,
        width=W,
        height=H,
        tilde=tilde,
        rectangle_count=len(rects),
        violations=violations,
    )


def _cells(x0: int, x1: int, mask: int) -> Iterator[tuple[int, int]]:
    """The cells (x, y) of columns x0 <= x < x1 whose y bit is set in mask, x then y ascending."""
    for x in range(x0, x1):
        rest = mask
        while rest:
            low = rest & -rest
            yield x, low.bit_length() - 1
            rest ^= low


def large_gap(table: ConvergentTable, level: int, family: str = "A") -> GapWitness:
    """Gap witness at the far corner (x_max, y_max) of the last band of the given level.

    family "A" (level >= 1): point (k_{2i+1} - 1, h_{2i} - 1);
    family "P" (level >= 0): point (k_{2i+1} - 1, h_{2i+2} - 1).
    The successor follows from the rectangle translation; the gap is the
    exact integer difference of the two values.
    """
    i = _integer(level, "level")
    if family not in ("A", "P"):
        raise InvalidArgument(f"unknown family {family!r}")
    least = 1 if family == "A" else 0
    if i < least:
        raise InvalidArgument(f"{family}-family witnesses need level >= {least}")
    n = 2 * i - least  # A bands have odd n, P bands even n
    table.extend_to(n + 2)
    # The last band, t = a_{n+2} - 1, starts at u_{n+2} - u_{n+1}, with u = k for A and h for P.
    start = table._hk(n + 2)[family == "A"] - table._hk(n + 1)[family == "A"]
    last = _band_rectangle(table, family, n, table._a[n + 2] - 1, start, family == "A")
    point = GridPoint(last.x_max, last.y_max)
    succ = next_point(table, point)
    gap = value(table.pair, succ) - value(table.pair, point)
    return GapWitness(level=i, family=family, point=point, succ=succ, gap=gap)
