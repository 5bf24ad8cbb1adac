"""Rectangles of both partitions: point lookups, window enumeration, partition
verification and gap witnesses.

The partition verifier deliberately stays dumber than the theorem: it checks
that each window cell is covered exactly once (the translated family leaves
exactly the origin uncovered), without using where the theorem puts the
rectangles. The window is cut into runs of columns at the rectangles'
x-edges; every column of a run is covered by the same rectangles. One sweep
over the sorted edges keeps, for the current run, the sum of the covering
rectangles' row masks and the sum of their heights. The popcount of a sum of
masks equals the sum of their popcounts only when no two masks overlap, so a
run whose mask sum is its expected mask and whose height sum is that mask's
popcount covers each of its cells exactly once.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from itertools import islice
from typing import NamedTuple

from .cf_engine import ConvergentTable, _bands, _check_table
from .core_arith import GridPoint, InvalidArgument, _count, _grid_point, _integer, _show, value
from .successor import next_point, prev_point

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


def _translated_band(table: ConvergentTable, dx: int, dy: int, tilde: bool) -> Rectangle:
    """The rectangle of the band whose translation is (dx, dy), in the source or the tilde partition.

    A P band (n even) moves by (k, -h) for its mediant h/k, an A band (n odd)
    by (-k, h). The mediant k = k_n + t*k_{n+1} lies below k_{n+2}, so one
    bisect of the k list of n's parity gives n, and t follows. A source P
    band runs along y from h, an A band along x from k; tilde swaps them.
    """
    if dx > 0:
        family, h, k, ks, widths, parity = "P", -dy, dx, table._k_even, table._k_odd, 0
    else:
        family, h, k, ks, widths, parity = "A", dy, -dx, table._k_odd, table._k_even, 1
    m = bisect_right(ks, k) - 1
    t = (k - ks[m]) // widths[m + parity]
    along_x = (family == "A") != tilde
    return _band_rectangle(table, family + "~" * tilde, 2 * m + parity, t, k if along_x else h, along_x)


def locate(table: ConvergentTable, p: GridPoint) -> Rectangle:
    """The source rectangle ("A" or "P") holding p, as `rectangles_in_window` reports it."""
    _check_table(table, "locate")
    p = _grid_point(p)
    q = next_point(table, p)
    return _translated_band(table, q.i - p.i, q.j - p.j, False)


def locate_tilde(table: ConvergentTable, p: GridPoint) -> Rectangle:
    """The translated rectangle ("A~" or "P~") holding p != (0, 0), as `rectangles_in_window` reports it."""
    _check_table(table, "locate_tilde")
    p = _grid_point(p)
    q = prev_point(table, p)
    return _translated_band(table, p.i - q.i, p.j - q.j, True)


def rectangles_in_window(
    table: ConvergentTable, W: int, H: int, tilde: bool = False
) -> list[Rectangle]:
    """All rectangles of the family-set intersecting [0, W) x [0, H).

    Full (unclipped) extents are reported, ordered by family, level, band
    (the order in which the bands are enumerated). The source partition has
    A bands over the odd k and P bands over the even h; the tilde partition
    swaps h and k.
    """
    _check_table(table, "rectangles_in_window")
    W, H = _count(W, "W", 1), _count(H, "H", 1)
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
    tilde, after the origin column). Each clipped rectangle adds its y-mask
    and its height at x0 and takes them off at x1, so a sweep over the sorted
    edges holds each run's mask sum and height sum. A run is right iff its
    mask sum is the expected mask and its height sum that mask's popcount:
    the sum of popcounts exceeds the popcount of the sum whenever two masks
    overlap. Only a wrong run is painted, a cell painted twice counting as
    doubly covered, and expanded into its wrong cells, x then y ascending, up
    to 20 violations.
    """
    _check_table(table, "verify_partition")
    W, H = _integer(W, "W"), _integer(H, "H")
    rects = rectangles_in_window(table, W, H, tilde)
    clipped = []
    masks = dict.fromkeys((0, 1, W) if tilde else (0, W), 0)  # x -> change of the run's mask sum
    heights = masks.copy()  # x -> change of its height sum
    top = H - 1
    for _, _, _, x_min, x_max, y_min, y_max in rects:
        # Clipped to the window: columns x0 <= x < x1, rows y0 <= y <= y1.
        x0 = x_min if x_min > 0 else 0
        x1 = x_max + 1 if x_max < W else W
        y0 = y_min if y_min > 0 else 0
        y1 = y_max if y_max < top else top
        if x0 < x1 and y0 <= y1:
            rows = y1 - y0 + 1
            mask = ((1 << rows) - 1) << y0
            clipped.append((x0, x1, mask))
            masks[x0] = masks.get(x0, 0) + mask
            masks[x1] = masks.get(x1, 0) - mask
            heights[x0] = heights.get(x0, 0) + rows
            heights[x1] = heights.get(x1, 0) - rows
    edges = sorted(masks)
    full = (1 << H) - 1
    bad: list[tuple[int, int]] = []
    summed = height = 0
    for n in range(len(edges) - 1):
        x = edges[n]
        summed += masks[x]
        height += heights[x]
        expected, count = (full - 1, H - 1) if tilde and n == 0 else (full, H)
        if summed != expected or height != count:
            painted = doubled = 0
            for x0, x1, mask in clipped:
                if x0 <= x < x1:
                    doubled |= painted & mask
                    painted |= mask
            bad += islice(_cells(x, edges[n + 1], (painted ^ expected) | doubled), 20 - len(bad))
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
    _check_table(table, "large_gap")
    if family not in ("A", "P"):
        raise InvalidArgument(f"unknown family {_show(family)}")
    least = 1 if family == "A" else 0
    i = _count(level, "level", least)
    n = 2 * i - least  # A bands have odd n, P bands even n
    table.extend_to(n + 2)
    # The last band, t = a_{n+2} - 1, starts at u_{n+2} - u_{n+1}, with u = k for A and h for P.
    start = table._hk(n + 2)[family == "A"] - table._hk(n + 1)[family == "A"]
    last = _band_rectangle(table, family, n, table._a[n + 2] - 1, start, family == "A")
    point = GridPoint(last.x_max, last.y_max)
    succ = next_point(table, point)
    gap = value(table.pair, succ) - value(table.pair, point)
    return GapWitness(level=i, family=family, point=point, succ=succ, gap=gap)
