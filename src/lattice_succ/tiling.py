"""Materialized rectangle families, partition verification, and gap witnesses.

The partition verifier deliberately stays dumber than the theorem: it paints
every rectangle onto the window's cells and checks each cell is covered
exactly once (the translated family leaves exactly the origin uncovered).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cf_engine import ConvergentTable, _bands
from .core_arith import _integer
from .successor import GridPoint, next_point, value


@dataclass(frozen=True)
class Rectangle:
    """Inclusive integer extents of one rectangle of a family.

    family is "A", "P" (sources) or "A~", "P~" (translated partners).
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


@dataclass(frozen=True)
class GapWitness:
    """Consecutive pair of S spanning a large element-free integer interval."""

    level: int
    family: str
    point: GridPoint
    succ: GridPoint
    gap: int


@dataclass
class PartitionReport:
    ok: bool
    width: int
    height: int
    tilde: bool
    rectangle_count: int
    violations: list[tuple[tuple[int, int], int]]  # ((x, y), cover count)


def rectangles_in_window(
    table: ConvergentTable, W: int, H: int, tilde: bool = False
) -> list[Rectangle]:
    """All rectangles of the family-set intersecting [0, W) x [0, H).

    Full (unclipped) extents are reported, ordered by family, level, band
    (the order in which the bands are enumerated). A band over k runs along x
    and spans y < h_{n+1}; a band over h runs along y and spans x < k_{n+1}.
    The source partition has A bands over the odd k and P bands over the even
    h; the tilde partition swaps h and k.
    """
    W, H = _integer(W, "W"), _integer(H, "H")
    if W < 1 or H < 1:
        raise ValueError(f"window must be positive, got {W}x{H}")
    families = (("A~", "h", 1), ("P~", "k", 0)) if tilde else (("A", "k", 1), ("P", "h", 0))
    hs, ks = table._h, table._k
    rects: list[Rectangle] = []
    for family, seq, parity in families:
        for n, t, h, k in _bands(table, seq, parity, W if seq == "k" else H):
            if seq == "k":
                extents = (k, k + ks[n + 1] - 1, 0, hs[n + 1] - 1)
            else:
                extents = (0, ks[n + 1] - 1, h, h + hs[n + 1] - 1)
            rects.append(Rectangle(family, (n + 1) // 2, t, *extents))
    return rects


def verify_partition(
    table: ConvergentTable, W: int, H: int, tilde: bool = False
) -> PartitionReport:
    """Check every window cell lies in exactly one rectangle of the family-set.

    For the tilde families the origin must be covered by none. Each window
    column is a bitmask over y: a cell painted twice is recorded as doubly
    covered, and every column must end equal to its expected mask.
    """
    W, H = _integer(W, "W"), _integer(H, "H")
    rects = rectangles_in_window(table, W, H, tilde)
    painted = [0] * W
    doubled = [0] * W
    for r in rects:
        x0, x1 = max(r.x_min, 0), min(r.x_max, W - 1)
        y0, y1 = max(r.y_min, 0), min(r.y_max, H - 1)
        if x0 > x1 or y0 > y1:
            continue
        mask = ((1 << (y1 - y0 + 1)) - 1) << y0
        for x in range(x0, x1 + 1):
            doubled[x] |= painted[x] & mask
            painted[x] |= mask
    full = (1 << H) - 1
    bad: list[tuple[int, int]] = []
    for x in range(W):
        expected = full & ~1 if tilde and x == 0 else full
        wrong = (painted[x] ^ expected) | doubled[x]
        while wrong and len(bad) < 20:
            low = wrong & -wrong
            bad.append((x, low.bit_length() - 1))
            wrong ^= low
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


def large_gap(table: ConvergentTable, level: int, family: str = "A") -> GapWitness:
    """Gap witness at the far corner of the last band of the given level.

    family "A" (level >= 1): point (k_{2i+1} - 1, h_{2i} - 1);
    family "P" (level >= 0): point (k_{2i+1} - 1, h_{2i+2} - 1).
    The successor follows from the rectangle translation; the gap is the
    exact integer difference of the two values.
    """
    i = _integer(level, "level")
    if family == "A":
        if i < 1:
            raise ValueError("A-family witnesses need level >= 1")
        table.extend_to(2 * i + 1)
        point = GridPoint(table._k[2 * i + 1] - 1, table._h[2 * i] - 1)
    elif family == "P":
        if i < 0:
            raise ValueError("P-family witnesses need level >= 0")
        table.extend_to(2 * i + 2)
        point = GridPoint(table._k[2 * i + 1] - 1, table._h[2 * i + 2] - 1)
    else:
        raise ValueError(f"unknown family {family!r}")
    succ = next_point(table, point)
    gap = value(table.pair, succ) - value(table.pair, point)
    return GapWitness(level=i, family=family, point=point, succ=succ, gap=gap)
