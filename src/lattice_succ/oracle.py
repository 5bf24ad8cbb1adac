"""Brute-force ground truth: sorted enumeration of S by merging.

The stream keeps one pending candidate per p2-exponent row in a heap; a new
row is opened whenever a row head with p1-exponent 0 is emitted. This gives
every element exactly once in increasing order with O(rows) memory. The
batch `enumerate_sorted` merges the p1- and p2-multiples of the list it has
built instead, so comparing the two checks one algorithm against another.
It rests on `core_arith` alone and loads neither `cf_engine` nor `successor`.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator
from itertools import repeat

from .core_arith import (
    LESS, ZERO_FORM, AffineForm, GeneratorPair, GridPoint, InvalidArgument, _check_pair,
    _check_value_budget, _grid_point, _integer, _point, _show, compare_affine, value,
)


class _AffineKey:
    """Heap key ordering p1^i * p2^j by i*alpha + j without forming products."""

    __slots__ = ("pair", "i", "j")

    def __init__(self, pair: GeneratorPair, i: int, j: int):
        self.pair = pair
        self.i = i
        self.j = j

    def __lt__(self, other: "_AffineKey") -> bool:
        # i1*alpha + j1 < i2*alpha + j2  iff  (i1-i2)*alpha - (j2-j1) < 0
        form = AffineForm(self.i - other.i, other.j - self.j)
        return compare_affine(self.pair, form, ZERO_FORM) == LESS


class SortedStream:
    """Single-consumer lazy enumeration of S in strictly increasing order.

    Heap entries carry exact values, so a step multiplies by p1 or p2 instead
    of forming powers; next() leaves the emitted value in `last_value`.
    key="value" orders the frontier by those integers; key="affine" compares
    exponent forms instead, an independent check of the same order.
    """

    def __init__(self, pair: GeneratorPair, key: str = "value"):
        _check_pair(pair, "SortedStream")
        if key not in ("value", "affine"):
            raise InvalidArgument(f"key must be 'value' or 'affine', got {_show(key)}")
        self.pair = pair
        self.key = key
        self.last_value: int | None = None
        self._heap: list[tuple] = [(1 if key == "value" else _AffineKey(pair, 0, 0), 0, 0, 1)]

    def __iter__(self) -> Iterator[GridPoint]:
        return self

    def __next__(self) -> GridPoint:
        heap, pair, affine = self._heap, self.pair, self.key == "affine"
        _, i, j, v = heap[0]
        # Entries are (key, i, j, value). The right neighbour is larger than
        # the head, so it can replace it.
        v1 = v * pair.p1
        heapq.heapreplace(heap, (_AffineKey(pair, i + 1, j) if affine else v1, i + 1, j, v1))
        if i == 0:
            v2 = v * pair.p2
            heapq.heappush(heap, (_AffineKey(pair, 0, j + 1) if affine else v2, 0, j + 1, v2))
        self.last_value = v
        return _point(GridPoint, (i, j))


def enumerate_sorted(pair: GeneratorPair, count: int) -> list[tuple[GridPoint, int]]:
    """First `count` elements of S as (coordinates, exact value); refuses where value() would.

    The list is `_merge`'s, with each exponent pair made a GridPoint.
    """
    _check_pair(pair, "enumerate_sorted")
    count = _integer(count, "count")
    if count < 1:
        raise InvalidArgument(f"count must be positive, got {_show(count)}")
    ij, vals = _merge(pair, count)
    return list(zip(map(_point, repeat(GridPoint), ij), vals))


def _merge(pair: GeneratorPair, count: int) -> tuple[list[tuple[int, int]], list[int]]:
    """The exponent pairs (i, j), as plain tuples, and the values of the first `count` >= 1 elements of S.

    Dijkstra's two-index merge, an algorithm apart from `SortedStream`'s heap:
    every element but 1 is p1 or p2 times a smaller one, so the next element
    is the smaller of vals[a]*p1 and vals[b]*p2, where a (b) indexes the least
    listed element whose p1- (p2-) multiple is not yet listed. Equal products
    are one element, reached both ways, and advance both indexes. The pair is
    checked by the caller; an element past the budget refuses as value() would.
    """
    p1, p2, budget = pair.p1, pair.p2, pair.bit_budget
    vals, ij = [1], [(0, 0)]  # the values and coordinates listed; value() never refuses (0, 0)
    a = b = 0
    x1, x2 = p1, p2  # vals[a] * p1 and vals[b] * p2
    for _ in range(count - 1):
        if x1 <= x2:
            v = x1
            i, j = ij[a]
            i += 1
            vals.append(v)  # vals[a + 1] may be v itself
            if x1 == x2:
                b += 1
                x2 = vals[b] * p2
            a += 1
            x1 = vals[a] * p1
        else:
            v = x2
            i, j = ij[b]
            j += 1
            vals.append(v)
            b += 1
            x2 = vals[b] * p2
        # Below this length log2(v) < budget - 1 bounds both exponents and the estimate: no refusal.
        if v.bit_length() >= budget:
            _check_value_budget(pair, i, j)
        ij.append((i, j))
    return ij, vals


def naive_next(pair: GeneratorPair, p: GridPoint, key: str = "value") -> GridPoint:
    """Successor of p by fresh enumeration until value(p) is passed."""
    stream = SortedStream(pair, key)
    p = _grid_point(p)
    if key == "value":
        target = value(pair, p)
        for q in stream:
            if stream.last_value > target:
                return q
    else:
        target = _AffineKey(pair, *p)
        for q in stream:
            if target < _AffineKey(pair, q.i, q.j):
                return q
    raise AssertionError("unreachable: S is infinite")
