"""Brute-force ground truth: sorted enumeration of S by merging.

The stream keeps one pending candidate per p2-exponent row; a new row is
opened whenever a row head with p1-exponent 0 is emitted. This gives every
element exactly once in increasing order with O(rows) memory.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator

from .core_arith import LESS, AffineForm, GeneratorPair, ZERO_FORM, _integer, compare_affine
from .successor import GridPoint, _check_value_budget, _coords, _point, value


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
        if key not in ("value", "affine"):
            raise ValueError(f"key must be 'value' or 'affine', got {key!r}")
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
    """First `count` elements of S as (coordinates, exact value); refuses where value() would."""
    count = _integer(count, "count")
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    stream = SortedStream(pair)
    out = []
    for _ in range(count):
        p = next(stream)
        v = stream.last_value
        # Below this length log2(v) < budget - 1 bounds both exponents and the estimate: no refusal.
        if v.bit_length() >= pair.bit_budget:
            _check_value_budget(pair, p.i, p.j)
        out.append((p, v))
    return out


def naive_next(pair: GeneratorPair, p: GridPoint, key: str = "value") -> GridPoint:
    """Successor of p by fresh enumeration until value(p) is passed."""
    stream = SortedStream(pair, key)
    i, j = _coords(p)
    if key == "value":
        target = value(pair, p)
        for q in stream:
            if stream.last_value > target:
                return q
    else:
        target = _AffineKey(pair, i, j)
        for q in stream:
            if target < _AffineKey(pair, q.i, q.j):
                return q
    raise AssertionError("unreachable: S is infinite")
