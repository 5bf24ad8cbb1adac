"""Brute-force ground truth: sorted enumeration of S by merging.

The stream keeps one pending (value, i, j) per p2-exponent row in a heap
ordered by exact value; a new row is opened whenever a row head with
p1-exponent 0 is emitted. This gives every element exactly once in
increasing order with O(rows) memory. The batch `enumerate_sorted` merges
the p1- and p2-multiples of the list it has built instead, so comparing the
two checks one algorithm against another. `naive_next` is the naive
reference successor: it enumerates until value(p) is passed.
It rests on `core_arith` alone and loads neither `cf_engine` nor `successor`.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator
from itertools import repeat

from .core_arith import (
    GeneratorPair, GridPoint, _check_pair, _check_value_budget, _count, _point, value,
)


class SortedStream:
    """Single-consumer lazy enumeration of S in strictly increasing order.

    Heap entries are (value, i, j): exact values, so a step multiplies by p1
    or p2 instead of forming powers. The pair is independent, so two entries
    never tie on value. next() leaves the emitted value in `last_value`.
    """

    def __init__(self, pair: GeneratorPair):
        _check_pair(pair, "SortedStream")
        self.pair = pair
        self.last_value: int | None = None
        self._heap: list[tuple[int, int, int]] = [(1, 0, 0)]

    def __iter__(self) -> Iterator[GridPoint]:
        return self

    def __next__(self) -> GridPoint:
        heap, pair = self._heap, self.pair
        v, i, j = heap[0]
        # The right neighbour is larger than the head, so it can replace it.
        heapq.heapreplace(heap, (v * pair.p1, i + 1, j))
        if i == 0:
            heapq.heappush(heap, (v * pair.p2, 0, j + 1))
        self.last_value = v
        return _point(GridPoint, (i, j))


def enumerate_sorted(pair: GeneratorPair, count: int) -> list[tuple[GridPoint, int]]:
    """First `count` elements of S as (coordinates, exact value); refuses where value() would.

    The list is `_merge`'s, with its i and j lists zipped into GridPoints.
    """
    _check_pair(pair, "enumerate_sorted")
    count = _count(count, "count", 1)
    i, j, vals = _merge(pair, count)
    return list(zip(map(_point, repeat(GridPoint), zip(i, j)), vals))


def _merge(pair: GeneratorPair, count: int) -> tuple[list[int], list[int], list[int]]:
    """The i exponents, the j exponents and the values of the first `count` >= 1 elements of S, as three int lists.

    Dijkstra's two-index merge, an algorithm apart from `SortedStream`'s heap:
    every element but 1 is p1 or p2 times a smaller one, so the next element
    is the smaller of vals[a]*p1 and vals[b]*p2, where a (b) indexes the least
    listed element whose p1- (p2-) multiple is not yet listed. Equal products
    are one element, reached both ways, and advance both indexes. The pair is
    checked by the caller; an element past the budget refuses as value() would.
    """
    p1, p2, budget = pair.p1, pair.p2, pair.bit_budget
    vals, i_out, j_out = [1], [0], [0]  # the elements listed; value() never refuses (0, 0)
    a = b = 0
    x1, x2 = p1, p2  # vals[a] * p1 and vals[b] * p2
    for _ in range(count - 1):
        if x1 <= x2:
            v = x1
            i, j = i_out[a] + 1, j_out[a]
            vals.append(v)  # vals[a + 1] may be v itself
            if x1 == x2:
                b += 1
                x2 = vals[b] * p2
            a += 1
            x1 = vals[a] * p1
        else:
            v = x2
            i, j = i_out[b], j_out[b] + 1
            vals.append(v)
            b += 1
            x2 = vals[b] * p2
        # Below this length log2(v) < budget - 1 bounds both exponents and the estimate: no refusal.
        if v.bit_length() >= budget:
            _check_value_budget(pair, i, j)
        i_out.append(i)
        j_out.append(j)
    return i_out, j_out, vals


def naive_next(pair: GeneratorPair, p: GridPoint) -> GridPoint:
    """Successor of p by fresh enumeration until value(p) is passed; refuses where value() would."""
    stream = SortedStream(pair)
    target = value(pair, p)
    for q in stream:
        if stream.last_value > target:
            return q
    raise AssertionError("unreachable: S is infinite")
