"""Reference answers built only on core_arith, for the off-the-clock correctness gates."""

from __future__ import annotations

import math

# Float error of v - t*alpha stays below ~1e-8 for coordinates up to 1e7;
# anything within this distance of a decision boundary is settled exactly.
_MOAT = 1e-6


def order(core_arith, pair, p, q) -> int:
    """Exact sign of value(p) - value(q), i.e. of (p.i - q.i)*alpha + (p.j - q.j)."""
    form = core_arith.AffineForm(p[0] - q[0], q[1] - p[1])
    return core_arith.compare_affine(pair, form, core_arith.AffineForm(0, 0))


def strip_neighbour(core_arith, pair, p, upward: bool) -> tuple[int, int]:
    """Successor (upward) or predecessor of p in S by a scan over every column.

    Column t holds one candidate: the least point (t, j) above p, or the
    greatest below it. A float pass finds the candidates within a moat of the
    best one, plus every column whose float decision is too close to call;
    exact comparisons settle those. Nothing here uses the continued fraction.
    """
    i, j = p
    alpha = math.log(pair.p1) / math.log(pair.p2)
    v = i * alpha + j
    best = math.inf
    near: list[tuple[float, int]] = []  # columns within the moat of the best gap so far
    close: list[int] = []  # columns whose float decision is too close to call
    for t in range(int(v / alpha) + 2):
        x = v - t * alpha
        fr = x - math.floor(x)
        if (fr < _MOAT or fr > 1 - _MOAT) and x > -_MOAT:
            close.append(t)
            continue
        if upward:
            gap = -x if x < 0 else 1.0 - fr
        elif x < 0:
            continue  # no point of column t lies below p
        else:
            gap = fr
        if gap <= best + 2 * _MOAT:
            best = min(best, gap)
            near.append((gap, t))
    answer = None
    for t in close + [t for gap, t in near if gap <= best + 2 * _MOAT]:
        cand = _column_candidate(core_arith, pair, p, t, v - t * alpha, upward)
        if cand is not None and (answer is None or (order(core_arith, pair, cand, answer) < 0) == upward):
            answer = cand
    return answer


def _column_candidate(core_arith, pair, p, t, x, upward):
    """Exact least (t, j) above p, or greatest below it, starting from the float guess."""
    if upward:
        j = max(0, math.floor(x))
        while j > 0 and order(core_arith, pair, (t, j - 1), p) > 0:
            j -= 1
        while order(core_arith, pair, (t, j), p) <= 0:
            j += 1
        return (t, j)
    j = max(0, math.ceil(x))
    while order(core_arith, pair, (t, j), p) >= 0:
        if j == 0:
            return None
        j -= 1
    while order(core_arith, pair, (t, j + 1), p) < 0:
        j += 1
    return (t, j)
