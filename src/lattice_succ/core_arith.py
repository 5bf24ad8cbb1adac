"""Exact order decisions against alpha = log(p1)/log(p2).

Every comparison in this package bottoms out here, in big-integer power
comparisons: h/k < alpha iff p2**h < p1**k. No floating point result is
ever trusted unless its error bound certifies the sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

LESS = -1
EQUAL = 0
GREATER = 1

DEFAULT_BIT_BUDGET = 1_000_000

# A float log comparison is trusted only when the gap exceeds this relative
# margin (double rounding is ~2e-16 per op; 1e-12 leaves a wide moat).
_FLOAT_REL_MARGIN = 1e-12
_FLOAT_ABS_MARGIN = 1e-9


class LatticeError(Exception):
    """Base class for all errors raised by this package."""


class OrderViolation(LatticeError, ValueError):
    """Generator pair does not satisfy 1 < p1 < p2."""


class RationalLogRatio(LatticeError, ValueError):
    """log(p1)/log(p2) is rational; the theory does not apply."""


class BudgetExceeded(LatticeError):
    """A power comparison would exceed the configured bit budget."""


class InternalConsistencyError(LatticeError):
    """A tie that irrationality forbids, or a failed covering check; indicates a bug."""


@dataclass(frozen=True)
class GeneratorPair:
    """Validated generators (p1, p2) with alpha = log(p1)/log(p2) irrational.

    Construct through validate_pair; the dataclass itself does not check.
    """

    p1: int
    p2: int
    bit_budget: int = DEFAULT_BIT_BUDGET


@dataclass(frozen=True)
class AffineForm:
    """The real number coeff*alpha - const, for exact sign/order queries."""

    coeff: int
    const: int


ZERO_FORM = AffineForm(0, 0)


def _integer_root(x: int, r: int) -> int:
    """Largest m with m**r <= x, for x >= 1, r >= 1."""
    if r == 1:
        return x
    # Integer Newton iteration falls monotonically from any start above the root.
    m = 1 << -(-x.bit_length() // r)
    while True:
        below = ((r - 1) * m + x // m ** (r - 1)) // r
        if below >= m:
            return m
        m = below


def perfect_power_base(p: int) -> tuple[int, int]:
    """Decompose p > 1 as m**u with u maximal; returns (m, u)."""
    for r in range(p.bit_length() - 1, 1, -1):
        m = _integer_root(p, r)
        if m**r == p:
            return m, r
    return p, 1


def validate_pair(p1: int, p2: int, bit_budget: int = DEFAULT_BIT_BUDGET) -> GeneratorPair:
    """Check 1 < p1 < p2 and multiplicative independence of (p1, p2).

    Independence (equivalently, irrationality of log(p1)/log(p2)) is decided
    by perfect-power decomposition: p1 = m**u, p2 = n**v with m, n not
    perfect powers; the pair is dependent iff m == n.
    """
    if p1 <= 1 or p2 <= p1:
        raise OrderViolation(f"need 1 < p1 < p2, got p1={p1}, p2={p2}")
    if bit_budget < 1:
        raise OrderViolation(f"bit_budget must be positive, got {bit_budget}")
    m, _ = perfect_power_base(p1)
    n, _ = perfect_power_base(p2)
    if m == n:
        raise RationalLogRatio(
            f"{p1} and {p2} are both powers of {m}; log({p1})/log({p2}) is rational"
        )
    return GeneratorPair(p1, p2, bit_budget)


def _check_budget(pair: GeneratorPair, bits: float) -> None:
    if bits > pair.bit_budget:
        raise BudgetExceeded(
            f"power comparison needs ~{int(bits)} bits, budget is {pair.bit_budget}"
        )


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def compare_fraction(pair: GeneratorPair, h: int, k: int) -> int:
    """Order of h/k relative to alpha: LESS or GREATER, never EQUAL.

    h/k < alpha  iff  h*log(p2) < k*log(p1)  iff  p2**h < p1**k.
    Accepts k = 0 (h >= 1) for the Stern-Brocot seed 1/0 = +infinity.
    """
    if h < 0 or k < 0 or (h == 0 and k == 0):
        raise ValueError(f"invalid fraction {h}/{k}")
    lhs_bits = h * math.log2(pair.p2)
    rhs_bits = k * math.log2(pair.p1)
    _check_budget(pair, max(lhs_bits, rhs_bits))
    # Certified float pre-filter on the bit counts.
    gap = lhs_bits - rhs_bits
    margin = (lhs_bits + rhs_bits) * _FLOAT_REL_MARGIN + _FLOAT_ABS_MARGIN
    if abs(gap) > margin:
        return LESS if gap < 0 else GREATER
    sign = _sign(pair.p2**h - pair.p1**k)
    if sign == 0:
        raise RationalLogRatio(
            f"p2**{h} == p1**{k}: generators are multiplicatively dependent"
        )
    return sign


def compare_affine(pair: GeneratorPair, u: AffineForm, v: AffineForm) -> int:
    """Exact order of u = k1*alpha - n1 versus v = k2*alpha - n2.

    EQUAL only for component-wise equal forms (irrationality of alpha).
    """
    dk = u.coeff - v.coeff
    dn = u.const - v.const
    if dk == 0 and dn == 0:
        return EQUAL
    # sign of dk*alpha - dn == sign of p1**dk - p2**dn as positive rationals:
    # p1**max(dk,0) * p2**max(-dn,0)  vs  p1**max(-dk,0) * p2**max(dn,0).
    lp1 = math.log2(pair.p1)
    lp2 = math.log2(pair.p2)
    lhs_bits = max(dk, 0) * lp1 + max(-dn, 0) * lp2
    rhs_bits = max(-dk, 0) * lp1 + max(dn, 0) * lp2
    _check_budget(pair, max(lhs_bits, rhs_bits))
    gap = lhs_bits - rhs_bits
    margin = (lhs_bits + rhs_bits) * _FLOAT_REL_MARGIN + _FLOAT_ABS_MARGIN
    if abs(gap) > margin:
        return LESS if gap < 0 else GREATER
    lhs = pair.p1 ** max(dk, 0) * pair.p2 ** max(-dn, 0)
    rhs = pair.p1 ** max(-dk, 0) * pair.p2 ** max(dn, 0)
    sign = _sign(lhs - rhs)
    if sign == 0:
        raise RationalLogRatio(
            f"{dk}*alpha == {dn}: generators are multiplicatively dependent"
        )
    return sign


def affine_sign(pair: GeneratorPair, u: AffineForm) -> int:
    """Sign of the real number u = coeff*alpha - const."""
    return compare_affine(pair, u, ZERO_FORM)


def f(pair: GeneratorPair, n: int) -> int:
    """Upper sequence f(n) = ceil(n/alpha): least k with n/k < alpha.

    Equivalently the unique k with (k-1)*alpha < n < k*alpha. Found by
    doubling then binary search, each probe one exact fraction comparison.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    hi = 1
    while compare_fraction(pair, n, hi) == GREATER:
        hi *= 2
    lo = hi // 2 + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if compare_fraction(pair, n, mid) == LESS:
            hi = mid
        else:
            lo = mid + 1
    return hi


def g(pair: GeneratorPair, n: int) -> int:
    """Lower sequence g(n) = floor(n/alpha) = f(n) - 1."""
    return f(pair, n) - 1
