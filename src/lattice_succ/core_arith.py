"""Exact order decisions against alpha = log(p1)/log(p2).

Every comparison in this package bottoms out in one primitive here,
`_affine_sign`: h/k < alpha iff k*ln(p1) - h*ln(p2) > 0. A float log
comparison settles the sign when its error margin certifies it; otherwise
correctly rounded decimal logs do, at doubling precision, until their
error bound certifies it; only once those logs would be as wide as the
powers themselves does a big-integer comparison p2**h < p1**k decide. No
approximate result is ever trusted unless its error bound certifies the sign.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

LESS = -1
EQUAL = 0
GREATER = 1

DEFAULT_BIT_BUDGET = 1_000_000

# A float log comparison is trusted only when the gap exceeds this relative
# margin (double rounding is ~2e-16 per op; 1e-12 leaves a wide moat).
_FLOAT_REL_MARGIN = 1e-12
_FLOAT_ABS_MARGIN = 1e-9

_LOG2_10 = math.log2(10)


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


class NonIntegerArgument(LatticeError, TypeError):
    """A generator, budget or index that is not an integer (has no __index__)."""


@dataclass(frozen=True)
class GeneratorPair:
    """Validated generators (p1, p2) with alpha = log(p1)/log(p2) irrational.

    Construct through validate_pair; the dataclass itself does not check.
    """

    p1: int
    p2: int
    bit_budget: int = DEFAULT_BIT_BUDGET

    @cached_property
    def _log2(self) -> tuple[float, float]:  # not a field, so not in eq/hash
        return math.log2(self.p1), math.log2(self.p2)


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


def _integer(x, name: str) -> int:
    """x as a Python int; anything without __index__ raises NonIntegerArgument."""
    try:
        return operator.index(x)
    except TypeError:
        raise NonIntegerArgument(f"{name} must be an integer, got {x!r}") from None


def validate_pair(p1: int, p2: int, bit_budget: int = DEFAULT_BIT_BUDGET) -> GeneratorPair:
    """Check 1 < p1 < p2 and multiplicative independence of (p1, p2).

    Independence (equivalently, irrationality of log(p1)/log(p2)) is decided
    by perfect-power decomposition: p1 = m**u, p2 = n**v with m, n not
    perfect powers; the pair is dependent iff m == n.
    """
    p1, p2 = _integer(p1, "p1"), _integer(p2, "p2")
    bit_budget = _integer(bit_budget, "bit_budget")
    if p1 <= 1 or p2 <= p1:
        raise OrderViolation(f"need 1 < p1 < p2, got p1={p1}, p2={p2}")
    if bit_budget < 1:
        raise OrderViolation(f"bit_budget must be positive, got {bit_budget}")
    m, _ = perfect_power_base(p1)
    n, _ = perfect_power_base(p2)
    if m == n:
        raise RationalLogRatio(
            f"theory requires multiplicatively independent generators, but {p1} and {p2} "
            f"are both powers of {m}; log({p1})/log({p2}) is rational"
        )
    return GeneratorPair(p1, p2, bit_budget)


def _affine_sign(pair: GeneratorPair, dk: int, dn: int) -> int:
    """Exact sign of dk*alpha - dn, which is the sign of p1**dk / p2**dn - 1.

    The one order decision of the package: the bit-budget check, the
    certified float pre-filter on the bit counts, the certified decimal-log
    comparison, the big-integer fallback and the tie that irrationality
    forbids all live here. The budget still refuses a comparison whose
    powers would exceed it, although the powers are built only when the
    logs are as wide as they are.
    """
    s = 1
    if dk < 0:  # decide the sign of the negated form, which has dk > 0
        dk, dn, s = -dk, -dn, -1
    budget = pair.bit_budget
    # log2(p) >= 1, so an exponent above the budget needs more bits than the
    # budget allows; refusing it here also keeps it out of float conversion.
    if dk > budget or abs(dn) > budget:
        raise BudgetExceeded(f"power comparison has an exponent above the bit budget {budget}")
    lp1, lp2 = pair._log2
    a = dk * lp1  # bits of p1**dk
    b = abs(dn) * lp2  # bits of p2**|dn|
    # With dn <= 0 the operands are p1**dk * p2**-dn and 1, and p2**dn <= 1 <= p1**dk.
    bits = a + b if dn <= 0 else (a if a > b else b)
    if bits > budget:
        raise BudgetExceeded(f"power comparison needs ~{int(bits)} bits, budget is {budget}")
    if dn <= 0:
        return s if dk or dn else EQUAL
    gap = a - b
    margin = (a + b) * _FLOAT_REL_MARGIN + _FLOAT_ABS_MARGIN
    if gap > margin:
        return s
    if gap < -margin:
        return -s
    prec = 2 * (len(str(dk)) + len(str(dn))) + 10
    while prec * _LOG2_10 < bits:
        sign = _log_sign(pair.p1, pair.p2, dk, dn, prec)
        if sign:
            return s * sign
        prec *= 2
    # Logs as wide as the powers cost as much as the powers, which also
    # settle a tie: equal powers mean a dependent pair, so this ends the loop.
    lhs, rhs = pair.p1**dk, pair.p2**dn
    if lhs == rhs:
        raise RationalLogRatio(
            f"p1**{dk} == p2**{dn}: generators are not multiplicatively independent"
        )
    return s if lhs > rhs else -s


@lru_cache(maxsize=256)
def _ln(p: int, prec: int) -> tuple[int, int]:
    """ln(p) correctly rounded to prec digits, as (n, u): |ln(p) - n*10**u| <= 10**u / 2."""
    import decimal  # only this path needs it, so `import lattice_succ` does not load it

    ctx = decimal.Context(prec=prec)
    ln = ctx.ln(p)
    u = ln.adjusted() - prec + 1  # exponent of the last digit, from the real exponent
    return int(ln.scaleb(-u, ctx)), u


def _log_sign(p1: int, p2: int, dk: int, dn: int, prec: int) -> int:
    """Sign of dk*ln(p1) - dn*ln(p2) for dk, dn > 0 from prec-digit logs; EQUAL if undecided.

    The difference of the rounded logs is formed exactly in units of the
    finer last digit, and its sign is trusted only when it exceeds the sum of
    the two rounding errors, dk*e1 + dn*e2 with e_i half a last digit.
    """
    n1, u1 = _ln(p1, prec)
    n2, u2 = _ln(p2, prec)
    u = min(u1, u2)
    w1, w2 = 10 ** (u1 - u), 10 ** (u2 - u)
    twice_diff = 2 * (dk * n1 * w1 - dn * n2 * w2)
    twice_error = dk * w1 + dn * w2
    if twice_diff > twice_error:
        return GREATER
    if twice_diff < -twice_error:
        return LESS
    return EQUAL


def compare_fraction(pair: GeneratorPair, h: int, k: int) -> int:
    """Order of h/k relative to alpha: LESS or GREATER, never EQUAL.

    h/k < alpha  iff  h*log(p2) < k*log(p1)  iff  p2**h < p1**k.
    Accepts k = 0 (h >= 1) for the Stern-Brocot seed 1/0 = +infinity.
    """
    if h < 0 or k < 0 or (h == 0 and k == 0):
        raise ValueError(f"invalid fraction {h}/{k}")
    return -_affine_sign(pair, k, h)


def compare_affine(pair: GeneratorPair, u: AffineForm, v: AffineForm) -> int:
    """Exact order of u = k1*alpha - n1 versus v = k2*alpha - n2.

    EQUAL only for component-wise equal forms (irrationality of alpha).
    """
    return _affine_sign(pair, u.coeff - v.coeff, u.const - v.const)


def f(pair: GeneratorPair, n: int) -> int:
    """Upper sequence f(n) = ceil(n/alpha): least k with n/k < alpha.

    Equivalently the unique k with (k-1)*alpha < n < k*alpha. The float guess
    k = floor(n*log(p2)/log(p1)) + 1 is returned only when the two exact
    comparisons that define f(n) confirm it. Otherwise, and when n has more
    bits than a double holds exactly, a search decides.
    """
    n = _integer(n, "n")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n.bit_length() <= 52:
        lp1, lp2 = pair._log2
        k = int(n * lp2 / lp1) + 1
        if compare_fraction(pair, n, k) == LESS and compare_fraction(pair, n, k - 1) == GREATER:
            return k
    return _f_search(pair, n)


def _f_search(pair: GeneratorPair, n: int) -> int:
    """f(n) by doubling then binary search, each probe one exact comparison."""
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
