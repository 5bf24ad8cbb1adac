"""Exact order decisions against alpha = log(p1)/log(p2).

Every comparison in this package bottoms out in one primitive here,
`_affine_sign`: h/k < alpha iff k*ln(p1) - h*ln(p2) > 0. A float log
comparison settles the sign when its error margin certifies it; otherwise
fixed-point logs do, at doubling width, until their error bound certifies
it. `_ln(p, bits)` is the one routine that computes a log: an integer within
one unit of ln(p) * 2**bits. No log is wider than the powers, and none but
the first is past _LN_MAX_BITS; beyond that a big-integer comparison
p2**h < p1**k decides, if the powers fit in the bit budget. Powers past the
budget leave the logs widening up to it. No approximate result is ever
trusted unless its error bound certifies the sign. The upper sequence `f`
is one floor on top: a guess from logs sized by the answer, certified by two
exact signs.

`GeneratorPair` checks the paper's hypothesis when it is built, so alpha is
irrational: p1**dk == p2**dn with dk, dn >= 1 needs a common base, which the
constructor refuses. `_affine_sign` meets such a tie only on a pair built
around the constructor, and raises InternalConsistencyError for it.

Points live here too, for queries and verifiers alike: `GridPoint`, `_grid_point`
and `value` with `_check_value_budget`, the one rule for p1**i * p2**j's bits.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from functools import lru_cache
from typing import NamedTuple

LESS = -1
EQUAL = 0
GREATER = 1

DEFAULT_BIT_BUDGET = 1_000_000

# A float log comparison is trusted only when the gap exceeds this relative
# margin (double rounding is ~2e-16 per op; 1e-12 leaves a wide moat).
_FLOAT_REL_MARGIN = 1e-12
_FLOAT_ABS_MARGIN = 1e-9

# An int of at most this many bits has at most 603 digits, below the smallest
# int-to-str limit the interpreter accepts (640), so str() prints it whatever
# the limit is set to.
_SPLIT_BITS = 2000

# When the powers fit the budget, logs stop doubling past this width (about
# 512 digits) and the powers decide: logs cost about as much as 10**5-bit
# powers here, and five to ten times more per doubling beyond.
_LN_MAX_BITS = 1700

# f guesses an answer below this from the float logs, off by well under one.
_FLOAT_GUESS_MAX = 2.0**40


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


class NoPredecessor(LatticeError):
    """(0, 0) is the least element of S."""


class InvalidArgument(LatticeError, ValueError):
    """An argument of the right type whose value is out of range, such as a negative grid point."""


class NonIntegerArgument(LatticeError, TypeError):
    """A non-integer generator, budget, count or index (no __index__), a non-pair point,
    or a pair, table or form argument that is not a GeneratorPair, ConvergentTable or AffineForm."""


class GeneratorPair:
    """Generators 1 < p1 < p2 with alpha = log(p1)/log(p2) irrational, checked when built.

    A field without __index__ raises NonIntegerArgument, p1, p2 out of order or
    a bit budget below 1 OrderViolation, and powers of one base (alpha rational)
    RationalLogRatio, so no comparison of a built pair ends in a tie.
    Frozen: assigning to an instance raises AttributeError.
    Equality and hashing use (p1, p2, bit_budget); `_log2`, the two base-2
    logs, is derived from them.
    """

    __slots__ = ("p1", "p2", "bit_budget", "_log2")
    __match_args__ = ("p1", "p2", "bit_budget")

    def __init__(self, p1: int, p2: int, bit_budget: int = DEFAULT_BIT_BUDGET):
        p1, p2 = _integer(p1, "p1"), _integer(p2, "p2")
        bit_budget = _integer(bit_budget, "bit_budget")
        if p1 <= 1 or p2 <= p1:
            raise OrderViolation(f"need 1 < p1 < p2, got p1={_show(p1)}, p2={_show(p2)}")
        if bit_budget < 1:
            raise OrderViolation(f"bit_budget must be positive, got {_show(bit_budget)}")
        if m := _common_base(p1, p2):
            a, b = _show(p1), _show(p2)
            raise RationalLogRatio(
                f"theory requires multiplicatively independent generators, but {a} and {b} "
                f"are both powers of {_show(m)}; log({a})/log({b}) is rational"
            )
        put = object.__setattr__
        put(self, "p1", p1)
        put(self, "p2", p2)
        put(self, "bit_budget", bit_budget)
        put(self, "_log2", (math.log2(p1), math.log2(p2)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen GeneratorPair")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen GeneratorPair")

    def _key(self) -> tuple[int, int, int]:
        return self.p1, self.p2, self.bit_budget

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"GeneratorPair(p1={_show(self.p1)}, p2={_show(self.p2)}, bit_budget={_show(self.bit_budget)})"

    def __reduce__(self):  # pickle and copy rebuild through __init__, not __setattr__
        return GeneratorPair, self._key()


class AffineForm(NamedTuple):
    """The real number coeff*alpha - const, for exact sign/order queries."""

    coeff: int
    const: int


ZERO_FORM = AffineForm(0, 0)


def _common_base(a: int, b: int) -> int:
    """An m with a and b both powers of m, for a, b > 1; 0 when there is none.

    For a < b, a and b are powers of one base iff a divides b and a and b // a
    are, which is Euclid's algorithm on the two exponents.
    """
    while a != b:
        if a > b:
            a, b = b, a
        b, r = divmod(b, a)
        if r:
            return 0
    return a


def _show(x) -> str:
    """x for a message. An int shows its digits up to _SPLIT_BITS bits and its
    bit length past them; anything else its repr, or <typename> when the repr
    raises ValueError (a container of ints past the int-to-str limit)."""
    if isinstance(x, int):
        if x.bit_length() <= _SPLIT_BITS:
            return str(x)
        return f"{'-' if x < 0 else ''}<{x.bit_length()}-bit integer>"
    try:
        return repr(x)
    except ValueError:
        return f"<{type(x).__name__}>"


def _integer(x, name: str) -> int:
    """x as a Python int; anything without __index__ raises NonIntegerArgument."""
    try:
        return operator.index(x)
    except TypeError:
        raise NonIntegerArgument(f"{name} must be an integer, got {_show(x)}") from None


def _count(x, name: str, least: int) -> int:
    """x as a Python int of at least `least` (0 or 1): the one rule for every count and size.

    Anything without __index__ raises NonIntegerArgument, and an int below
    least InvalidArgument: "<name> must be non-negative" (least 0) or
    "<name> must be positive" (least 1), then ", got <x>" with x shown by `_show`.
    """
    x = _integer(x, name)
    if x < least:
        raise InvalidArgument(f"{name} must be {('non-negative', 'positive')[least]}, got {_show(x)}")
    return x


def _form(u, name: str, user: str) -> tuple[int, int]:
    """u's (coeff, const) as ints; anything but an AffineForm, or a field without __index__, raises NonIntegerArgument.

    The field names are formatted only for the error, off the path of every form that passes.
    """
    if not isinstance(u, AffineForm):
        raise NonIntegerArgument(f"{user} needs AffineForms, got {_show(u)}")
    try:
        return operator.index(u.coeff), operator.index(u.const)
    except TypeError:
        return _integer(u.coeff, f"{name}.coeff"), _integer(u.const, f"{name}.const")


def _check_pair(pair, user: str) -> None:
    """Refuse anything but a GeneratorPair with NonIntegerArgument, naming the user."""
    if not isinstance(pair, GeneratorPair):
        raise NonIntegerArgument(f"{user} needs a GeneratorPair from validate_pair, got {_show(pair)}")


def validate_pair(p1: int, p2: int, bit_budget: int = DEFAULT_BIT_BUDGET) -> GeneratorPair:
    """GeneratorPair(p1, p2, bit_budget), the checked pair under the name the README uses."""
    return GeneratorPair(p1, p2, bit_budget)


def _affine_sign(pair: GeneratorPair, dk: int, dn: int) -> int:
    """Exact sign of dk*alpha - dn, which is the sign of p1**dk / p2**dn - 1.

    The one order decision of the package: the certified float pre-filter on
    the bit counts, the certified fixed-point log comparison, the big-integer
    fallback and the tie that irrationality forbids all live here. Exponents
    of any size are compared; the bit budget guards only the fallback, so
    only a comparison the logs cannot settle within it is refused.
    """
    s = 1
    if dk < 0:  # decide the sign of the negated form, which has dk > 0
        dk, dn, s = -dk, -dn, -1
    # With dn <= 0 the operands are p1**dk * p2**-dn and 1, and p2**dn <= 1 <= p1**dk.
    if dn <= 0:
        return s if dk or dn else EQUAL
    lp1, lp2 = pair._log2
    # Counts past a float's range are shifted into it. The truncation moves a
    # and b by less than lp1 + lp2, far inside the margin of counts this large.
    shift = ((dk | dn) >> 960).bit_length()  # bits past 960 of the larger count, or 0
    a, b = (dk >> shift) * lp1, (dn >> shift) * lp2  # bits of p1**dk and p2**dn, over 2**shift
    gap = a - b
    margin = (a + b) * _FLOAT_REL_MARGIN + _FLOAT_ABS_MARGIN
    if gap > margin:
        return s
    if gap < -margin:
        return -s
    budget = pair.bit_budget
    bits = math.inf if shift else (a if a > b else b)
    # Log bits: twice those of dk and dn, plus 46 to 60. Steps of 16 let signs of nearby sizes share cached logs.
    prec = (dk.bit_length() + dn.bit_length() + 30) // 8 * 16
    # Logs never grow wider than the powers, nor past _LN_MAX_BITS but in the
    # first round. Then the powers decide when they fit the budget, a tie too
    # (equal powers mean a dependent pair); past it they would be refused, so
    # the logs widen up to it.
    limit = budget if bits > budget else min(bits, max(_LN_MAX_BITS, 2 * prec))
    while prec < limit:
        sign = _log_sign(pair.p1, pair.p2, dk, dn, prec)
        if sign:
            return s * sign
        prec *= 2
    if bits > budget:
        raise BudgetExceeded(f"power comparison needs ~{bits if shift else math.ceil(bits)} bits, budget is {budget}")
    lhs, rhs = pair.p1**dk, pair.p2**dn
    if lhs == rhs:  # a common base, which GeneratorPair refuses
        raise InternalConsistencyError(f"p1**{dk} == p2**{dn}: the pair was not built by GeneratorPair")
    return s if lhs > rhs else -s


@lru_cache(maxsize=256)
def _ln(p: int, bits: int) -> int:
    """ln(p) in units of 2**-bits: an int n with |ln(p) * 2**bits - n| < 1.

    ln(p) * 2**bits < 2**x for x = bits + p.bit_length().bit_length(), and 1234/4096 > log10(2): the
    context keeps 3 digits past it, so the log and the product err by < 0.011 units, the rounding by 1/2.
    """
    import decimal  # only this path needs it, so `import lattice_succ` does not load it

    ctx = decimal.Context(prec=(bits + p.bit_length().bit_length()) * 1234 // 4096 + 4)
    return int(ctx.multiply(ctx.ln(p), 1 << bits).to_integral_value())


def _log_sign(p1: int, p2: int, dk: int, dn: int, bits: int) -> int:
    """Sign of dk*ln(p1) - dn*ln(p2) for dk, dn > 0 from logs in units of 2**-bits; EQUAL if undecided.

    Each log is within one unit, so the difference is within dk + dn units, and its sign is trusted only past that.
    """
    diff = dk * _ln(p1, bits) - dn * _ln(p2, bits)
    if abs(diff) <= dk + dn:
        return EQUAL
    return GREATER if diff > 0 else LESS


def compare_fraction(pair: GeneratorPair, h: int, k: int) -> int:
    """Order of h/k relative to alpha: LESS or GREATER, never EQUAL.

    h/k < alpha  iff  h*log(p2) < k*log(p1)  iff  p2**h < p1**k.
    Accepts k = 0 (h >= 1) for the Stern-Brocot seed 1/0 = +infinity.
    """
    _check_pair(pair, "compare_fraction")
    h, k = _integer(h, "h"), _integer(k, "k")
    if h < 0 or k < 0 or (h == 0 and k == 0):
        raise InvalidArgument(f"invalid fraction {_show(h)}/{_show(k)}")
    return -_affine_sign(pair, k, h)


def compare_affine(pair: GeneratorPair, u: AffineForm, v: AffineForm) -> int:
    """Exact order of u = k1*alpha - n1 versus v = k2*alpha - n2.

    EQUAL only for component-wise equal forms (irrationality of alpha).
    """
    _check_pair(pair, "compare_affine")
    (k1, n1), (k2, n2) = _form(u, "u", "compare_affine"), _form(v, "v", "compare_affine")
    return _affine_sign(pair, k1 - k2, n1 - n2)


def f(pair: GeneratorPair, n: int) -> int:
    """Upper sequence f(n) = ceil(n/alpha): least k with n/k < alpha.

    That is the k with (k-1)*alpha < n < k*alpha, which two exact signs from
    `_affine_sign` certify. The guess comes from logs sized by the answer: the
    float logs for an answer below _FLOAT_GUESS_MAX, else logs in units of
    2**-bits, 34 bits wider than f(n). It is off by at most one, and steps by
    one until both signs agree. It never reads the convergent table, which
    `verify_fg_at_convergents` checks against f.
    """
    _check_pair(pair, "f")
    n = _count(n, "n", 1)
    lp1, lp2 = pair._log2
    if n < _FLOAT_GUESS_MAX * lp1 / lp2:  # an int-float compare, exact for any n
        k = int(n * lp2 / lp1) + 1
    else:  # f(n) <= 2**(prec-34), and n*n2/n1 is within f(n) * 2**(2-prec) of n*ln(p2)/ln(p1)
        prec = n.bit_length() + int(lp2 / lp1).bit_length() + 34
        k = n * _ln(pair.p2, prec) // _ln(pair.p1, prec) + 1
    while _affine_sign(pair, k, n) != GREATER:
        k += 1
    while _affine_sign(pair, k - 1, n) != LESS:
        k -= 1
    return k


def g(pair: GeneratorPair, n: int) -> int:
    """Lower sequence g(n) = floor(n/alpha) = f(n) - 1."""
    return f(pair, n) - 1


class GridPoint(namedtuple("GridPoint", ("i", "j"))):
    """Exponents (i, j) of p1^i * p2^j: two non-negative ints, checked when built.

    A field without __index__ raises NonIntegerArgument and a negative one
    InvalidArgument. `_make`, `_replace`, pickle and copy build through the
    same check. It compares and hashes as the plain tuple (i, j).
    """

    __slots__ = ()

    def __new__(cls, i: int, j: int):
        x, y = _integer(i, "i"), _integer(j, "j")
        if x < 0 or y < 0:
            raise InvalidArgument(f"grid point must be non-negative, got ({_show(x)}, {_show(y)})")
        return tuple.__new__(cls, (x, y))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)


_point = tuple.__new__  # _point(GridPoint, (i, j)) skips the check, for coordinates the engine built


def _grid_point(p) -> GridPoint:
    """p if it is a GridPoint, else the checked GridPoint of a tuple or list pair (NonIntegerArgument otherwise)."""
    if type(p) is GridPoint:
        return p
    if not isinstance(p, (tuple, list)) or len(p) != 2:  # bytes, range and the like are not points
        raise NonIntegerArgument(f"grid point must be a pair of integers, got {_show(p)}")
    return GridPoint(p[0], p[1])


def _check_value_budget(pair: GeneratorPair, i: int, j: int) -> None:
    """Refuse p1**i * p2**j with BudgetExceeded when it needs more bits than the budget."""
    budget = pair.bit_budget
    if i > budget or j > budget:  # log2(p) >= 1, so the value has more bits than the budget
        raise BudgetExceeded(f"value at ({_show(i)}, {_show(j)}) has an exponent above the bit budget {_show(budget)}")
    lp1, lp2 = pair._log2
    shift = ((i | j | budget) >> 960).bit_length()  # as in _affine_sign: huge counts shift into float range
    bits = (i >> shift) * lp1 + (j >> shift) * lp2  # bits of the value, over 2**shift
    if bits > budget >> shift:
        needs = _show(math.ceil(bits) << shift)  # rounded up, so above the budget
        raise BudgetExceeded(f"value at ({_show(i)}, {_show(j)}) needs ~{needs} bits, budget is {_show(budget)}")


def value(pair: GeneratorPair, p: GridPoint) -> int:
    """Exact integer p1**i * p2**j."""
    _check_pair(pair, "value")
    i, j = _grid_point(p)
    _check_value_budget(pair, i, j)
    return pair.p1**i * pair.p2**j
