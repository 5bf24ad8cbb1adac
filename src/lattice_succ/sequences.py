"""Executable verifiers for the upper/lower sequence and fractional-part theorems.

Every decision is exact: a float decides only where its certified error bound
settles it, and `f` or `_affine_sign` decides the rest. Nothing here shortcuts
via the statements under test.
"""

from __future__ import annotations

from math import inf

from .cf_engine import ConvergentTable, _bands, _last
from .core_arith import (
    EQUAL,
    _FLOAT_ABS_MARGIN,
    _FLOAT_REL_MARGIN,
    GREATER,
    LESS,
    AffineForm,
    BudgetExceeded,
    GeneratorPair,
    InternalConsistencyError,
    InvalidArgument,
    _affine_sign,
    _check_value_budget,
    _integer,
    _show,
    f,
)


class VerifyReport:
    """Outcome of a verifier: ok, the number of checks made, one message per failure."""

    __slots__ = ("ok", "checked", "failures")

    def __init__(self, ok: bool, checked: int, failures: list[str] | None = None):
        self.ok = ok
        self.checked = checked
        self.failures = [] if failures is None else failures  # a fresh list per report

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.ok, self.checked, self.failures) == (other.ok, other.checked, other.failures)
        return NotImplemented  # with __eq__ and no __hash__, a report is unhashable, as it is mutable

    def __repr__(self) -> str:
        return f"VerifyReport(ok={self.ok!r}, checked={self.checked!r}, failures={self.failures!r})"


def verify_fg_at_convergents(table: ConvergentTable, max_index: int) -> VerifyReport:
    """Check f and g at every primary/secondary convergent numerator.

    f(h_{2j} + t*h_{2j+1}) = k_{2j} + t*k_{2j+1} (g one less) for
    0 < t <= a_{2j+2}, and g(h_{2l-1} + t*h_{2l}) = k_{2l-1} + t*k_{2l}
    (f one more) for 0 <= t <= a_{2l+1}, over all levels within max_index.
    The odd family checks both ends of each band, so an inner odd convergent
    is checked twice.
    """
    max_index = _integer(max_index, "max_index")
    table.extend_to(max_index + 1)
    pair = table.pair
    a, hk = table._a, table._hk
    report = VerifyReport(ok=True, checked=0)
    if max_index < 1:
        return report  # no band ends within max_index + 1

    def check(parity: int, base: int, t: int, n: int, kn: int) -> None:
        fn = f(pair, n)
        want = kn + parity  # f = k on the even family, g = f - 1 = k on the odd
        report.checked += 1
        if fn != want:
            label = f"even base 2j={base}" if parity == 0 else f"odd base 2l-1={base}"
            report.ok = False
            report.failures.append(
                f"{label}, t={t}: n={n}, f={fn} (want {want}), g={fn - 1} (want {want - 1})"
            )

    for parity in (0, 1):
        for base, t, hn, kn in _bands(table, "k", parity, hk(_last(max_index + 1, parity))[1]):
            if t or parity:  # the even family starts each band at t = 1
                check(parity, base, t, hn, kn)
            if t == a[base + 2] - 1:
                check(parity, base, t + 1, *hk(base + 2))
    return report


def check_strictly_decreasing(pair: GeneratorPair, forms: list[AffineForm]) -> VerifyReport:
    """Verify forms[0] > forms[1] > ... exactly; report the first bad link."""
    return _decreasing(pair, [(_integer(u.coeff, "coeff"), _integer(u.const, "const")) for u in forms])


def _decreasing(pair: GeneratorPair, forms: list[tuple[int, int]]) -> VerifyReport:
    """check_strictly_decreasing over forms given as (coeff, const) ints, one `_affine_sign` per link."""
    report = VerifyReport(ok=True, checked=max(len(forms) - 1, 0))
    for idx, ((k0, n0), (k1, n1)) in enumerate(zip(forms, forms[1:])):
        if _affine_sign(pair, k0 - k1, n0 - n1) != GREATER:
            report.ok = False
            report.failures.append(f"link {idx}: {AffineForm(k0, n0)} is not > {AffineForm(k1, n1)}")
            break
    return report


def _chain(table: ConvergentTable, parity: int, max_index: int) -> list[tuple[int, int]]:
    """(h, k) of the mediants of one parity up to the last convergent within max_index.

    Parity 1 walks h_1, h_1+h_2, ..., h_3, ...; parity 0 walks h_0, h_0+h_1,
    ..., h_2, .... The chain ends at the convergent `last`, the largest index
    of that parity within max_index; the mediants before it are those with
    k below k_last.
    """
    last = _last(max_index, parity)
    end = table._hk(last)
    chain = [(h, k) for _, _, h, k in _bands(table, "k", parity, end[1])]
    chain.append(end)
    return chain


def verify_monotone_fractional_chains(table: ConvergentTable, max_index: int) -> VerifyReport:
    """Check the two strictly decreasing fractional-part chains.

    Ceil parts h - k*alpha along the odd-anchored chain, floor parts
    k*alpha - h along the even-anchored chain.
    """
    max_index = max(_integer(max_index, "max_index"), 1)
    table.extend_to(max_index)
    pair = table.pair
    r1 = _decreasing(pair, [(-k, -h) for h, k in _chain(table, 1, max_index)])
    r2 = _decreasing(pair, [(k, h) for h, k in _chain(table, 0, max_index)])
    return VerifyReport(
        ok=r1.ok and r2.ok,
        checked=r1.checked + r2.checked,
        failures=[f"ceil chain: {m}" for m in r1.failures]
        + [f"floor chain: {m}" for m in r2.failures],
    )


def minimal_fractional_subsequences(
    table: ConvergentTable, N: int
) -> tuple[list[int], list[int]]:
    """Strict running-minimum records of z_n and y_n over n = 1..N.

    z_n = f(n)*alpha - n with z_0 = alpha seeding the minimum; a record is a
    strictly smaller value than everything before it. Since y_n = alpha - z_n,
    a y record is a strict running maximum of z, so one z stream gives both
    lists. Returns the two index lists. A tie between distinct indices is
    impossible for irrational alpha and raises InternalConsistencyError.

    The scan carries u = f(n)*lp1 - n*lp2 = z_n*log2(p2) as a float, where
    (lp1, lp2) = pair._log2, and builds no power: each step subtracts lp2,
    then adds lp1 while u is surely negative, since f(n) is the least k with
    u > 0. The computed u stays within `margin` of the true f(n)*log2(p1) -
    n*log2(p2):
    - the logs are trusted to `_FLOAT_REL_MARGIN` of f(n)*lp1 + n*lp2, as
      `_affine_sign`'s float filter trusts them, and that sum is largest at
      n = N, with f(N) < f_top;
    - each addition or subtraction since u was last formed rounds once, by at
      most (lp1 + lp2) * 2**-53 as |u| < lp1 + lp2, and there are fewer than
      N + f(N) of them; forming u from f(n) rounds within the relative term;
    - margin allows N + f_top > N + f(N) + 1 roundings, and the two spare ones
      with `_FLOAT_ABS_MARGIN` cover forming the record bounds u +- 2*margin.
    So a u beyond the margin has the true sign; one within it has f(n)
    settled by `f` and u formed again. Two u's more than 2*margin apart are
    ordered as the true ones; closer ones go to `_affine_sign`.

    The exact fallbacks may still build powers below p2**(N+1), which the
    bit budget must allow. An N whose error bound is past float range is refused.
    """
    N = _integer(N, "N")
    if N < 1:
        raise InvalidArgument(f"N must be positive, got {_show(N)}")
    pair = table.pair
    try:
        _check_value_budget(pair, 0, N + 1)
    except BudgetExceeded:
        raise BudgetExceeded(f"record scan to N = {_show(N)} builds {_show(pair.p2)}**{_show(N + 1)}, "
                             f"more bits than the budget {_show(pair.bit_budget)}") from None
    lp1, lp2 = pair._log2
    try:
        f_top = N * lp2 / lp1 + 2  # above f(N) = ceil(N*lp2/lp1)
        span = (N + f_top) * (lp1 + lp2)  # at least f_top*lp1 + N*lp2
    except OverflowError:  # no float holds N
        span = inf
    if span == inf:
        raise InvalidArgument(f"record scan to N = {_show(N)} is past the float range of its error bound")
    margin = (f_top * lp1 + N * lp2) * _FLOAT_REL_MARGIN + _FLOAT_ABS_MARGIN + span * 2**-53
    below, twice = -margin, 2 * margin
    n_records: list[int] = [1]
    m_records: list[int] = [1]
    # n = 1 opens both lists: y_1 is the first y, and z_1 < z_0 = alpha is
    # f(1)'s definition. The running min and max of z are kept as u, f(n), n.
    fn = f(pair, 1)
    u = fn * lp1 - lp2
    # A u below min_hi (above max_lo) may be a record; below min_lo (above max_hi) it is one.
    min_lo = max_lo = u - twice
    min_hi = max_hi = u + twice
    k_min, n_min = k_max, n_max = fn, 1
    for n in range(2, N + 1):
        u -= lp2
        while u < below:
            u += lp1
            fn += 1
        if u <= margin:  # the sign of u, so f(n), is in doubt
            fn = f(pair, n)
            u = fn * lp1 - n * lp2
        if u < min_hi:
            c = LESS if u < min_lo else _affine_sign(pair, fn - k_min, n - n_min)
            if c == LESS:
                min_lo, min_hi, k_min, n_min = u - twice, u + twice, fn, n
                n_records.append(n)
                continue
            if c == EQUAL:
                raise InternalConsistencyError(f"z_{n} ties the running minimum")
        if u > max_lo:
            c = GREATER if u > max_hi else _affine_sign(pair, fn - k_max, n - n_max)
            if c == GREATER:
                max_lo, max_hi, k_max, n_max = u - twice, u + twice, fn, n
                m_records.append(n)
            elif c == EQUAL:
                raise InternalConsistencyError(f"y_{n} ties the running minimum")
    return n_records, m_records


def predicted_record_indices(table: ConvergentTable, N: int) -> tuple[list[int], list[int]]:
    """Convergent-numerator chains up to N that the records must equal.

    n-chain: walk from h_0 = 0 by h_{2i-1} repeated a_{2i} times (i >= 1),
    dropping the initial 0; m-chain: walk from h_1 by h_{2i} repeated
    a_{2i+1} times (i >= 1). These walks visit exactly the even and the odd
    mediant chains over h. N < 1 raises InvalidArgument, as the record scan does.
    """
    N = _integer(N, "N")
    if N < 1:
        raise InvalidArgument(f"N must be positive, got {_show(N)}")
    n_chain = [h for _, _, h, _ in _bands(table, "h", 0, N + 1)][1:]
    m_chain = [h for _, _, h, _ in _bands(table, "h", 1, N + 1)]
    return n_chain, m_chain
