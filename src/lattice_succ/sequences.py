"""Executable verifiers for the upper/lower sequence and fractional-part theorems.

All checks run through exact affine-form comparisons; nothing here shortcuts
via the statements under test.
"""

from __future__ import annotations

from .cf_engine import ConvergentTable, _bands, _last
from .core_arith import (
    EQUAL,
    GREATER,
    LESS,
    AffineForm,
    BudgetExceeded,
    GeneratorPair,
    InternalConsistencyError,
    InvalidArgument,
    _affine_sign,
    _integer,
    f,
)

# Bits below the binary point kept in the record scan's exact key for z_n.
_KEY_BITS = 64


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

    z_n = log_p2(p1**f(n) / p2**n), so floors of that ratio times 2**_KEY_BITS
    order the z strictly where they differ; equal floors go to _affine_sign.
    Both powers stay below p2**(N+1), which the bit budget must allow.
    """
    N = _integer(N, "N")
    if N < 1:
        raise InvalidArgument(f"N must be positive, got {N}")
    pair = table.pair
    p1, p2, budget = pair.p1, pair.p2, pair.bit_budget
    # log2(p2) > 1, so the first test also keeps an N too large for a float out of the second.
    if N + 1 > budget or (N + 1) * pair._log2[1] > budget:
        raise BudgetExceeded(f"record scan to N = {N} builds {p2}**{N + 1}, more bits than the budget {budget}")
    n_records: list[int] = [1]
    m_records: list[int] = [1]
    # Incremental f: maintain p1**fn > p2**n > p1**(fn-1).
    fn = f(pair, 1)
    pow1 = p1**fn
    pow2 = p2
    # n = 1 opens both lists: y_1 is the first y, and z_1 < z_0 = alpha is
    # f(1)'s definition. The running min and max of z are kept as key, f(n), n.
    q_min = q_max = (pow1 << _KEY_BITS) // pow2
    k_min, n_min = k_max, n_max = fn, 1
    for n in range(2, N + 1):
        pow2 *= p2
        while pow1 <= pow2:
            fn += 1
            pow1 *= p1
        q = (pow1 << _KEY_BITS) // pow2
        if q <= q_min:
            c = LESS if q < q_min else _affine_sign(pair, fn - k_min, n - n_min)
            if c == LESS:
                q_min, k_min, n_min = q, fn, n
                n_records.append(n)
                continue
            if c == EQUAL:
                raise InternalConsistencyError(f"z_{n} ties the running minimum")
        if q >= q_max:
            c = GREATER if q > q_max else _affine_sign(pair, fn - k_max, n - n_max)
            if c == GREATER:
                q_max, k_max, n_max = q, fn, n
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
        raise InvalidArgument(f"N must be positive, got {N}")
    n_chain = [h for _, _, h, _ in _bands(table, "h", 0, N + 1)][1:]
    m_chain = [h for _, _, h, _ in _bands(table, "h", 1, N + 1)]
    return n_chain, m_chain
