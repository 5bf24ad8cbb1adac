"""Simple continued fraction of alpha with primary and secondary convergents.

The partial quotients are read off a certified interval around
1/alpha = log(p2)/log(p1), the interval form of Lehmer's multi-precision
Euclid: Euclid's division runs on both ends in lockstep, and every quotient
the two ends share is one of 1/alpha's, which are alpha's from a_1 on. The
first interval comes from the float logs, trusted with the relative margin
of `core_arith`'s float pre-filter; when its quotients run out,
`core_arith._ln`'s logs in units of 2**-bits, at doubling width, give the
next. Growth makes no comparison.

The table keeps the quotients a in one list and h and k split by index
parity: the even-index convergents lie below alpha and carry the P bands,
the odd-index ones above it carry the A bands. `_views` orders the four
parity lists for the queries in `successor`, which find the rectangle
holding a grid cell by bisecting the list of one parity; `_bands`
enumerates the mediant chains for the tiling and the verifiers. `_grow` is
the one loop that grows the table until a parity list passes a value.
"""

from __future__ import annotations

from _thread import allocate_lock
from collections.abc import Iterator

from .core_arith import (
    _FLOAT_REL_MARGIN,
    BudgetExceeded,
    GeneratorPair,
    InvalidArgument,
    LatticeError,
    NonIntegerArgument,
    _check_pair,
    _count,
    _integer,
    _ln,
    _show,
)


class IndexBeyondTable(LatticeError, IndexError):
    """Requested a convergent index the table has not been extended to."""


class ConvergentTable:
    """Lazily extended table of partial quotients and primary convergents.

    Row i is (a_i, h_i, k_i), with a_0 = 0, h_0 = 0, k_0 = 1. The quotients
    are kept in `_a`, and h and k split by index parity: `_h_even[m]` = h_{2m},
    `_h_odd[m]` = h_{2m+1}, and `_k_even`, `_k_odd` alike. These five
    append-only lists and `_hk(i)`, which reads (h_i, k_i) from them, are the
    table's read-only view for the rest of the package: readers index them and
    never write to them. `_views` holds the four parity lists in the two
    orders the queries bisect them in.

    Extension holds a per-table lock and re-checks under it; lookups take no
    lock. A row is appended as h of its parity, k of its parity, then a, and
    rows in index order. So the depth, read from `_a`, covers whole rows, and
    seeing entry m + 1 of any parity list means entry m of all four is
    complete.

    The bit budget bounds the exponents the table serves: row depth+1 is
    refused once h of both parities is past it. Since h <= k, the table then
    covers every grid point whose two exponents are within the budget, and
    a refusal is one integer comparison. `_cf` holds the quotients a_1,
    a_2, ... certified so far, which are those of 1/alpha = log(p2)/log(p1)
    (a_0 = 0, as p1 < p2), and `_prec` the log width in bits that certified
    them (0: the float logs).
    """

    def __init__(self, pair: GeneratorPair):
        _check_pair(pair, "a table")
        self.pair = pair
        self._a = [0]
        self._h_even, self._h_odd = [0], []
        self._k_even, self._k_odd = [1], []
        # (ue, uo, ve, vo) over the source view u, v = h, k and the tilde view u, v = k, h
        self._views = (
            (self._h_even, self._h_odd, self._k_even, self._k_odd),
            (self._k_even, self._k_odd, self._h_even, self._h_odd),
        )
        self._lock = allocate_lock()
        inverse = pair._log2[1] / pair._log2[0]
        wide = inverse * _FLOAT_REL_MARGIN
        self._cf = _shared_quotients(*(inverse - wide).as_integer_ratio(), *(inverse + wide).as_integer_ratio())
        self._prec = 0

    @property
    def depth(self) -> int:
        """Highest stored convergent index."""
        return len(self._a) - 1

    def quotient(self, i: int) -> int:
        return self._a[self._check_index(i)]

    def h(self, i: int) -> int:
        return self._hk(self._check_index(i))[0]

    def k(self, i: int) -> int:
        return self._hk(self._check_index(i))[1]

    def _check_index(self, i: int) -> int:
        i = _integer(i, "index")
        if i < 0 or i >= len(self._a):
            raise IndexBeyondTable(f"index {_show(i)} beyond table depth {len(self._a) - 1}")
        return i

    def _hk(self, i: int) -> tuple[int, int]:
        """(h_i, k_i) for a stored row i >= 0."""
        if i & 1:
            return self._h_odd[i >> 1], self._k_odd[i >> 1]
        return self._h_even[i >> 1], self._k_even[i >> 1]

    @property
    def quotients(self) -> list[int]:
        return self._a[:]

    @property
    def convergents(self) -> list[tuple[int, int]]:
        return [self._hk(i) for i in range(len(self._a))]

    def extend_to(self, i: int) -> "ConvergentTable":
        """Ensure quotients and convergents through index i >= 0 are stored."""
        i = _count(i, "index", 0)
        if len(self._a) <= i:
            with self._lock:
                while len(self._a) <= i:
                    self._append_row()
        return self

    def extend_until(self, above: int, seq: str = "k", parity: int = 1) -> "ConvergentTable":
        """Grow until the last index of the given parity has h or k > above."""
        above, parity = _integer(above, "above"), _integer(parity, "parity")
        if seq not in ("h", "k"):
            raise InvalidArgument(f"seq must be 'h' or 'k', got {_show(seq)}")
        if parity not in (0, 1):
            raise InvalidArgument(f"parity must be 0 or 1, got {_show(parity)}")
        lists = (self._h_even, self._h_odd) if seq == "h" else (self._k_even, self._k_odd)
        _grow(self, lists[parity], above)
        return self

    def _append_row(self) -> None:
        m = len(self._a) - 1
        budget = self.pair.bit_budget
        if m and self._h_even[-1] > budget and self._h_odd[-1] > budget:
            raise BudgetExceeded(f"row {m + 1} is past the bit budget {budget}: h_{m - 1} and h_{m} exceed it")
        hm, km = self._hk(m)
        hp, kp = self._hk(m - 1) if m else (1, 0)  # conventional convergent -1 = 1/0
        while len(self._cf) <= m:
            self._refine()
        a = self._cf[m]
        h, k = hp + a * hm, kp + a * km
        if m % 2:  # the new row m + 1 is even
            self._h_even.append(h)
            self._k_even.append(k)
        else:
            self._h_odd.append(h)
            self._k_odd.append(k)
        self._a.append(a)

    def _refine(self) -> None:
        """Certify quotients from logs at twice the last width in bits.

        With n_i within one unit of ln(p_i) * 2**bits, 1/alpha lies in
        [(n2 - 1)/(n1 + 1), (n2 + 1)/(n1 - 1)].
        """
        prec = 2 * self._prec or 107
        n1, n2 = _ln(self.pair.p1, prec), _ln(self.pair.p2, prec)
        cf = _shared_quotients(n2 - 1, n1 + 1, n2 + 1, n1 - 1)
        if len(cf) > len(self._cf):
            self._cf = cf
        self._prec = prec


def _check_table(table, user: str) -> None:
    """Refuse anything but a ConvergentTable with NonIntegerArgument, naming the user, as `_check_pair` does pairs.

    The queries call it only when reading the table's views fails, so the
    error is raised without the AttributeError as its context.
    """
    if not isinstance(table, ConvergentTable):
        raise NonIntegerArgument(f"{user} needs a ConvergentTable, got {_show(table)}") from None


def _shared_quotients(n1: int, d1: int, n2: int, d2: int) -> list[int]:
    """The continued-fraction quotients that n1/d1 and n2/d2 (d1, d2 > 0) share.

    Every x between the two ends has them, because each step x -> 1/(x - a)
    is monotone on the numbers that share a. An end that is an integer stops
    the prefix, since x may equal it or lie just below it.
    """
    cf = []
    while True:
        q1, r1 = divmod(n1, d1)
        q2, r2 = divmod(n2, d2)
        if q1 != q2 or not r1 or not r2:
            return cf
        cf.append(q1)
        n1, d1, n2, d2 = d1, r1, d2, r2


def _last(m: int, parity: int) -> int:
    """Largest index of the given parity that is at most m (-1 when there is none)."""
    return m - (m - parity) % 2


def _grow(table: ConvergentTable, values: list[int], c: int) -> None:
    """Grow until the last entry of values, one of the table's parity lists, exceeds c.

    The list is re-read under the lock, so a row another thread appended first counts.
    """
    with table._lock:
        while not values or values[-1] <= c:
            table._append_row()


def _bands(table: ConvergentTable, seq: str, parity: int, limit: int) -> Iterator[tuple[int, int, int, int]]:
    """(n, t, h, k) of every mediant of one parity whose seq coordinate is below limit.

    h/k = (h_n + t*h_{n+1})/(k_n + t*k_{n+1}) for n of the given parity and
    0 <= t < a_{n+2}: the primary convergent n at t = 0, its secondary
    convergents after. Both coordinates strictly increase along the chain, so
    a limit on one bounds the other. Band (n, t) over seq starts at seq's
    coordinate and is seq[n+1] wide. The table first grows, through `_grow`,
    to the first convergent of the parity whose seq coordinate is at or past
    limit: the last index these mediants need.
    """
    a, even, odd = table._a, (table._h_even, table._k_even), (table._h_odd, table._k_odd)
    # Row n = 2m + parity is entry m of its parity's lists, row n + 1 entry m + parity of the other's.
    (hs, ks), (dhs, dks) = (even, odd) if parity == 0 else (odd, even)
    values, widths = (ks, dks) if seq == "k" else (hs, dhs)
    _grow(table, values, limit - 1)
    m = 0
    while values[m] < limit:
        n, j = 2 * m + parity, m + parity
        h0, k0, dh, dk = hs[m], ks[m], dhs[j], dks[j]
        # t*seq[n+1] < limit - seq[n] exactly for t below the ceiling of their ratio
        for t in range(min(a[n + 2], -((values[m] - limit) // widths[j]))):
            yield n, t, h0 + t * dh, k0 + t * dk
        m += 1
