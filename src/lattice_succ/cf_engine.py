"""Simple continued fraction of alpha with primary and secondary convergents.

The partial quotients are discovered by exact Stern-Brocot descent: the next
quotient a_{m+1} is the largest t for which the mediant
(h_{m-1} + t*h_m)/(k_{m-1} + t*k_m) still lies on the same side of alpha as
convergent m-1, each probe one exact `compare_fraction` (a certified float or
decimal-log comparison, big-integer powers only for the smallest operands).
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import Iterator

from .core_arith import (
    GREATER,
    LESS,
    BudgetExceeded,
    GeneratorPair,
    LatticeError,
    _integer,
    compare_fraction,
)


class IndexBeyondTable(LatticeError, IndexError):
    """Requested a convergent index the table has not been extended to."""


class ConvergentTable:
    """Lazily extended table of partial quotients and primary convergents.

    Index i holds (a_i, h_i, k_i), with a_0 = 0, h_0 = 0, k_0 = 1, in three
    flat append-only lists. A row is appended list by list, k last, and the
    depth is read from k, so a reader never sees a partial row. Extension
    holds a per-table lock and re-checks the depth under it; lookups take no
    lock.

    The probes for row depth+1 depend only on the stored rows and the pair,
    so a row the bit budget refused is refused again on every attempt. The
    table remembers that refusal and answers a later need for a row past it
    with a fresh BudgetExceeded of the same message, without comparing again.
    """

    def __init__(self, pair: GeneratorPair):
        self.pair = pair
        self._a = [0]
        self._h = [0]
        self._k = [1]
        self._lock = threading.Lock()
        self._wall: str | None = None  # message of the BudgetExceeded that refused row depth+1

    @property
    def depth(self) -> int:
        """Highest stored convergent index."""
        return len(self._k) - 1

    def quotient(self, i: int) -> int:
        return self._a[self._check_index(i)]

    def h(self, i: int) -> int:
        return self._h[self._check_index(i)]

    def k(self, i: int) -> int:
        return self._k[self._check_index(i)]

    def _check_index(self, i: int) -> int:
        if i < 0 or i >= len(self._k):
            raise IndexBeyondTable(f"index {i} beyond table depth {len(self._k) - 1}")
        return i

    @property
    def quotients(self) -> list[int]:
        return self._a[: len(self._k)]

    @property
    def convergents(self) -> list[tuple[int, int]]:
        return list(zip(self._h, self._k))

    def extend_to(self, i: int) -> "ConvergentTable":
        """Ensure quotients and convergents through index i are stored."""
        i = _integer(i, "index")
        if len(self._k) <= i:
            self._check_wall()
            with self._lock:
                while len(self._k) <= i:
                    self._append_row()
        return self

    def extend_until(self, above: int, seq: str = "k", parity: int = 1) -> "ConvergentTable":
        """Grow until the last index of the given parity has h or k > above."""
        above, parity = _integer(above, "above"), _integer(parity, "parity")
        if seq not in ("h", "k"):
            raise ValueError(f"seq must be 'h' or 'k', got {seq!r}")
        if parity not in (0, 1):
            raise ValueError(f"parity must be 0 or 1, got {parity}")
        values = self._h if seq == "h" else self._k
        if not _last_exceeds(values, len(self._k) - 1, parity, above):
            self._check_wall()
            with self._lock:
                while not _last_exceeds(values, len(self._k) - 1, parity, above):
                    self._append_row()
        return self

    def _check_wall(self) -> None:
        if self._wall is not None:  # fresh: re-raising one instance would grow its traceback
            raise BudgetExceeded(self._wall)

    def _append_row(self) -> None:
        m = len(self._k) - 1
        hm, km = self._h[m], self._k[m]
        if m == 0:
            hp, kp = 1, 0  # conventional convergent -1 = 1/0
        else:
            hp, kp = self._h[m - 1], self._k[m - 1]
        # Convergent m-1 sits below alpha at even index, above at odd.
        side_prev = LESS if (m - 1) % 2 == 0 else GREATER

        def side(t: int) -> int:
            return compare_fraction(self.pair, hp + t * hm, kp + t * km)

        # The mediants stay on side_prev exactly for 1 <= t <= a_{m+1}.
        try:
            hi = 1
            while side(2 * hi) == side_prev:
                hi *= 2
            lo = hi  # side(lo) == side_prev, side(2*hi) flipped
            hi = 2 * hi
            while lo + 1 < hi:
                mid = (lo + hi) // 2
                if side(mid) == side_prev:
                    lo = mid
                else:
                    hi = mid
        except BudgetExceeded as exc:
            self._wall = str(exc)  # written under the lock
            raise
        a = lo
        self._a.append(a)
        self._h.append(hp + a * hm)
        self._k.append(kp + a * km)


def _last(m: int, parity: int) -> int:
    """Largest index of the given parity that is at most m (-1 when there is none)."""
    return m - (m - parity) % 2


def _last_exceeds(values: list[int], depth: int, parity: int, c: int) -> bool:
    """Whether the last stored entry of the given parity exceeds c."""
    last = _last(depth, parity)
    return last >= 0 and values[last] > c


def _band(table: ConvergentTable, seq: str, parity: int, c: int) -> tuple[int, int, int]:
    """Band of coordinate c over the h or k entries of one parity: (n, t, rem).

    n is the largest index of that parity with seq[n] <= c, and
    (t, rem) = divmod(c - seq[n], seq[n + 1]). The caller guarantees
    seq[parity] <= c. The table grows only when its last entry of that parity
    does not exceed c.
    """
    values = table._h if seq == "h" else table._k
    depth = len(table._k) - 1
    last = _last(depth, parity)  # _last_exceeds inlined: one call fewer on the hot path
    if last < 0 or values[last] <= c:
        table.extend_until(c, seq, parity)
        depth = len(table._k) - 1
    n = bisect_right(values, c, 0, depth + 1) - 1
    n -= (n - parity) % 2
    t, rem = divmod(c - values[n], values[n + 1])
    return n, t, rem


def _bands(table: ConvergentTable, seq: str, parity: int, limit: int) -> Iterator[tuple[int, int, int, int]]:
    """(n, t, h, k) of every mediant of one parity whose seq coordinate is below limit.

    h/k = (h_n + t*h_{n+1})/(k_n + t*k_{n+1}) for n of the given parity and
    0 <= t < a_{n+2}: the primary convergent n at t = 0, its secondary
    convergents after. Both coordinates strictly increase along the chain, so
    a limit on one bounds the other. Band (n, t) over seq starts at seq's
    coordinate and is seq[n+1] wide. The table grows only as far as the last
    index these mediants need.
    """
    a, h, k = table._a, table._h, table._k
    values = h if seq == "h" else k
    if len(k) <= parity:
        table.extend_to(parity)
    n = parity
    while values[n] < limit:
        if len(k) <= n + 2:
            table.extend_to(n + 2)
        h0, k0, dh, dk = h[n], k[n], h[n + 1], k[n + 1]
        # t*seq[n+1] < limit - seq[n] exactly for t below the ceiling of their ratio
        for t in range(min(a[n + 2], -((values[n] - limit) // values[n + 1]))):
            yield n, t, h0 + t * dh, k0 + t * dk
        n += 2
