"""Successor/predecessor queries on the exponent grid of S = {p1^i * p2^j}.

The grid decomposes into rectangles, one per band (n, t) of the continued
fraction of alpha (see `tiling.locate`). A translation built from a primary
or secondary convergent carries each rectangle onto its tilde partner and
every element onto its successor in sorted S; undoing the translation of the
tilde rectangle holding a point gives its predecessor. `_query` builds both
queries from one cell lookup, which runs in the query's own frame:
`next_point` looks the cell (y, x) up over the table's source view (h, k),
`prev_point` the cell (x, y) over its tilde view (k, h). `walk` steps the
source-view lookup in its own loop, `_walk`, which returns plain coordinate
lists that `walk` makes GridPoints.

A `GridPoint` is checked when it is built, so a query takes one as it is and sends
any other point through `_grid_point`; both live in `core_arith` with `value`.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import repeat

from .cf_engine import ConvergentTable, _check_table, _grow
from .core_arith import (  # GridPoint and value stay bound here for pickles and imports naming this module
    GridPoint, InternalConsistencyError, NoPredecessor, _count, _grid_point, _point, value,
)


def _query(tilde: bool, name: str, doc: str):
    """next_point (tilde False) or prev_point (tilde True).

    The lookup runs over `table._views[tilde]` = (ue, uo, ve, vo), the even
    and odd parity lists of u and v. Source view: u, v = h, k and
    (c, d) = (y, x), and the cell translates to the successor; tilde view:
    u, v = k, h and (c, d) = (x, y), and it translates to the predecessor.
    A P cell lies in band (n, t) of n = 2m: c at offset rem from
    u_n + t*u_{n+1} = ue[m] + t*uo[m], and d < v_{n+1} = vo[m]; it
    translates to (rem, d + ve[m] + t*vo[m]). Any other cell is an A cell in
    band (n, t) of n = 2m + 1: d at offset rem from vo[m] + t*ve[m + 1], and
    c < u_{n+1} = ue[m + 1]; it translates to (c + uo[m] + t*ue[m + 1], rem).
    Either way the offset rem stays on the band's axis and the other
    coordinate moves by the band's translation. An offset from u_n (P) or
    v_n (A) below the band's width u_{n+1} (v_{n+1}) is a cell of band
    t = 0, which the primary convergent's translation alone carries, with no
    division; only a cell of a band t >= 1 takes `divmod` for t. Cells with
    c < u_0 (tilde, x = 0) are A cells; (0, 0) has no tilde rectangle. Only
    `_grow` grows. `walk` is the second reader of this layout: it runs the
    source-view lookup in its own loop, so a change here must be made there
    too. A table that is not a ConvergentTable fails the one read of
    `table._views`, and `_check_table` names it; the `try` around that read
    costs nothing when the read succeeds.
    """

    def query(table: ConvergentTable, p: GridPoint) -> GridPoint:
        if type(p) is GridPoint:
            c, d = p
        else:
            c, d = _grid_point(p)
        if not tilde:
            c, d = d, c
        try:
            ue, uo, ve, vo = table._views[tilde]
        except AttributeError:
            _check_table(table, name)
            raise
        if c >= ue[0]:
            if ue[-1] <= c:
                _grow(table, ue, c)
            m = bisect_right(ue, c) - 1
            if d < vo[m]:
                c -= ue[m]
                if c >= uo[m]:
                    t, c = divmod(c, uo[m])
                    d += t * vo[m]
                d += ve[m]
                return _point(GridPoint, (c, d) if tilde else (d, c))
        elif not d:
            raise NoPredecessor("no predecessor: (0, 0) is the least element of S")
        if not vo or vo[-1] <= d:
            _grow(table, vo, d)
        m1 = bisect_right(vo, d)
        u1 = ue[m1]
        if c >= u1:
            raise InternalConsistencyError(f"covering argument violated at (c, d) = ({c}, {d})")
        m = m1 - 1
        d -= vo[m]
        v1 = ve[m1]
        if d >= v1:
            t, d = divmod(d, v1)
            c += t * u1
        c += uo[m]
        return _point(GridPoint, (c, d) if tilde else (d, c))

    query.__name__ = query.__qualname__ = name
    query.__doc__ = doc
    return query


next_point = _query(False, "next_point", "Coordinates of the successor of p1^i * p2^j in sorted S.")
prev_point = _query(True, "prev_point", "Coordinates of the predecessor; raises NoPredecessor at (0, 0).")


def walk(table: ConvergentTable, p: GridPoint, n: int) -> list[GridPoint]:
    """The n successors of p in sorted S: next_point iterated n times in one call.

    The GridPoints are built in one pass over `_walk`'s coordinate lists, so
    the lookup loop exists once and `verify` compares its coordinates without
    building points. The count and the point are checked as before, and a
    table without the views raises NonIntegerArgument, as in `_query`.
    """
    return list(map(_point, repeat(GridPoint), zip(*_walk(table, p, n))))


def _walk(table: ConvergentTable, p: GridPoint, n: int) -> tuple[list[int], list[int]]:
    """The i and then the j coordinates of the n successors of p, as two int lists.

    The loop is `_query`'s source-view lookup on plain ints, with (c, d) =
    (j, i): a step in a band t = 0 translates by the primary convergent with
    no division, like `_query`'s, so a change to either must be made to
    both. The copy stays because sharing costs: one `_query` body with a
    batch parameter for both queries and `walk` measured 3 to 7 % slower per
    `next_point`/`prev_point` call, and `walk` as iterated `next_point` 9 %
    slower on the `verify` workload (2-vCPU Xeon VM, Python 3.11). The
    parity lists grow in place, so it sees the rows `_grow` appends
    mid-walk. c >= ue[0] = h_0 = 0 always holds, so the lookup's branch for
    c < u_0, which only the tilde view takes, is left out.
    """
    n = _count(n, "n", 0)
    d, c = _grid_point(p)
    try:
        ue, uo, ve, vo = table._views[False]
    except AttributeError:
        _check_table(table, "walk")
        raise
    i_out, j_out = [], []
    i_add, j_add = i_out.append, j_out.append
    for _ in range(n):
        if ue[-1] <= c:
            _grow(table, ue, c)
        m = bisect_right(ue, c) - 1
        if d < vo[m]:
            c -= ue[m]
            if c >= uo[m]:
                t, c = divmod(c, uo[m])
                d += t * vo[m]
            d += ve[m]
        else:
            if not vo or vo[-1] <= d:
                _grow(table, vo, d)
            m1 = bisect_right(vo, d)
            u1 = ue[m1]
            if c >= u1:
                raise InternalConsistencyError(f"covering argument violated at (c, d) = ({c}, {d})")
            m = m1 - 1
            d -= vo[m]
            v1 = ve[m1]
            if d >= v1:
                t, d = divmod(d, v1)
                c += t * u1
            c += uo[m]
        i_add(d)
        j_add(c)
    return i_out, j_out
