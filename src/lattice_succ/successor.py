"""Successor/predecessor queries on the exponent grid of S = {p1^i * p2^j}.

The grid decomposes into rectangles, one per band (n, t) of the continued
fraction of alpha (see `tiling.locate`). A translation built from a primary
or secondary convergent carries each rectangle onto its tilde partner and
every element onto its successor in sorted S; undoing the translation of the
tilde rectangle holding a point gives its predecessor. `_query` builds both
queries from one cell lookup, which runs in the query's own frame:
`next_point` looks the cell (y, x) up over the table's source view (h, k),
`prev_point` the cell (x, y) over its tilde view (k, h). `walk` steps the
source-view lookup in its own loop.

A `GridPoint` is checked when it is built, so a query takes one as it is and sends
any other point through `_grid_point`; both live in `core_arith` with `value`.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import repeat

from .cf_engine import ConvergentTable, _grow
from .core_arith import (  # GridPoint and value stay bound here for pickles and imports naming this module
    GridPoint, InternalConsistencyError, InvalidArgument, NoPredecessor,
    _grid_point, _integer, _point, _show, value,
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
    coordinate moves by the band's translation. Cells with c < u_0 (tilde,
    x = 0) are A cells; (0, 0) has no tilde rectangle. Only `_grow` grows.
    `walk` is the second reader of this layout: it runs the source-view
    lookup in its own loop, so a change here must be made there too.
    """

    def query(table: ConvergentTable, p: GridPoint) -> GridPoint:
        if type(p) is GridPoint:
            c, d = p
        else:
            c, d = _grid_point(p)
        if not tilde:
            c, d = d, c
        ue, uo, ve, vo = table._views[tilde]
        if c >= ue[0]:
            if ue[-1] <= c:
                _grow(table, ue, c)
            m = bisect_right(ue, c) - 1
            if d < vo[m]:
                t, c = divmod(c - ue[m], uo[m])
                d += ve[m] + t * vo[m]
                return _point(GridPoint, (c, d) if tilde else (d, c))
        elif not d:
            raise NoPredecessor("no predecessor: (0, 0) is the least element of S")
        if not vo or vo[-1] <= d:
            _grow(table, vo, d)
        m = bisect_right(vo, d) - 1
        if c >= ue[m + 1]:
            raise InternalConsistencyError(f"covering argument violated at (c, d) = ({c}, {d})")
        t, d = divmod(d - vo[m], ve[m + 1])
        c += uo[m] + t * ue[m + 1]
        return _point(GridPoint, (c, d) if tilde else (d, c))

    query.__name__ = query.__qualname__ = name
    query.__doc__ = doc
    return query


next_point = _query(False, "next_point", "Coordinates of the successor of p1^i * p2^j in sorted S.")
prev_point = _query(True, "prev_point", "Coordinates of the predecessor; raises NoPredecessor at (0, 0).")


def walk(table: ConvergentTable, p: GridPoint, n: int) -> list[GridPoint]:
    """The n successors of p in sorted S: next_point iterated n times in one call.

    The loop is `_query`'s source-view lookup on plain ints, with (c, d) =
    (j, i). The parity lists grow in place, so it sees the rows `_grow`
    appends mid-walk. c >= ue[0] = h_0 = 0 always holds, so the lookup's
    branch for c < u_0, which only the tilde view takes, is left out. The
    GridPoints are built in one pass at the end.
    """
    n = _integer(n, "n")
    if n < 0:
        raise InvalidArgument(f"step count must be non-negative, got {_show(n)}")
    d, c = _grid_point(p)
    ue, uo, ve, vo = table._views[False]
    i_out, j_out = [], []
    for _ in range(n):
        if ue[-1] <= c:
            _grow(table, ue, c)
        m = bisect_right(ue, c) - 1
        if d < vo[m]:
            t, c = divmod(c - ue[m], uo[m])
            d += ve[m] + t * vo[m]
        else:
            if not vo or vo[-1] <= d:
                _grow(table, vo, d)
            m = bisect_right(vo, d) - 1
            if c >= ue[m + 1]:
                raise InternalConsistencyError(f"covering argument violated at (c, d) = ({c}, {d})")
            t, d = divmod(d - vo[m], ve[m + 1])
            c += uo[m] + t * ue[m + 1]
        i_out.append(d)
        j_out.append(c)
    return list(map(_point, repeat(GridPoint), zip(i_out, j_out)))
