"""End-to-end acceptance suite; one printed PASS line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
"""

import time

import pytest

from lattice_succ import (
    GridPoint,
    NoPredecessor,
    compare_affine,
    enumerate_sorted,
    minimal_fractional_subsequences,
    naive_next,
    next_point,
    predicted_record_indices,
    prev_point,
    verify_fg_at_convergents,
    verify_partition,
)
from lattice_succ.core_arith import AffineForm, GREATER, LESS, compare_fraction
from lattice_succ.tiling import large_gap

from conftest import PAIR_ARGS, safe_depth, table_for


def report(name, detail=""):
    print(f"ACCEPT PASS {name}" + (f": {detail}" if detail else ""))


@pytest.mark.parametrize("p1,p2", PAIR_ARGS)
def test_criterion_1_oracle_agreement_20k(p1, p2):
    table = table_for(p1, p2)
    start = time.perf_counter()
    elems = enumerate_sorted(table.pair, 20_000)
    matches = sum(
        1 for (p, _), (q, _) in zip(elems, elems[1:]) if next_point(table, p) == q
    )
    elapsed = time.perf_counter() - start
    assert matches == 19_999
    report(f"1 oracle-agreement ({p1},{p2})", f"20000/20000 matches in {elapsed:.1f}s")


@pytest.mark.parametrize("p1,p2", [(2, 3), (2, 5)])
def test_criterion_2_inverse_property_300x300(p1, p2):
    table = table_for(p1, p2)
    for i in range(300):
        for j in range(300):
            p = GridPoint(i, j)
            assert prev_point(table, next_point(table, p)) == p
            if p != (0, 0):
                assert next_point(table, prev_point(table, p)) == p
    with pytest.raises(NoPredecessor):
        prev_point(table, GridPoint(0, 0))
    report(f"2 inverse-property ({p1},{p2})", "300x300 window, zero mismatches")


@pytest.mark.parametrize("p1,p2", [(2, 3), (2, 5), (3, 5)])
def test_criterion_3_partition_claims(p1, p2):
    table = table_for(p1, p2)
    src = verify_partition(table, 200, 200, tilde=False)
    assert src.ok, src.violations
    tld = verify_partition(table, 200, 200, tilde=True)
    assert tld.ok, tld.violations
    # the tilde check already demands (0,0) uncovered; double-check directly
    from lattice_succ import rectangles_in_window

    assert not any(
        r.x_min <= 0 <= r.x_max and r.y_min <= 0 <= r.y_max
        for r in rectangles_in_window(table, 200, 200, tilde=True)
    )
    report(f"3 partition ({p1},{p2})", "200x200 both families; only (0,0) uncovered in tilde")


def test_criterion_4_convergent_engine():
    table = table_for(2, 3)
    table.extend_to(12)
    assert table.quotients[:11] == [0, 1, 1, 1, 2, 2, 3, 1, 5, 2, 23]
    for p1, p2 in PAIR_ARGS:
        t = table_for(p1, p2)
        depth = safe_depth(t, 12)
        for i in range(depth):
            det = t.h(i) * t.k(i + 1) - t.k(i) * t.h(i + 1)
            assert abs(det) == 1
            if i >= 2:
                assert t.h(i) == t.quotient(i) * t.h(i - 1) + t.h(i - 2)
                assert t.k(i) == t.quotient(i) * t.k(i - 1) + t.k(i - 2)
            side = compare_fraction(t.pair, t.h(i), t.k(i))
            assert side == (LESS if i % 2 == 0 else GREATER)
    report("4 convergent-engine", "quotients, determinant, recurrence, parity sides")


@pytest.mark.parametrize("p1,p2", [(2, 3), (2, 5), (3, 5)])
def test_criterion_5_fg_identities_to_k_10000(p1, p2):
    table = table_for(p1, p2)
    table.extend_until(10_000, seq="k", parity=0)
    table.extend_until(10_000, seq="k", parity=1)
    max_index = max(i for i in range(table.depth + 1) if table.k(i) <= 10_000)
    rep = verify_fg_at_convergents(table, max_index)
    assert rep.ok, rep.failures
    report(f"5 fg-identities ({p1},{p2})", f"{rep.checked} identities through k_i <= 10000")


@pytest.mark.parametrize("p1,p2", [(2, 3), (2, 5)])
def test_criterion_6_minimal_fractional_records_5000(p1, p2):
    table = table_for(p1, p2)
    got = minimal_fractional_subsequences(table, 5_000)
    want = predicted_record_indices(table, 5_000)
    assert got == want

    # difference-pattern check against the quotient/numerator structure
    n_rec, m_rec = got

    def pattern(parity_odd, need):
        out, i = [], 1
        while len(out) < need:
            idx = 2 * i - 1 if parity_odd else 2 * i
            table.extend_to(idx + 1)
            out.extend([table.h(idx)] * table.quotient(idx + 1))
            i += 1
        return out[:need]

    n_diffs = [b - a for a, b in zip([0] + n_rec, n_rec)]
    assert n_diffs == pattern(True, len(n_diffs))
    m_diffs = [b - a for a, b in zip(m_rec, m_rec[1:])]
    assert m_diffs == pattern(False, len(m_diffs))
    report(
        f"6 minimal-fractional-records ({p1},{p2})",
        f"N=5000: {len(n_rec)} z-records, {len(m_rec)} y-records match the predicted chains",
    )


def test_criterion_7_arbitrarily_large_gaps():
    table = table_for(2, 3)
    pair = table.pair
    witnesses = [large_gap(table, level) for level in range(1, 7)]
    gaps = [w.gap for w in witnesses]
    for bound in (1, 10**2, 10**6):
        assert any(g > bound for g in gaps), f"no gap exceeds {bound}"
    # small levels: adjacency against the enumeration oracle
    for w in witnesses[:2]:
        assert naive_next(pair, w.point) == w.succ
    # deep levels: exact affine ordering point < succ and positive gap
    for w in witnesses:
        form_p = AffineForm(w.point.i, -w.point.j)  # i*alpha + j
        form_s = AffineForm(w.succ.i, -w.succ.j)
        assert compare_affine(pair, form_p, form_s) == LESS
        assert w.gap >= 1
    # deep gaps have millions of digits; report bit lengths
    report("7 large-gaps", f"levels 1..6 gap bit lengths {[g.bit_length() for g in gaps]}")


@pytest.mark.slow
def test_criterion_8_performance_sanity():
    table = table_for(2, 3)
    pair = table.pair
    count = 10_000

    start = time.perf_counter()
    p = GridPoint(0, 0)
    cf_walk = [p]
    for _ in range(count):
        p = next_point(table, p)
        cf_walk.append(p)
    cf_seconds = time.perf_counter() - start

    start = time.perf_counter()
    q = GridPoint(0, 0)
    naive_walk = [q]
    for _ in range(count):
        q = naive_next(pair, q)
        naive_walk.append(q)
    naive_seconds = time.perf_counter() - start

    assert cf_walk == naive_walk
    speedup = naive_seconds / cf_seconds
    # hard-fail only if slower than the oracle; report the 5x target
    assert cf_seconds < naive_seconds, (
        f"CF walk slower than fresh enumeration: {cf_seconds:.2f}s vs {naive_seconds:.2f}s"
    )
    verdict = "meets 5x target" if speedup >= 5 else "below 5x target (reported, not failed)"
    report(
        "8 performance-sanity",
        f"{count} steps: CF {cf_seconds:.2f}s vs naive {naive_seconds:.2f}s "
        f"({speedup:.1f}x, {verdict})",
    )
