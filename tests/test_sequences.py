import pytest

from lattice_succ import (
    GREATER,
    LESS,
    AffineForm,
    ConvergentTable,
    compare_affine,
    f,
    g,
    minimal_fractional_subsequences,
    predicted_record_indices,
    verify_fg_at_convergents,
    verify_monotone_fractional_chains,
)
from lattice_succ import sequences
from lattice_succ.core_arith import ZERO_FORM
from lattice_succ.sequences import check_strictly_decreasing

from conftest import PAIR_ARGS, safe_depth, table_for


def frac_parts(pair, n):
    """The two fractional parts at n: z = f(n)*alpha - n and y = n - g(n)*alpha, g = f - 1."""
    fn = f(pair, n)
    return AffineForm(fn, n), AffineForm(-(fn - 1), -n)


class TestFracParts:
    def test_values_at_small_n(self, pair23):
        assert (f(pair23, 1), g(pair23, 1)) == (2, 1)
        assert frac_parts(pair23, 1) == (AffineForm(2, 1), AffineForm(-1, -1))

    @pytest.mark.parametrize("p1,p2", PAIR_ARGS)
    def test_positive_and_sum_to_alpha(self, p1, p2):
        table = table_for(p1, p2)
        pair = table.pair
        alpha = AffineForm(1, 0)
        for n in range(1, 60):
            z, y = frac_parts(pair, n)
            assert compare_affine(pair, z, ZERO_FORM) == GREATER
            assert compare_affine(pair, y, ZERO_FORM) == GREATER
            # z + y = alpha by coefficient bookkeeping: f - g = 1
            assert AffineForm(z.coeff + y.coeff, z.const + y.const) == alpha
            # both strictly below alpha
            assert compare_affine(pair, z, alpha) != GREATER
            assert compare_affine(pair, y, alpha) != GREATER


class TestFgAtConvergents:
    def test_passes_2_3(self, table23):
        report = verify_fg_at_convergents(table23, 4)
        assert report.ok and report.failures == []
        assert report.checked > 0

    def test_vacuous_at_depth_zero(self, table23):
        report = verify_fg_at_convergents(table23, 0)
        assert report.ok and report.checked == 0

    @pytest.mark.parametrize("p1,p2", PAIR_ARGS)
    def test_passes_all_pairs(self, p1, p2):
        assert verify_fg_at_convergents(table_for(p1, p2), 6).ok


class TestMonotoneChains:
    @pytest.mark.parametrize("p1,p2", PAIR_ARGS)
    def test_passes(self, p1, p2):
        report = verify_monotone_fractional_chains(table_for(p1, p2), 5)
        assert report.ok and report.failures == []

    def test_vacuous_single_link(self, table23):
        report = verify_monotone_fractional_chains(table23, 1)
        assert report.ok

    def test_negative_control_swapped_links(self, table23):
        pair = table23.pair
        # ceil parts at h1-k1*a and (h1+h2)-(k1+k2)*a, deliberately swapped
        good = [AffineForm(-1, -1), AffineForm(-3, -2)]
        assert check_strictly_decreasing(pair, good).ok
        bad = list(reversed(good))
        report = check_strictly_decreasing(pair, bad)
        assert not report.ok
        assert "link 0" in report.failures[0]


class TestMinimalFractionalSubsequences:
    def test_records_2_3_to_45(self, table23):
        n_rec, m_rec = minimal_fractional_subsequences(table23, 45)
        assert n_rec == [1, 3, 5, 17, 29, 41]
        assert m_rec == [1, 2, 7, 12]

    def test_single_record(self, table23):
        assert minimal_fractional_subsequences(table23, 1) == ([1], [1])

    def test_n_2(self, table23):
        # z_2 = 4a - 2 > z_1 = 2a - 1 (reduces to 2a > 1), so no new z record;
        # y_2 = 2 - 3a < y_1 = 1 - a (reduces to 2a > 1), a new y record.
        assert minimal_fractional_subsequences(table23, 2) == ([1], [1, 2])

    def test_rejects_nonpositive(self, table23):
        with pytest.raises(ValueError):
            minimal_fractional_subsequences(table23, 0)

    @pytest.mark.parametrize("N", [0, -1])
    def test_prediction_rejects_nonpositive(self, table23, N):
        with pytest.raises(ValueError, match="N must be positive"):
            predicted_record_indices(table23, N)

    @pytest.mark.parametrize("p1,p2", PAIR_ARGS)
    def test_records_equal_predicted_chains(self, p1, p2):
        table = table_for(p1, p2)
        assert minimal_fractional_subsequences(table, 400) == predicted_record_indices(table, 400)

    @pytest.mark.parametrize("p1,p2", PAIR_ARGS)
    def test_difference_pattern(self, p1, p2):
        table = table_for(p1, p2)
        n_rec, m_rec = minimal_fractional_subsequences(table, 400)

        def pattern(start_index, need):
            out = []
            i = 1
            while len(out) < need:
                idx = 2 * i - 1 if start_index == "odd" else 2 * i
                table.extend_to(idx + 1)
                out.extend([table.h(idx)] * table.quotient(idx + 1))
                i += 1
            return out[:need]

        n_diffs = [b - a for a, b in zip([0] + n_rec, n_rec)]
        assert n_diffs == pattern("odd", len(n_diffs))
        m_diffs = [b - a for a, b in zip(m_rec, m_rec[1:])]
        assert m_diffs == pattern("even", len(m_diffs))

    @pytest.mark.parametrize("p1,p2", PAIR_ARGS)
    @pytest.mark.parametrize("N", [1, 2, 3000])
    def test_matches_frac_parts_reference(self, p1, p2, N):
        # the scan written out: both fractional parts as AffineForms per n,
        # each compared with its own running minimum
        table = table_for(p1, p2)
        pair = table.pair
        n_rec, m_rec = [], []
        z_min, y_min = AffineForm(1, 0), None  # z_0 = alpha
        for n in range(1, N + 1):
            z, y = frac_parts(pair, n)
            if compare_affine(pair, z, z_min) == LESS:
                z_min = z
                n_rec.append(n)
            if y_min is None or compare_affine(pair, y, y_min) == LESS:
                y_min = y
                m_rec.append(n)
        assert minimal_fractional_subsequences(table, N) == (n_rec, m_rec)


# The convergent-chain walks written out index by index through the table
# accessors: the references the band enumeration must reproduce, both in what
# it returns and in how far it grows a fresh table.


def ref_ceil_chain(table, max_index):
    chain = []
    l = 1
    while 2 * l + 1 <= max_index:
        for t in range(table.quotient(2 * l + 1)):
            chain.append(
                (table.h(2 * l - 1) + t * table.h(2 * l), table.k(2 * l - 1) + t * table.k(2 * l))
            )
        l += 1
    chain.append((table.h(2 * l - 1), table.k(2 * l - 1)))
    return chain


def ref_floor_chain(table, max_index):
    chain = []
    j = 0
    while 2 * j + 2 <= max_index:
        for t in range(table.quotient(2 * j + 2)):
            chain.append(
                (table.h(2 * j) + t * table.h(2 * j + 1), table.k(2 * j) + t * table.k(2 * j + 1))
            )
        j += 1
    chain.append((table.h(2 * j), table.k(2 * j)))
    return chain


def ref_record_indices(table, N):
    n_chain = []
    x = 0
    i = 1
    while True:
        table.extend_to(2 * i)
        step = table.h(2 * i - 1)
        done = False
        for _ in range(table.quotient(2 * i)):
            x += step
            if x > N:
                done = True
                break
            n_chain.append(x)
        if done:
            break
        i += 1

    m_chain = []
    x = table.h(1)
    if x <= N:
        m_chain.append(x)
    i = 1
    while True:
        table.extend_to(2 * i + 1)
        step = table.h(2 * i)
        done = False
        for _ in range(table.quotient(2 * i + 1)):
            x += step
            if x > N:
                done = True
                break
            m_chain.append(x)
        if done:
            break
        i += 1
    return n_chain, m_chain


def ref_fg_identities(table, max_index):
    """(n, f, g, label) of every identity, in the order they are checked."""
    table.extend_to(max_index + 1)
    for j in range(0, (max_index - 1) // 2 + 1):
        if 2 * j + 2 > max_index + 1:
            break
        for t in range(1, table.quotient(2 * j + 2) + 1):
            k = table.k(2 * j) + t * table.k(2 * j + 1)
            yield table.h(2 * j) + t * table.h(2 * j + 1), k, k - 1, f"even base 2j={2 * j}, t={t}"
    for l in range(1, max_index // 2 + 1):
        if 2 * l + 1 > max_index + 1:
            break
        for t in range(0, table.quotient(2 * l + 1) + 1):
            k = table.k(2 * l - 1) + t * table.k(2 * l)
            yield table.h(2 * l - 1) + t * table.h(2 * l), k + 1, k, f"odd base 2l-1={2 * l - 1}, t={t}"


def fresh(table):
    return ConvergentTable(table.pair)


class TestChainWalksMatchReference:
    @pytest.mark.parametrize("p1,p2", PAIR_ARGS)
    def test_fg_identities(self, p1, p2, monkeypatch):
        table = table_for(p1, p2)
        for max_index in range(0, safe_depth(table, 11)):
            ref_table, new_table = fresh(table), fresh(table)
            want = list(ref_fg_identities(ref_table, max_index))
            report = verify_fg_at_convergents(new_table, max_index)
            assert (report.ok, report.checked) == (True, len(want))
            assert new_table.depth == ref_table.depth
            # an f that is always wrong turns every identity into a failure line
            monkeypatch.setattr(sequences, "f", lambda pair, n: -1)
            bad = verify_fg_at_convergents(new_table, max_index)
            monkeypatch.undo()
            assert bad.failures == [
                f"{label}: n={n}, f=-1 (want {fn}), g=-2 (want {gn})" for n, fn, gn, label in want
            ]
            assert (bad.ok, bad.checked) == (not want, len(want))

    @pytest.mark.parametrize("p1,p2", PAIR_ARGS)
    def test_monotone_chains(self, p1, p2):
        table = table_for(p1, p2)
        for max_index in range(0, safe_depth(table, 10) + 1):
            ref_table, new_table = fresh(table), fresh(table)
            ref_table.extend_to(max(max_index, 1))
            want = (ref_ceil_chain(ref_table, max_index), ref_floor_chain(ref_table, max_index))
            report = verify_monotone_fractional_chains(new_table, max_index)
            m = max(max_index, 1)
            assert (sequences._chain(new_table, 1, m), sequences._chain(new_table, 0, m)) == want
            assert report.ok and report.checked == len(want[0]) + len(want[1]) - 2
            assert new_table.depth == ref_table.depth

    @pytest.mark.parametrize("p1,p2", PAIR_ARGS)
    @pytest.mark.parametrize("N", [1, 2, 3, 45, 400, 5000])
    def test_predicted_record_indices(self, p1, p2, N):
        table = table_for(p1, p2)
        ref_table, new_table = fresh(table), fresh(table)
        assert predicted_record_indices(new_table, N) == ref_record_indices(ref_table, N)
        assert new_table.depth == ref_table.depth
