import math

import pytest

from lattice_succ import (
    GREATER,
    LESS,
    AffineForm,
    BudgetExceeded,
    ConvergentTable,
    InvalidArgument,
    compare_affine,
    f,
    g,
    minimal_fractional_subsequences,
    predicted_record_indices,
    verify_fg_at_convergents,
    validate_pair,
    verify_monotone_fractional_chains,
)
from lattice_succ import sequences
from lattice_succ.core_arith import ZERO_FORM
from lattice_succ.sequences import _decreasing

from conftest import PAIR_ARGS, columns, safe_depth, table_for

# The conftest pairs, adjacent generators, and generators far apart in size.
SCAN_PAIRS = PAIR_ARGS + [(5, 7), (10, 11), (6, 7), (1000, 1001), (2, 10**6), (99991, 299967)]


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

    def test_refused_at_depth_zero(self, table23):
        with pytest.raises(InvalidArgument, match="^max_index must be positive, got 0$"):
            verify_fg_at_convergents(table23, 0)

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
        good = [(-1, -1), (-3, -2)]
        assert _decreasing(pair, good).ok
        bad = list(reversed(good))
        report = _decreasing(pair, bad)
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
                a, h, _ = columns(table)
                out.extend([h[idx]] * a[idx + 1])
                i += 1
            return out[:need]

        n_diffs = [b - a for a, b in zip([0] + n_rec, n_rec)]
        assert n_diffs == pattern("odd", len(n_diffs))
        m_diffs = [b - a for a, b in zip(m_rec, m_rec[1:])]
        assert m_diffs == pattern("even", len(m_diffs))

    @pytest.mark.parametrize("p1,p2", SCAN_PAIRS)
    @pytest.mark.parametrize("N", [1, 2, 3, 240, 3000])
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

    @pytest.mark.parametrize("p1,p2", SCAN_PAIRS)
    def test_records_equal_predicted_chains_to_20000(self, p1, p2):
        table = table_for(p1, p2)
        assert minimal_fractional_subsequences(table, 20_000) == predicted_record_indices(table, 20_000)

    @staticmethod
    def _spy(monkeypatch, name):
        """Replace sequences.<name> by a wrapper that records each call's arguments."""
        real, calls = getattr(sequences, name), []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(sequences, name, counted)
        return calls

    @pytest.mark.parametrize("p1,p2", PAIR_ARGS)
    def test_zero_key_width_still_exact(self, p1, p2, monkeypatch):
        # An infinite margin certifies no float decision: every f(n) comes
        # from f and every record decision from _affine_sign.
        table = table_for(p1, p2)
        want = predicted_record_indices(table, 2000)
        monkeypatch.setattr(sequences, "_FLOAT_ABS_MARGIN", math.inf)
        f_calls = self._spy(monkeypatch, "f")
        calls = self._spy(monkeypatch, "_affine_sign")
        assert minimal_fractional_subsequences(table, 2000) == want
        assert len(calls) > 100
        assert [n for _, n in f_calls] == list(range(1, 2001))

    @pytest.mark.parametrize("p1,p2", PAIR_ARGS)
    def test_wide_margin_mixes_float_and_exact_steps(self, p1, p2, monkeypatch):
        # A margin of a tenth of a bit sends some steps, not all, to the exact
        # path, so the float scan resumes from a u formed again after f.
        table = table_for(p1, p2)
        want = predicted_record_indices(table, 3000)
        monkeypatch.setattr(sequences, "_FLOAT_ABS_MARGIN", 0.1)
        f_calls = self._spy(monkeypatch, "f")
        calls = self._spy(monkeypatch, "_affine_sign")
        assert minimal_fractional_subsequences(table, 3000) == want
        assert 100 < len(f_calls) < 1000
        assert len(calls) > 0

    @pytest.mark.parametrize(
        "p1,p2,f_calls,sign_calls",
        [(p1, p2, 1, 0) for p1, p2 in SCAN_PAIRS],  # only f(1), which opens the scan
    )
    def test_floats_settle_the_scan_to_5000(self, p1, p2, f_calls, sign_calls, monkeypatch):
        table = table_for(p1, p2)
        fs = self._spy(monkeypatch, "f")
        signs = self._spy(monkeypatch, "_affine_sign")
        minimal_fractional_subsequences(table, 5000)
        assert (len(fs), len(signs)) == (f_calls, sign_calls)

    @pytest.mark.parametrize("p1,p2", PAIR_ARGS)
    def test_budget_bounds_the_scan_length(self, p1, p2):
        # The scan builds powers below p2**(N+1): refused iff (N+1)*log2(p2) exceeds the budget.
        pair = validate_pair(p1, p2, bit_budget=1000)
        longest = int(1000 / math.log2(p2)) - 1
        assert (longest + 1) * math.log2(p2) <= 1000 < (longest + 2) * math.log2(p2)
        table = ConvergentTable(pair)
        want = predicted_record_indices(table_for(p1, p2), longest)  # its table needs the default budget
        assert minimal_fractional_subsequences(table, longest) == want
        with pytest.raises(BudgetExceeded, match=f"record scan to N = {longest + 1} builds {p2}\\*\\*{longest + 2}, "):
            minimal_fractional_subsequences(table, longest + 1)


# The convergent-chain walks written out index by index over the table's
# quotients and convergents: the references the band enumeration must reproduce, both in what
# it returns and in how far it grows a fresh table.


def ref_ceil_chain(table, max_index):
    a, h, k = columns(table)
    chain = []
    l = 1
    while 2 * l + 1 <= max_index:
        for t in range(a[2 * l + 1]):
            chain.append((h[2 * l - 1] + t * h[2 * l], k[2 * l - 1] + t * k[2 * l]))
        l += 1
    chain.append((h[2 * l - 1], k[2 * l - 1]))
    return chain


def ref_floor_chain(table, max_index):
    a, h, k = columns(table)
    chain = []
    j = 0
    while 2 * j + 2 <= max_index:
        for t in range(a[2 * j + 2]):
            chain.append((h[2 * j] + t * h[2 * j + 1], k[2 * j] + t * k[2 * j + 1]))
        j += 1
    chain.append((h[2 * j], k[2 * j]))
    return chain


def ref_record_indices(table, N):
    n_chain = []
    x = 0
    i = 1
    while True:
        table.extend_to(2 * i)
        a, h, _ = columns(table)
        step = h[2 * i - 1]
        done = False
        for _ in range(a[2 * i]):
            x += step
            if x > N:
                done = True
                break
            n_chain.append(x)
        if done:
            break
        i += 1

    m_chain = []
    x = h[1]
    if x <= N:
        m_chain.append(x)
    i = 1
    while True:
        table.extend_to(2 * i + 1)
        a, h, _ = columns(table)
        step = h[2 * i]
        done = False
        for _ in range(a[2 * i + 1]):
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
    a, hs, ks = columns(table)
    for j in range(0, (max_index - 1) // 2 + 1):
        if 2 * j + 2 > max_index + 1:
            break
        for t in range(1, a[2 * j + 2] + 1):
            k = ks[2 * j] + t * ks[2 * j + 1]
            yield hs[2 * j] + t * hs[2 * j + 1], k, k - 1, f"even base 2j={2 * j}, t={t}"
    for l in range(1, max_index // 2 + 1):
        if 2 * l + 1 > max_index + 1:
            break
        for t in range(0, a[2 * l + 1] + 1):
            k = ks[2 * l - 1] + t * ks[2 * l]
            yield hs[2 * l - 1] + t * hs[2 * l], k + 1, k, f"odd base 2l-1={2 * l - 1}, t={t}"


def fresh(table):
    return ConvergentTable(table.pair)


class TestChainWalksMatchReference:
    @pytest.mark.parametrize("p1,p2", PAIR_ARGS)
    def test_fg_identities(self, p1, p2, monkeypatch):
        table = table_for(p1, p2)
        for max_index in range(1, safe_depth(table, 11)):  # max_index 0 is refused
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
        for max_index in range(1, safe_depth(table, 10) + 1):  # max_index 0 is refused
            ref_table, new_table = fresh(table), fresh(table)
            ref_table.extend_to(max_index)
            want = (ref_ceil_chain(ref_table, max_index), ref_floor_chain(ref_table, max_index))
            report = verify_monotone_fractional_chains(new_table, max_index)
            assert (sequences._chain(new_table, 1, max_index), sequences._chain(new_table, 0, max_index)) == want
            assert report.ok and report.checked == len(want[0]) + len(want[1]) - 2
            assert new_table.depth == ref_table.depth

    @pytest.mark.parametrize("p1,p2", PAIR_ARGS)
    @pytest.mark.parametrize("N", [1, 2, 3, 45, 400, 5000])
    def test_predicted_record_indices(self, p1, p2, N):
        table = table_for(p1, p2)
        ref_table, new_table = fresh(table), fresh(table)
        assert predicted_record_indices(new_table, N) == ref_record_indices(ref_table, N)
        assert new_table.depth == ref_table.depth
