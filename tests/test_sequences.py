import pytest

from lattice_succ import (
    GREATER,
    LESS,
    AffineForm,
    compare_affine,
    frac_parts,
    minimal_fractional_subsequences,
    predicted_record_indices,
    verify_fg_at_convergents,
    verify_monotone_fractional_chains,
)
from lattice_succ.core_arith import ZERO_FORM
from lattice_succ.sequences import check_strictly_decreasing

from conftest import PAIR_ARGS, table_for


class TestFracParts:
    def test_values_at_small_n(self, pair23):
        rec = frac_parts(pair23, 1)
        assert (rec.fval, rec.gval) == (2, 1)
        assert rec.z == AffineForm(2, 1)
        assert rec.y == AffineForm(-1, -1)

    @pytest.mark.parametrize("p1,p2", PAIR_ARGS)
    def test_positive_and_sum_to_alpha(self, p1, p2):
        table = table_for(p1, p2)
        pair = table.pair
        alpha = AffineForm(1, 0)
        for n in range(1, 60):
            rec = frac_parts(pair, n)
            assert compare_affine(pair, rec.z, ZERO_FORM) == GREATER
            assert compare_affine(pair, rec.y, ZERO_FORM) == GREATER
            # z + y = alpha by coefficient bookkeeping: f - g = 1
            assert AffineForm(rec.z.coeff + rec.y.coeff, rec.z.const + rec.y.const) == alpha
            # both strictly below alpha
            assert compare_affine(pair, rec.z, alpha) != GREATER
            assert compare_affine(pair, rec.y, alpha) != GREATER


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
            rec = frac_parts(pair, n)
            if compare_affine(pair, rec.z, z_min) == LESS:
                z_min = rec.z
                n_rec.append(n)
            if y_min is None or compare_affine(pair, rec.y, y_min) == LESS:
                y_min = rec.y
                m_rec.append(n)
        assert minimal_fractional_subsequences(table, N) == (n_rec, m_rec)
