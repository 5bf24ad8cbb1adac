import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import lattice_succ
from lattice_succ import (
    EQUAL,
    GREATER,
    LESS,
    AffineForm,
    BudgetExceeded,
    ConvergentTable,
    GeneratorPair,
    LatticeError,
    NonIntegerArgument,
    OrderViolation,
    RationalLogRatio,
    compare_affine,
    compare_fraction,
    f,
    g,
    validate_pair,
)
from lattice_succ import cf_engine, core_arith
from lattice_succ.core_arith import (
    _FLOAT_ABS_MARGIN,
    _FLOAT_REL_MARGIN,
    ZERO_FORM,
    _affine_sign,
    _f_search,
    perfect_power_base,
)

from conftest import PAIR_ARGS, pair_for, safe_depth, slow_quotients, table_for

pairs = st.sampled_from([pair_for(*a) for a in PAIR_ARGS])


class TestValidatePair:
    def test_distinct_primes(self):
        pair = validate_pair(2, 3)
        assert (pair.p1, pair.p2) == (2, 3)

    @pytest.mark.parametrize("p1,p2", [(4, 8), (2, 4), (9, 27), (4, 16), (8, 32)])
    def test_dependent_powers_rejected(self, p1, p2):
        with pytest.raises(RationalLogRatio):
            validate_pair(p1, p2)

    @pytest.mark.parametrize("p1,p2", [(2, 12), (6, 10), (4, 6), (6, 12), (12, 18)])
    def test_independent_composites_accepted(self, p1, p2):
        validate_pair(p1, p2)

    @pytest.mark.parametrize("p1,p2", [(1, 3), (0, 2), (3, 3), (5, 2), (-2, 3)])
    def test_order_violations(self, p1, p2):
        with pytest.raises(OrderViolation):
            validate_pair(p1, p2)

    def test_generator_past_float_range(self):
        # 10**400 overflows a float; the perfect-power test must stay in integers
        assert isinstance(validate_pair(2, 10**400), GeneratorPair)
        assert perfect_power_base(10**400) == (10, 400)
        with pytest.raises(RationalLogRatio):
            validate_pair(10**200, 10**400)

    @pytest.mark.parametrize("args", [(2.0, 3), ("2", 3), (2, 3.5), (2, 3, 1e6), (None, 3)])
    def test_non_integer_arguments_are_typed(self, args):
        with pytest.raises(NonIntegerArgument) as exc:
            validate_pair(*args)
        assert isinstance(exc.value, LatticeError) and isinstance(exc.value, TypeError)

    def test_index_objects_accepted(self):
        class Two:
            def __index__(self):
                return 2

        pair = validate_pair(Two(), 3)
        assert (pair.p1, pair.p2) == (2, 3) and type(pair.p1) is int


@pytest.mark.parametrize(
    "p,base,exp",
    [(2, 2, 1), (4, 2, 2), (8, 2, 3), (64, 2, 6), (36, 6, 2), (12, 12, 1), (729, 3, 6)],
)
def test_perfect_power_base(p, base, exp):
    assert perfect_power_base(p) == (base, exp)


class TestCompareFraction:
    def test_examples(self, pair23):
        assert compare_fraction(pair23, 1, 2) == LESS  # 3 < 4
        assert compare_fraction(pair23, 2, 3) == GREATER  # 9 > 8
        assert compare_fraction(pair23, 41, 65) == LESS  # 3^41 < 2^65

    def test_big_example_against_direct_powers(self, pair23):
        assert 3**41 < 2**65
        assert compare_fraction(pair23, 41, 65) == LESS

    @given(pair=pairs, h=st.integers(0, 200), k=st.integers(1, 200))
    def test_never_equal(self, pair, h, k):
        assert compare_fraction(pair, h, k) in (LESS, GREATER)

    @given(pair=pairs, h=st.integers(0, 200), k=st.integers(1, 200))
    def test_agrees_with_exact_powers(self, pair, h, k):
        want = LESS if pair.p2**h < pair.p1**k else GREATER
        assert compare_fraction(pair, h, k) == want

    def test_budget_exceeded(self, monkeypatch):
        # The budget guards only the big-integer fallback, so force every
        # comparison there: no float decision, no decimal-log decision.
        tight = validate_pair(2, 3, bit_budget=64)
        monkeypatch.setattr(core_arith, "_FLOAT_ABS_MARGIN", math.inf)
        monkeypatch.setattr(core_arith, "_log_sign", lambda *args: EQUAL)
        with pytest.raises(BudgetExceeded, match="needs ~1585 bits, budget is 64"):
            compare_fraction(tight, 1000, 1)
        assert compare_fraction(tight, 40, 1) == GREATER  # 3**40 has 64 bits: built and compared

    def test_exponent_past_float_range_is_refused(self, pair23):
        # Kept under its old name: exponents past a float's range now get the
        # exact answer. 10**5000 has more digits than the default int-to-str limit.
        assert compare_fraction(pair23, 10**400, 1) == GREATER
        assert compare_affine(pair23, AffineForm(-(10**400), 3), ZERO_FORM) == LESS
        assert compare_fraction(pair23, 10**5000, 1) == GREATER
        assert compare_fraction(pair23, 1, 10**5000) == LESS
        assert compare_affine(pair23, AffineForm(10**5000, 10**5000), ZERO_FORM) == LESS

    def test_convergents_past_float_range_are_ordered(self):
        # k_600 of (2, 3) has about 1040 bits: the float pre-filter works on
        # shifted counts and cannot separate a convergent, so decimal logs do.
        pair = validate_pair(2, 3, bit_budget=10**600)
        table = ConvergentTable(pair).extend_to(601)
        assert table.k(600) >> 1000
        assert compare_fraction(pair, table.h(600), table.k(600)) == LESS
        assert compare_fraction(pair, table.h(601), table.k(601)) == GREATER


class TestNonIntegerComparisonArguments:
    @pytest.mark.parametrize("h,k", [(0.6309297535714574, 1), (1.5, 2), (1, 2.0), ("1", 2), (None, 2)])
    def test_fraction_terms_are_typed(self, pair23, h, k):
        # 0.63... is alpha itself: it must not reach the tie check and claim a dependent pair
        with pytest.raises(NonIntegerArgument) as exc:
            compare_fraction(pair23, h, k)
        assert isinstance(exc.value, LatticeError) and isinstance(exc.value, TypeError)

    @pytest.mark.parametrize(
        "u,v,name",
        [
            (AffineForm(1.5, 0), ZERO_FORM, "u.coeff"),
            (AffineForm(1, 0.5), ZERO_FORM, "u.const"),
            (ZERO_FORM, AffineForm(2.0, 1), "v.coeff"),
            (ZERO_FORM, AffineForm(2, "1"), "v.const"),
        ],
    )
    def test_affine_fields_are_typed(self, pair23, u, v, name):
        with pytest.raises(NonIntegerArgument, match=name):
            compare_affine(pair23, u, v)

    def test_index_objects_accepted(self, pair23):
        class Two:
            def __index__(self):
                return 2

        assert compare_fraction(pair23, 1, Two()) == compare_fraction(pair23, 1, 2) == LESS
        form = AffineForm(Two(), Two())
        assert compare_affine(pair23, form, ZERO_FORM) == compare_affine(pair23, AffineForm(2, 2), ZERO_FORM)


class TestCompareAffine:
    def test_equal_forms(self, pair23):
        assert compare_affine(pair23, ZERO_FORM, ZERO_FORM) == EQUAL
        assert compare_affine(pair23, AffineForm(3, 7), AffineForm(3, 7)) == EQUAL

    def test_fractional_part_examples(self, pair23):
        # z_1 = 2a-1 < z_0 = a  (reduces to a < 1, i.e. 2 < 3)
        assert compare_affine(pair23, AffineForm(2, 1), AffineForm(1, 0)) == LESS
        # y_1 = 1-a > y_2 = 2-3a  (reduces to 2a > 1, i.e. 4 > 3)
        assert compare_affine(pair23, AffineForm(-1, -1), AffineForm(-3, -2)) == GREATER

    @given(pair=pairs, h=st.integers(0, 150), k=st.integers(1, 150))
    def test_consistent_with_compare_fraction(self, pair, h, k):
        # h/k < alpha  iff  k*alpha - h > 0
        frac_side = compare_fraction(pair, h, k)
        affine_side = compare_affine(pair, AffineForm(k, h), ZERO_FORM)
        assert frac_side == -affine_side

    @pytest.mark.parametrize("args,depth", [((2, 3), 14), ((3, 5), 13)])
    def test_fraction_is_negated_affine_sign_on_exact_path(self, args, depth):
        # Convergents up to the deepest one the default budget reaches, and
        # their neighbours: the last bit gaps are narrower than the float
        # margin, so their order comes from the exact path.
        pair = pair_for(*args)
        table = table_for(*args).extend_to(depth)
        lp1, lp2 = math.log2(pair.p1), math.log2(pair.p2)
        exact = 0
        for i in range(1, depth + 1):
            for h in (table.h(i) - 1, table.h(i), table.h(i) + 1):
                k = table.k(i)
                frac = compare_fraction(pair, h, k)
                assert frac == -_affine_sign(pair, k, h)
                assert frac == (LESS if pair.p2**h < pair.p1**k else GREATER)
                a, b = k * lp1, h * lp2
                exact += abs(a - b) <= (a + b) * _FLOAT_REL_MARGIN + _FLOAT_ABS_MARGIN
        assert exact > 0

    @given(
        pair=pairs,
        k1=st.integers(-80, 80),
        n1=st.integers(-80, 80),
        k2=st.integers(-80, 80),
        n2=st.integers(-80, 80),
    )
    def test_antisymmetric_total_order(self, pair, k1, n1, k2, n2):
        u, v = AffineForm(k1, n1), AffineForm(k2, n2)
        cmp_uv = compare_affine(pair, u, v)
        assert cmp_uv == -compare_affine(pair, v, u)
        assert (cmp_uv == EQUAL) == (u == v)


class TestUpperLowerSequences:
    def test_f_examples(self, pair23):
        assert f(pair23, 1) == 2
        assert f(pair23, 3) == 5
        # 2^19 < 3^12 < 2^20, so ceil(12/alpha) = 20
        assert 2**19 < 3**12 < 2**20
        assert f(pair23, 12) == 20

    def test_g_examples(self, pair23):
        assert g(pair23, 1) == 1
        assert g(pair23, 2) == 3
        assert g(pair23, 12) == 19

    def test_rejects_nonpositive(self, pair23):
        with pytest.raises(ValueError):
            f(pair23, 0)

    def test_rejects_non_integer(self, pair23):
        with pytest.raises(NonIntegerArgument):
            f(pair23, 2.5)
        with pytest.raises(NonIntegerArgument):
            g(pair23, 2.0)

    def test_n_past_float_range_is_refused(self, pair23):
        # Kept under its old name: f is now exact past a float's range.
        n = 10**400
        assert f(pair23, n) == _f_decimal(pair23, n)

    @given(pair=pairs, n=st.integers(1, 3000))
    @settings(max_examples=80)
    def test_f_matches_bisection_reference(self, pair, n):
        want = _f_reference(pair, n)
        assert f(pair, n) == want
        assert _f_search(pair, n) == want

    @given(args=st.sampled_from(PAIR_ARGS), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_f_matches_reference_near_convergents(self, args, data):
        # n/alpha lies closest to an integer at convergent numerators, where a
        # float guess of f(n) is most likely to be off by one.
        pair, table = pair_for(*args), table_for(*args)
        depth = safe_depth(table, 14, k_cap=10**5)
        i = data.draw(st.integers(1, depth), label="index")
        n = table.h(i) + data.draw(st.integers(-1, 1), label="offset")
        if n >= 1:
            assert f(pair, n) == _f_reference(pair, n)

    @given(pair=pairs, n=st.integers(2**53, 2**80))
    @settings(max_examples=20)
    def test_f_past_float_mantissa_is_refused(self, pair, n):
        # Kept under its old name: p2**n is past the budget, but the logs
        # settle every comparison, so both searches give the exact answer.
        want = _f_decimal(pair, n)
        assert f(pair, n) == want
        assert _f_search(pair, n) == want

    @given(pair=pairs, n=st.integers(1, 400))
    @settings(max_examples=60)
    def test_bracketing(self, pair, n):
        fn = f(pair, n)
        assert fn - g(pair, n) == 1
        # g(n)*alpha < n < f(n)*alpha, exactly
        assert compare_affine(pair, AffineForm(fn - 1, n), ZERO_FORM) == LESS
        assert compare_affine(pair, AffineForm(fn, n), ZERO_FORM) == GREATER
        # floor(f(n)*alpha) = n and ceil(g(n)*alpha) = n
        assert pair.p1**fn < pair.p2 ** (n + 1)
        assert pair.p1 ** (fn - 1) > pair.p2 ** (n - 1)

    @given(pair=pairs, n=st.integers(1, 300))
    @settings(max_examples=40)
    def test_strictly_increasing(self, pair, n):
        assert f(pair, n + 1) > f(pair, n)


def _f_decimal(pair, n):
    """ceil(n*ln(p2)/ln(p1)) from decimal logs 60 digits wider than n."""
    import decimal

    ctx = decimal.Context(prec=len(str(n)) + 60, rounding=decimal.ROUND_CEILING)
    return int(ctx.multiply(n, ctx.divide(ctx.ln(pair.p2), ctx.ln(pair.p1))).to_integral_value(context=ctx))


def _f_reference(pair, n):
    """Least k with p2**n < p1**k, by bisection over exact powers."""
    target = pair.p2**n
    lo, hi = 0, n * pair.p2.bit_length()  # p1**lo <= target < 2**hi <= p1**hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pair.p1**mid > target:
            hi = mid
        else:
            lo = mid
    return hi


def test_generator_pair_is_hashable_and_frozen():
    pair = GeneratorPair(2, 3)
    assert hash(pair) == hash(GeneratorPair(2, 3))
    with pytest.raises(AttributeError):
        pair.p1 = 5


def _extend_to_wall(table):
    """Extend row by row until the bit budget refuses a probe; its message."""
    while True:
        try:
            table.extend_to(table.depth + 1)
        except BudgetExceeded as exc:
            return str(exc)


def _spy_log_sign(monkeypatch):
    """Record (dk, dn, prec, sign) of every decimal-log decision attempt."""
    calls = []
    log_sign = core_arith._log_sign

    def spy(p1, p2, dk, dn, prec):
        sign = log_sign(p1, p2, dk, dn, prec)
        calls.append((dk, dn, prec, sign))
        return sign

    monkeypatch.setattr(core_arith, "_log_sign", spy)
    return calls


def _power_sign(pair, dk, dn):
    return GREATER if pair.p1**dk > pair.p2**dn else LESS


# Depth of the bit-budget wall under the default budget when growth compared
# powers: the deepest rows whose comparisons a big-integer reference can build.
OLD_WALL_DEPTHS = {(2, 3): 14, (2, 5): 12, (3, 5): 13, (2, 12): 13, (6, 10): 9}


class TestCertifiedLogPath:
    @pytest.mark.parametrize("float_filter", ["on", "off"])
    @pytest.mark.parametrize("p1,p2", PAIR_ARGS)
    def test_table_to_the_wall_matches_big_int_reference(self, p1, p2, float_filter, monkeypatch):
        # With the float filter off the float logs certify nothing: the
        # pre-filter's margin is infinite and the table's first interval,
        # [0, 2/alpha], shares no quotient, so every row comes from decimal logs.
        pair = pair_for(p1, p2)
        if float_filter == "off":
            monkeypatch.setattr(core_arith, "_FLOAT_ABS_MARGIN", math.inf)
            monkeypatch.setattr(cf_engine, "_FLOAT_REL_MARGIN", 1.0)
        precisions = []
        ln = cf_engine._ln
        monkeypatch.setattr(cf_engine, "_ln", lambda p, prec: precisions.append(prec) or ln(p, prec))
        table = ConvergentTable(pair)
        seeded = len(table._cf)
        _extend_to_wall(table)
        assert precisions  # the wall lies past what the float logs certify
        if float_filter == "off":
            assert seeded == 0
        # The reference: no decimal decision, so the float filter (when on)
        # and big-integer powers settle every comparison of the mediant walk.
        monkeypatch.setattr(core_arith, "_log_sign", lambda *args: EQUAL)
        depth = OLD_WALL_DEPTHS[(p1, p2)]
        assert slow_quotients(pair, depth) == [(table.quotient(i), table.h(i), table.k(i)) for i in range(depth + 1)]

    @pytest.mark.parametrize("p1,p2", [(2, 3**100), (2, 10**400), (3**100, 2**200 + 1)])
    def test_logs_above_100_at_convergents(self, p1, p2, monkeypatch):
        # ln(p2) > 100, so the last digit's place comes from the log's own
        # exponent. The float filter is switched off, since at convergents the
        # budget reaches it settles nearly everything.
        pair = validate_pair(p1, p2)
        assert math.log(p2) > 100
        table = ConvergentTable(pair)
        _extend_to_wall(table)
        assert table.depth >= 4
        monkeypatch.setattr(core_arith, "_FLOAT_ABS_MARGIN", math.inf)
        calls = _spy_log_sign(monkeypatch)
        for i in range(1, table.depth + 1):
            h, k = table.h(i), table.k(i)
            for dk, dn in ((k, h), (k, h - 1), (k, h + 1), (k - 1, h), (k + 1, h)):
                if dk <= 0 or dn <= 0 or max(dk * math.log2(p1), dn * math.log2(p2)) > pair.bit_budget:
                    continue
                assert _affine_sign(pair, dk, dn) == _power_sign(pair, dk, dn)
                assert _affine_sign(pair, -dk, -dn) == -_power_sign(pair, dk, dn)
        assert any(sign != EQUAL for *_, sign in calls)

    @pytest.mark.parametrize("p", [2, 3, 10**40 + 3, 3**100, 10**400])
    @pytest.mark.parametrize("prec", [14, 34, 136])
    def test_ln_is_within_half_a_last_digit(self, p, prec):
        import decimal

        n, u = core_arith._ln(p, prec)
        assert len(str(n)) == prec
        wide = decimal.Context(prec=prec + 30)
        err = abs(wide.ln(p) - wide.scaleb(decimal.Decimal(n), u))
        assert 2 * err <= wide.scaleb(decimal.Decimal(1), u)

    def test_precision_doubles_until_decided(self, monkeypatch):
        # ln(p1) and ln(p2) agree to 40 digits, so the float logs are equal and
        # the first decimal precision cannot separate 1000*ln(p1) from 1000*ln(p2).
        pair = validate_pair(10**40 + 1, 10**40 + 3)
        calls = _spy_log_sign(monkeypatch)
        assert _affine_sign(pair, 1000, 1000) == LESS
        assert [sign for *_, sign in calls] == [EQUAL, LESS]
        assert calls[1][2] == 2 * calls[0][2]
        assert _affine_sign(pair, 1000, 999) == _power_sign(pair, 1000, 999)

    @pytest.mark.parametrize("dk,dn", [(2, 1), (2000, 1000)])
    def test_dependent_pair_ends_in_a_tie(self, dk, dn, monkeypatch):
        # Built directly, bypassing validate_pair: the logs never separate, and
        # the big-integer fallback finds p1**dk == p2**dn.
        calls = _spy_log_sign(monkeypatch)
        with pytest.raises(RationalLogRatio):
            _affine_sign(GeneratorPair(2, 4), dk, dn)
        assert all(sign == EQUAL for *_, sign in calls)
        assert (len(calls) > 0) == (dk > 2)

    def test_import_does_not_load_decimal(self):
        # The float logs certify rows 1-12 of (2, 3), all that a shallow query
        # needs; row 14, with k_14 = 301994, needs the decimal logs.
        code = (
            "import sys, lattice_succ\n"
            "print('decimal' in sys.modules)\n"
            "table = lattice_succ.ConvergentTable(lattice_succ.validate_pair(2, 3))\n"
            "lattice_succ.next_point(table, (18, 4))\n"
            "print('decimal' in sys.modules)\n"
            "table.extend_to(14)\n"
            "print('decimal' in sys.modules)\n"
        )
        src = str(Path(lattice_succ.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=60, cwd=src, check=True,
        )
        assert done.stdout.split() == ["False", "False", "True"]
