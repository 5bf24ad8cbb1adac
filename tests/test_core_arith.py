import pytest
from hypothesis import given, settings, strategies as st

from lattice_succ import (
    EQUAL,
    GREATER,
    LESS,
    AffineForm,
    BudgetExceeded,
    GeneratorPair,
    OrderViolation,
    RationalLogRatio,
    compare_affine,
    compare_fraction,
    f,
    g,
    validate_pair,
)
from lattice_succ.core_arith import ZERO_FORM, perfect_power_base

from conftest import PAIR_ARGS, pair_for

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

    def test_budget_exceeded(self):
        tight = validate_pair(2, 3, bit_budget=64)
        with pytest.raises(BudgetExceeded):
            compare_fraction(tight, 1000, 1)


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


def test_generator_pair_is_hashable_and_frozen():
    pair = GeneratorPair(2, 3)
    assert hash(pair) == hash(GeneratorPair(2, 3))
    with pytest.raises(AttributeError):
        pair.p1 = 5
