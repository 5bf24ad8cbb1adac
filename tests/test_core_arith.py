import math
import random
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
    value,
)
from lattice_succ import cf_engine, core_arith
from lattice_succ.core_arith import (
    _FLOAT_ABS_MARGIN,
    _FLOAT_REL_MARGIN,
    ZERO_FORM,
    _affine_sign,
    _common_base,
)

from conftest import PAIR_ARGS, pair_for, safe_depth, slow_quotients, table_for

pairs = st.sampled_from([pair_for(*a) for a in PAIR_ARGS])


def _build(args):
    """A pair built from args by both constructors, which must agree; or the (type, message) both raised."""
    outcomes = []
    for make in (validate_pair, GeneratorPair):
        try:
            outcomes.append(make(*args))
        except LatticeError as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


class TestValidatePair:
    # Every case builds its pair through both validate_pair and GeneratorPair.
    def test_distinct_primes(self):
        pair = _build((2, 3))
        assert (pair.p1, pair.p2) == (2, 3)

    @pytest.mark.parametrize("p1,p2", [(4, 8), (2, 4), (9, 27), (4, 16), (8, 32)])
    def test_dependent_powers_rejected(self, p1, p2):
        assert _build((p1, p2))[0] is RationalLogRatio

    @pytest.mark.parametrize("p1,p2", [(2, 12), (6, 10), (4, 6), (6, 12), (12, 18)])
    def test_independent_composites_accepted(self, p1, p2):
        assert isinstance(_build((p1, p2)), GeneratorPair)

    @pytest.mark.parametrize("p1,p2", [(1, 3), (0, 2), (3, 3), (5, 2), (-2, 3)])
    def test_order_violations(self, p1, p2):
        assert _build((p1, p2))[0] is OrderViolation

    def test_generator_past_float_range(self):
        # 10**400 overflows a float; the dependence test must stay in integers
        assert isinstance(validate_pair(2, 10**400), GeneratorPair)
        with pytest.raises(RationalLogRatio):
            validate_pair(10**200, 10**400)
        assert _build((10**200, 10**400))[0] is RationalLogRatio

    @pytest.mark.parametrize("args", [(2.0, 3), ("2", 3), (2, 3.5), (2, 3, 1e6), (None, 3)])
    def test_non_integer_arguments_are_typed(self, args):
        with pytest.raises(NonIntegerArgument) as exc:
            validate_pair(*args)
        assert isinstance(exc.value, LatticeError) and isinstance(exc.value, TypeError)
        assert _build(args)[0] is NonIntegerArgument

    def test_index_objects_accepted(self):
        class Two:
            def __index__(self):
                return 2

        for pair in (validate_pair(Two(), 3), GeneratorPair(Two(), 3), GeneratorPair(2, 3, Two())):
            assert (pair.p1, pair.p2) == (2, 3) and type(pair.p1) is int and type(pair.bit_budget) is int

    @pytest.mark.parametrize(
        "make,kind",
        [
            (lambda: ConvergentTable(GeneratorPair(1, 3)), OrderViolation),
            (lambda: GeneratorPair(2.5, 3), NonIntegerArgument),
            (lambda: GeneratorPair(2, 3, 0), OrderViolation),
            (lambda: GeneratorPair("a", 3), NonIntegerArgument),
        ],
        ids=["p1-is-1", "float-generator", "zero-budget", "str-generator"],
    )
    def test_direct_construction_is_checked(self, make, kind):
        # Each of these used to build a pair, which then failed later (a raw
        # ZeroDivisionError, a float value, a budget refusal, a raw TypeError).
        with pytest.raises(kind):
            make()

    def test_the_message_names_a_common_base(self):
        assert _build((4, 16)) == (
            RationalLogRatio,
            "theory requires multiplicatively independent generators, but 4 and 16 "
            "are both powers of 4; log(4)/log(16) is rational",
        )

    @pytest.mark.parametrize(
        "args,kind,message",
        [
            (
                (2, 2**20000),
                RationalLogRatio,
                "theory requires multiplicatively independent generators, but 2 and <20001-bit integer> "
                "are both powers of 2; log(2)/log(<20001-bit integer>) is rational",
            ),
            ((10**5000, 3), OrderViolation, "need 1 < p1 < p2, got p1=<16610-bit integer>, p2=3"),
        ],
        ids=["dependent", "out-of-order"],
    )
    def test_huge_generators_are_named_by_bit_length(self, args, kind, message):
        # Under the default int-to-str limit (4300 digits), str() of these
        # generators raises a raw ValueError, so the message must not call it.
        old = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        if old is not None:
            sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        try:
            assert _build(args) == (kind, message)
        finally:
            if old is not None:
                sys.set_int_max_str_digits(old)


def _dependent_by_powers(p1, p2):
    """Whether p1**u == p2**v for some u, v >= 1, by direct power equality (u, v below the bit lengths)."""
    return any(
        p1**u == p2**v for u in range(1, p2.bit_length() + 1) for v in range(1, p1.bit_length() + 1)
    )


def test_dependence_verdict_matches_power_equality():
    dependent = 0
    for p1 in range(2, 300):
        for p2 in range(p1 + 1, 301):
            verdict = bool(_common_base(p1, p2))
            assert verdict == _dependent_by_powers(p1, p2), (p1, p2)
            dependent += verdict
    # Two powers of one base that is not itself a power: 8 powers of 2 below 301
    # give 28 pairs, 5 of 3 give 10, 3 each of 5 and 6 give 3 each, and 7, 10, 11,
    # 12, 13, 14, 15, 17 with their squares give one each.
    assert dependent == 28 + 10 + 3 + 3 + 8


def test_dependence_verdict_on_large_powers():
    rng = random.Random(19)
    for _ in range(300):
        r, u, v = rng.randrange(2, 10**6), rng.randrange(1, 30), rng.randrange(1, 30)
        if u == v:
            continue
        a, b = sorted((r**u, r**v))
        base = _common_base(a, b)
        assert base and a == base ** round(math.log(a) / math.log(base)), (r, u, v)
        assert b == base ** round(math.log(b) / math.log(base))
        # r**u + 1 is coprime to r, so it shares no base with r**v
        assert not _common_base(*sorted((r**u + 1, r**v))), (r, u, v)
        assert not _common_base(*sorted((r**u, r**v + 1))), (r, u, v)


@pytest.mark.parametrize(
    "p,base,exp",
    [(2, 2, 1), (4, 2, 2), (8, 2, 3), (64, 2, 6), (36, 6, 2), (12, 12, 1), (729, 3, 6)],
)
def test_common_base(p, base, exp):
    # p = base**exp and the next power of base share base itself, and nothing shares one with p + 1
    assert p == base**exp
    assert _common_base(p, base ** (exp + 1)) == base
    assert _common_base(p, p) == p
    assert _common_base(p, base ** (exp + 1) + 1) == 0


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

    def test_budget_messages_round_the_bits_up(self, monkeypatch):
        # 3**41 has 65 bits (41*log2(3) = 64.98) and 3**43 69 (68.15): each message names more bits than the budget.
        with pytest.raises(BudgetExceeded, match=r"^value at \(0, 41\) needs ~65 bits, budget is 64$"):
            value(validate_pair(2, 3, bit_budget=64), (0, 41))
        monkeypatch.setattr(core_arith, "_FLOAT_ABS_MARGIN", math.inf)
        monkeypatch.setattr(core_arith, "_log_sign", lambda *args: EQUAL)
        with pytest.raises(BudgetExceeded, match="^power comparison needs ~69 bits, budget is 68$"):
            compare_fraction(validate_pair(2, 3, bit_budget=68), 43, 1)

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
        assert f(pair, n) == _f_reference(pair, n)

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
        # settle every comparison, so f gives the exact answer.
        assert f(pair, n) == _f_decimal(pair, n)

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


# Pairs for f at large n: the conftest pairs, a large ratio, two close
# five-digit generators and two 3000-bit ones, where f(n) has 11-12 bits more than n.
FLOOR_PAIR_ARGS = PAIR_ARGS + [(2, 10**6), (99991, 299967), (3, 2**3000 + 1), (2, 3**1900 + 2)]
RAISED_BUDGET = 10**250  # admits the powers of every comparison below 1e124
floor_pairs = pytest.mark.parametrize(
    "args", FLOOR_PAIR_ARGS, ids=lambda args: "-".join(str(p) if p < 10**7 else f"{p.bit_length()}bit" for p in args)
)


@pytest.fixture
def sign_calls(monkeypatch):
    """A list that grows by one entry per _affine_sign call that f makes."""
    calls = []
    sign = core_arith._affine_sign
    monkeypatch.setattr(core_arith, "_affine_sign", lambda *args: calls.append(args) or sign(*args))
    return calls


def _check_f(pair, n, calls, reference=None):
    """f(pair, n) equals the reference (_f_decimal by default) after at most four exact signs."""
    calls.clear()
    got = f(pair, n)
    assert len(calls) <= 4, (pair, n, len(calls))
    assert got == (reference or _f_decimal)(pair, n)


class TestCertifiedFloor:
    # f guesses from logs sized by the answer and confirms with exact signs;
    # each case counts the signs and checks a reference kept in this module.

    @floor_pairs
    def test_random_n_up_to_1e120(self, args, sign_calls):
        pair = validate_pair(*args, bit_budget=RAISED_BUDGET)
        rng = random.Random(args[0] * 31 + args[1] % 1000)
        for _ in range(40):
            _check_f(pair, rng.randrange(1, 10 ** rng.randint(1, 120)), sign_calls)

    @floor_pairs
    def test_near_2_40_to_2_52_and_1e120(self, args, sign_calls):
        # Past 2**40 an answer of (3, 2**3000 + 1) has 51-63 bits, where a float
        # guess sized by n alone is off by hundreds.
        pair = validate_pair(*args, bit_budget=RAISED_BUDGET)
        for base in [2**e for e in range(40, 53)] + [10**120]:
            for n in (base - 1, base, base + 1):
                _check_f(pair, n, sign_calls)

    @floor_pairs
    def test_at_deep_convergents(self, args, sign_calls):
        # n/alpha lies closest to an integer at the numerators h_i, within
        # about 1/k_(i+1): there the logs of the guess and the signs are hardest.
        pair = validate_pair(*args, bit_budget=RAISED_BUDGET)
        table = ConvergentTable(pair)
        while table.h(table.depth) < 10**120:
            table.extend_to(table.depth + 1)
        for i in range(1, table.depth + 1):
            for n in (table.h(i) - 1, table.h(i), table.h(i) + 1):
                if n >= 1:
                    _check_f(pair, n, sign_calls)

    @pytest.mark.parametrize("guess", ["float", "decimal"])
    @pytest.mark.parametrize("p1,p2", PAIR_ARGS)
    def test_log_path_forced_undecided(self, p1, p2, guess, sign_calls, monkeypatch):
        # As in TestCertifiedLogPath: the float filter certifies nothing and
        # the decimal-log signs stay undecided, so big-integer powers settle
        # every sign; the guess comes from the float or the decimal logs.
        monkeypatch.setattr(core_arith, "_FLOAT_ABS_MARGIN", math.inf)
        monkeypatch.setattr(core_arith, "_log_sign", lambda *args: EQUAL)
        if guess == "decimal":
            monkeypatch.setattr(core_arith, "_FLOAT_GUESS_MAX", 0)
        pair = pair_for(p1, p2)
        rng = random.Random(p1 * 31 + p2)
        for n in [*range(1, 40), *(rng.randrange(40, 1500) for _ in range(20))]:
            _check_f(pair, n, sign_calls, _f_reference)

    def test_powers_past_1e124_end(self):
        # The first log round of these signs is about 815 digits wide, past
        # the doubling cap; it once went unrun, and powers of about 1e200 bits
        # were built. Run apart, with the address space limited in the child.
        n = random.Random(7).randrange(10**199, 10**200)
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "from lattice_succ.core_arith import f, validate_pair\n"
            f"print(f(validate_pair(2, 3, bit_budget={RAISED_BUDGET}), {n}))\n"
        )
        src = str(Path(lattice_succ.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, cwd=src, check=True
        )
        assert int(done.stdout) == _f_decimal(pair_for(2, 3), n)


def _f_decimal(pair, n):
    """ceil(n*ln(p2)/ln(p1)) from decimal logs at least 60 digits wider than n.

    The roundings of the two logs, the quotient and the product move it by a
    few units of its last digit, so the precision doubles until the product
    lies more than 10**5 such units from an integer.
    """
    import decimal

    prec = len(str(n)) + 60
    while True:
        with decimal.localcontext() as ctx:
            ctx.prec = prec
            x = n * (decimal.Decimal(pair.p2).ln() / decimal.Decimal(pair.p1).ln())
            floor = x.to_integral_value(rounding=decimal.ROUND_FLOOR)
            slack = decimal.Decimal(1).scaleb(x.adjusted() - prec + 6)
            if slack < x - floor < 1 - slack:
                return int(floor) + 1
        prec *= 2


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
        # ln(p2) > 100, so ln(p2) * 2**bits has at least 7 integer bits, which
        # _ln's context holds besides the bits. The float filter is switched
        # off, since at convergents the budget reaches it settles nearly
        # everything.
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

    @pytest.mark.parametrize("p", [2, 3, 10**40 + 3, 3**100, 10**400, 2**3000 + 1])
    @pytest.mark.parametrize("bits", [48, 114, 453])
    def test_ln_is_within_one_unit(self, p, bits):
        # One unit, 2**-bits, is never wider than half a last digit of the
        # 14-, 34- and 136-digit decimal logs, for every p here.
        import decimal

        n = core_arith._ln(p, bits)
        assert type(n) is int
        # ln(p) * 2**bits < 2**(bits + 12) has at most bits * 0.30103 + 5 digits; the reference keeps 35 more.
        wide = decimal.Context(prec=bits * 1233 // 4096 + 40)
        assert wide.subtract(wide.multiply(wide.ln(p), 1 << bits), n).copy_abs() < 1

    def test_precision_doubles_until_decided(self, monkeypatch):
        # ln(p1) and ln(p2) agree to 40 digits, so the float logs are equal and
        # the first decimal precision cannot separate 1000*ln(p1) from 1000*ln(p2).
        pair = validate_pair(10**40 + 1, 10**40 + 3)
        calls = _spy_log_sign(monkeypatch)
        assert _affine_sign(pair, 1000, 1000) == LESS
        assert [sign for *_, sign in calls] == [EQUAL, LESS]
        assert calls[1][2] == 2 * calls[0][2]
        assert _affine_sign(pair, 1000, 999) == _power_sign(pair, 1000, 999)

    @pytest.mark.parametrize("dk,dn", [(2, 1), (2000, 1000), (20_000, 10_000), (200_000, 100_000)])
    def test_dependent_pair_ends_in_a_tie(self, dk, dn):
        # A dependent pair, built around the checking constructor: the logs
        # never separate, and the big-integer fallback finds p1**dk == p2**dn
        # once the logs pass about 512 digits. A checked pair cannot get here,
        # so the tie is an internal error, not a refusal of the user's pair. Run apart, so logs that keep
        # widening fail the test at the timeout instead of holding the suite.
        code = (
            "import math\n"
            "from lattice_succ import core_arith\n"
            "pair = core_arith.GeneratorPair.__new__(core_arith.GeneratorPair)\n"
            "fields = dict(p1=2, p2=4, bit_budget=core_arith.DEFAULT_BIT_BUDGET, _log2=(1.0, 2.0))\n"
            "for name, value in fields.items():\n"
            "    object.__setattr__(pair, name, value)\n"
            "signs = []\n"
            "log_sign = core_arith._log_sign\n"
            "core_arith._log_sign = lambda *args: signs.append(log_sign(*args)) or signs[-1]\n"
            "try:\n"
            f"    core_arith._affine_sign(pair, {dk}, {dn})\n"
            "except core_arith.InternalConsistencyError:\n"
            "    print('InternalConsistencyError', len(signs), all(sign == core_arith.EQUAL for sign in signs))\n"
        )
        src = str(Path(lattice_succ.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=60, cwd=src, check=True,
        )
        tie, calls, undecided = done.stdout.split()
        assert (tie, undecided) == ("InternalConsistencyError", "True")
        assert (int(calls) > 0) == (dk > 2)

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
