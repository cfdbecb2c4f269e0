import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eulerlab.hpreal import (
    DomainError,
    ExtReal,
    bernoulli,
    bernoulli_first,
    bernoulli_poly,
    binom,
    const_gamma_f64,
    const_ln2,
    const_pi,
    euler_average_fixed,
    exp_dd,
    from_fixed,
    ln_dd,
    machin_pi_fraction,
    atanh_ln2_fraction,
    parse_decimal,
    sinc_pi,
    to_decimal,
    to_fixed,
)
from conftest import PI_50, LN2_50, approx_abs
import oracles

BOUND = Fraction(1, 2 ** 104)


# ---------------------------------------------------------------------------
# double-double arithmetic
# ---------------------------------------------------------------------------

def test_additive_inverse_is_exact():
    one = ExtReal(1.0)
    z = one + ExtReal(-1.0)
    assert z.hi == 0.0 and z.lo == 0.0


def test_rounded_third_times_three():
    third = ExtReal.from_fraction(Fraction(1, 3))
    prod = third * 3
    assert approx_abs(prod, 1, BOUND)


def test_dd_vs_rational_oracle_bulk():
    # 1e4 random cases against the exact Fraction oracle: dyadic inputs for
    # all four operations, dd-rounded general rationals for * / and
    # cancellation-free +
    rng = random.Random(987654321)
    worst = Fraction(0)
    for _ in range(5000):
        a = Fraction(rng.randint(-2 ** 40, 2 ** 40), 2 ** rng.randint(0, 20))
        b = Fraction(rng.randint(-2 ** 40, 2 ** 40), 2 ** rng.randint(0, 20))
        if b == 0:
            continue
        da, db = ExtReal.from_fraction(a), ExtReal.from_fraction(b)
        for exact, got in ((a + b, da + db), (a - b, da - db),
                           (a * b, da * db), (a / b, da / db)):
            err = abs(got.to_fraction() - exact)
            worst = max(worst, err / abs(exact) if exact else err)
    for _ in range(5000):
        a = Fraction(rng.randint(1, 2 ** 40), rng.randint(1, 2 ** 20))
        b = Fraction(rng.randint(1, 2 ** 40), rng.randint(1, 2 ** 20))
        da, db = ExtReal.from_fraction(a), ExtReal.from_fraction(b)
        for exact, got in ((a * b, da * db), (a / b, da / db), (a + b, da + db)):
            worst = max(worst, abs(got.to_fraction() - exact) / exact)
    assert worst <= BOUND


@given(st.integers(-2 ** 40, 2 ** 40), st.integers(0, 20),
       st.integers(-2 ** 40, 2 ** 40), st.integers(0, 20))
@settings(max_examples=200, deadline=None)
def test_dyadic_add_mul_exact(na, ka, nb, kb):
    a, b = Fraction(na, 2 ** ka), Fraction(nb, 2 ** kb)
    da, db = ExtReal.from_fraction(a), ExtReal.from_fraction(b)
    assert (da + db).to_fraction() == a + b
    assert (da * db).to_fraction() == a * b  # 80-bit products fit in hi+lo


def test_canonical_form_random():
    rng = random.Random(7)
    for _ in range(2000):
        x = ExtReal(rng.uniform(-1e6, 1e6), rng.uniform(-1e-10, 1e-10))
        y = ExtReal(rng.uniform(-1e6, 1e6), rng.uniform(-1e-10, 1e-10))
        z = x * y + x
        if z.hi != 0.0:
            assert abs(z.lo) <= math.ulp(z.hi) / 2 + 1e-300


def test_division_by_zero():
    with pytest.raises(DomainError):
        ExtReal(1.0) / ExtReal(0.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            ExtReal(bad)
        with pytest.raises(DomainError):
            ExtReal(1.0, bad)
        with pytest.raises(DomainError):
            to_decimal(bad)
        with pytest.raises(DomainError):
            exp_dd(bad)
    with pytest.raises(DomainError):
        to_decimal(ExtReal(1e300) * 1e300)  # overflows inside the operators


def test_from_fraction_beyond_double_range():
    with pytest.raises(DomainError):
        ExtReal.from_fraction(Fraction(10) ** 400)
    with pytest.raises(DomainError):
        ExtReal.from_fraction(-Fraction(10) ** 400)


def test_comparisons_and_pow():
    a = ExtReal.from_fraction(Fraction(10, 3))
    assert a > 3 and a < 4 and a == a
    assert approx_abs(a ** 3, Fraction(1000, 27), Fraction(1, 10 ** 29))
    assert (a ** 0).to_fraction() == 1


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def test_pi_against_independent_oracles(frozen):
    machin = oracles.machin_pi()
    second = oracles.two_term_pi()
    assert abs(machin - second) < Fraction(1, 10 ** 44)
    assert abs(frozen["pi"] - machin) < Fraction(1, 10 ** 45)
    assert approx_abs(const_pi(), machin, Fraction(1, 10 ** 31))
    # the in-package series agrees with the independent re-implementation,
    # and const_pi is its double-double split
    assert abs(machin_pi_fraction() - machin) < Fraction(1, 10 ** 44)
    assert const_pi() == ExtReal.from_fraction(oracles.machin_pi(62))


def test_ln2_against_series_oracle(frozen):
    oracle = oracles.atanh_ln2()
    assert abs(frozen["ln2"] - oracle) < Fraction(1, 10 ** 45)
    assert approx_abs(const_ln2(), oracle, Fraction(1, 10 ** 31))
    assert abs(atanh_ln2_fraction() - oracle) < Fraction(1, 10 ** 44)
    assert const_ln2() == ExtReal.from_fraction(oracles.atanh_ln2(62))


def test_gamma_literal_is_correctly_rounded(frozen):
    oracle = oracles.euler_gamma()
    assert abs(frozen["gamma"] - oracle) < Fraction(1, 10 ** 40)
    g = const_gamma_f64()
    assert abs(Fraction(g) - oracle) <= Fraction(math.ulp(g)) / 2


def test_elementary_functions():
    assert abs(float(exp_dd(ExtReal(0.0)) - 1)) == 0.0
    x = ExtReal.from_fraction(Fraction(7, 2))
    assert abs(float(ln_dd(exp_dd(x)) - x)) < 1e-30
    assert abs(float(exp_dd(ln_dd(x)) - x)) < 1e-30
    assert float(sinc_pi(ExtReal(0.0))) == 1.0


def test_sinc_pi_against_rational_oracle():
    # the kernel contract on the whole domain |y| <= 1/2, for exact rational
    # and for double-double arguments
    rng = random.Random(20261018)
    ys = [Fraction(1, 2), Fraction(-1, 2)]
    for _ in range(100):
        q = rng.randint(1, 10 ** 6)
        ys.append(Fraction(rng.randint(-q, q), 2 * q))
    for y in ys:
        x = ExtReal.from_fraction(y)
        for arg, exact_arg in ((y, y), (x, x.to_fraction())):
            exact = oracles.sinc_pi(exact_arg)
            assert abs(sinc_pi(arg).to_fraction() - exact) <= BOUND * exact, arg
    for bad in (Fraction(1, 2) + Fraction(1, 10 ** 30), ExtReal(-0.5000001), Fraction(3, 4), 3):
        with pytest.raises(DomainError):
            sinc_pi(bad)


def test_exp_ln_against_decimal_oracle():
    # the kernel contract against 60-digit `decimal`, relative, or absolute
    # (scaled by 2^-8) where the value is near 0; exp stops at -650 because
    # below ~1e-291 the low double of the result is subnormal
    rng = random.Random(20261018)
    xs = [ExtReal(rng.uniform(-650.0, 700.0)) for _ in range(100)]
    xs += [ExtReal(rng.uniform(-2.0, 2.0), rng.uniform(-1e-17, 1e-17)) for _ in range(100)]
    for x in xs:
        exact = oracles.decimal_exp(x.to_fraction())
        assert abs(exp_dd(x).to_fraction() - exact) <= BOUND * exact, x
    ys = [ExtReal(10.0 ** rng.uniform(-300.0, 300.0)) for _ in range(100)]
    ys += [ExtReal(rng.uniform(0.5, 2.0), rng.uniform(-1e-17, 1e-17)) for _ in range(100)]
    for y in ys + [ExtReal(1.0), ExtReal(2.0)]:
        exact = oracles.decimal_ln(y.to_fraction())
        assert abs(ln_dd(y).to_fraction() - exact) <= BOUND * max(abs(exact), Fraction(1, 2 ** 8)), y


def test_small_arguments_keep_relative_precision():
    # near 0, sinc and ln(1 + d) hold the contract relative to the value,
    # not only to an absolute unit
    for y in (1e-70, -1e-70, 1e-300):
        assert float(sinc_pi(ExtReal(y))) == 1.0
        assert abs(sinc_pi(ExtReal(y)).to_fraction() - 1) <= BOUND
    for y in (ExtReal(1.0, 1e-40), ExtReal(1.0, -1e-40), ExtReal(1.0, 2.0 ** -80),
              ExtReal(1.0 + 2.0 ** -45), ExtReal(1.0 - 2.0 ** -41),
              ExtReal(1.0 + 2.0 ** -39, 1e-30), ExtReal(1.0 - 2.0 ** -39)):
        exact = oracles.decimal_ln(y.to_fraction(), prec=200)
        assert abs(ln_dd(y).to_fraction() - exact) <= BOUND * abs(exact), y


# ---------------------------------------------------------------------------
# Bernoulli numbers and binomials
# ---------------------------------------------------------------------------

def test_bernoulli_known_values():
    assert bernoulli(0) == 1
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)
    assert bernoulli(30) == Fraction(8615841276005, 14322)


def test_bernoulli_recurrence_exact_to_60():
    # sum_{j=0}^{n} C(n+1, j) B_j = 0 for n >= 1
    for n in range(1, 61):
        total = sum(Fraction(math.comb(n + 1, j)) * bernoulli_first(j) for j in range(n + 1))
        assert total == 0


def test_bernoulli_domain_errors():
    for bad in (-2, 3, 61):
        with pytest.raises(DomainError):
            bernoulli(bad)


def test_bernoulli_poly_and_fixed_point_boundary():
    # B_3(x) = x^3 - 3x^2/2 + x/2
    for x in (Fraction(1, 3), Fraction(-7, 4), Fraction(5)):
        exact = x ** 3 - Fraction(3, 2) * x ** 2 + x / 2
        assert approx_abs(bernoulli_poly(3, x), exact, BOUND * max(abs(exact), 1))
    # the fixed-point boundary rejects values a double cannot hold
    with pytest.raises(DomainError):
        bernoulli_poly(12, 1e308)  # ~1e3696
    with pytest.raises(DomainError):
        ln_dd(ExtReal(1e300) * 1e300)  # an overflowed, infinite ExtReal


def test_binom_values_and_conventions():
    assert binom(2, 1) == 2
    assert binom(0, 1) == 0
    assert binom(5, -1) == 0
    assert binom(40, 20) == 137846528820
    assert binom(40, 20) == oracles.pascal_binom(40, 20)
    with pytest.raises(DomainError):
        binom(65, 2)


@given(st.integers(0, 64), st.integers(-2, 66))
@settings(max_examples=300, deadline=None)
def test_binom_symmetry_and_pascal(n, k):
    assert binom(n, k) == binom(n, n - k)
    if n >= 1:
        assert binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k)


# ---------------------------------------------------------------------------
# decimal formatting
# ---------------------------------------------------------------------------

def test_to_decimal_digits():
    assert to_decimal(ExtReal(1.0), 5) == "1.0000"
    assert to_decimal(ExtReal(-0.5), 4) == "-0.5000"
    assert to_decimal(ExtReal(0.0), 6) == "0.00000"
    pi_dd = ExtReal.from_fraction(parse_decimal(PI_50))
    assert to_decimal(pi_dd, 30) == "3.14159265358979323846264338328"  # rounds up
    ln2_dd = ExtReal.from_fraction(parse_decimal(LN2_50))
    assert to_decimal(ln2_dd, 30) == LN2_50[:32]


def test_to_decimal_scientific_and_roundtrip():
    tiny = ExtReal(1.25e-30)
    s = to_decimal(tiny, 10)
    assert "e-30" in s
    assert abs(parse_decimal(s) - Fraction(tiny.to_fraction())) < Fraction(1, 10 ** 38)


@given(st.fractions(min_value=Fraction(-10 ** 6), max_value=Fraction(10 ** 6),
                    max_denominator=10 ** 6))
@settings(max_examples=200, deadline=None)
def test_parse_to_decimal_consistency(f):
    s = to_decimal(f, 36)
    assert abs(parse_decimal(s) - f) <= abs(f) * Fraction(1, 10 ** 34) + Fraction(1, 10 ** 40)


# ---------------------------------------------------------------------------
# alternating-series averaging
# ---------------------------------------------------------------------------

def test_euler_average_on_alternating_harmonic():
    partials = [to_fixed(ExtReal(p)) for p in oracles.harmonic_alternating(64)]
    value, _ = euler_average_fixed(partials, 16)
    assert abs(float(from_fixed(value)) + math.log(2)) < 1e-14


def test_to_decimal_boundaries():
    # fixed/scientific switchover and rounding overflow
    assert to_decimal(ExtReal(1e-5), 3) == "0.0000100"
    assert to_decimal(ExtReal(1e-6), 3) == "1.00e-06"
    assert to_decimal(ExtReal(0.9999), 3) == "1.00"
    assert to_decimal(ExtReal(999.96), 4) == "1000"  # rounding promotes the exponent
    assert to_decimal(ExtReal(-12345.0), 5) == "-12345"
    assert to_decimal(ExtReal(2.5), 1) == "2"  # half-even
    assert to_decimal(ExtReal(3.5), 1) == "4"
