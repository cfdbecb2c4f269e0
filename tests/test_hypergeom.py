import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eulerlab.hpreal import DomainError, ExtReal, const_pi, ln_dd
from eulerlab.hypergeom import (
    ConvClass,
    HypSpec,
    check_andrews_limit,
    check_dougall_limit,
    check_gauss,
    check_kummer_type,
    check_odd_zeta_series,
    check_poch_ratio,
    check_saalschutz,
    classify,
    evaluate,
    evaluate_terminating_exact,
    gamma_ratio,
    ln_gamma,
    pochhammer,
)
from conftest import approx_abs
import oracles

F = Fraction
# the kernel contract: 2^-104 relative, or absolute (scaled by 2^-8) where
# the value is near 0
BOUND = F(1, 2 ** 104)
NEAR_ZERO = F(1, 2 ** 8)


# ---------------------------------------------------------------------------
# pochhammer
# ---------------------------------------------------------------------------

def test_pochhammer_factorial_and_zero():
    for n in range(8):
        assert pochhammer(1, n) == math.factorial(n)
    assert pochhammer(-3, 5) == 0
    assert pochhammer(F(1, 2), 3) == F(15, 8)
    assert pochhammer(F(1, 2), 0) == 1


@given(st.fractions(min_value=F(-5), max_value=F(5), max_denominator=12),
       st.integers(0, 12))
@settings(max_examples=150, deadline=None)
def test_pochhammer_recurrence(x, n):
    assert pochhammer(x, n + 1) == pochhammer(x, n) * (x + n)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_rules():
    assert classify(HypSpec.of([1, 1], [3], 1)) is ConvClass.ABSOLUTE
    assert classify(HypSpec.of([1, 1], [2], 1)) is ConvClass.DIVERGENT  # margin 0
    assert classify(HypSpec.of([-4, 1, 1], [2, 2], 1)) is ConvClass.TERMINATING
    assert classify(HypSpec.of([1, F(1, 2)], [3], -1)) is ConvClass.ABSOLUTE
    # margin exactly 0 at -1: conditional, not absolute
    assert classify(HypSpec.of([1, F(1, 2)], [F(3, 2)], -1)) is ConvClass.CONDITIONAL
    assert classify(HypSpec.of([1, 1], [2], -1)) is ConvClass.CONDITIONAL
    assert classify(HypSpec.of([1, F(3, 2)], [F(3, 2)], -1)) is ConvClass.DIVERGENT


def test_spec_validation():
    with pytest.raises(DomainError):
        HypSpec.of([1, 1], [0], 1)  # zero lower parameter
    with pytest.raises(DomainError):
        HypSpec.of([1, 1, 1], [2], 1)  # shape
    # nonpositive-integer lower is fine when the series terminates first
    HypSpec.of([1, 2, -1], [5, -2], 1)
    with pytest.raises(DomainError):
        HypSpec.of([1, 2, -3], [5, -2], 1)  # pole inside the range


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_telescoping_at_plus_one():
    # terms are 2/((n+1)(n+2)); partial sums telescope to 2 - 2/(N+2)
    res = evaluate(HypSpec.of([1, 1], [3], 1))
    assert abs(float(res.value - 2)) < 1e-20


def test_eval_leibniz_at_minus_one(frozen):
    res = evaluate(HypSpec.of([1, F(1, 2)], [F(3, 2)], -1))
    assert approx_abs(res.value, frozen["pi"] / 4, F(1, 10 ** 20))


def test_eval_terminating_exact():
    spec = HypSpec.of([1, 2, -1], [5, 1 + 1 + 2 - 5 - 1], 1)
    assert evaluate_terminating_exact(spec) == F(6, 5)
    res = evaluate(spec)
    assert abs(res.value.to_fraction() - F(6, 5)) <= F(6, 5) / 2 ** 104
    assert float(res.tail_estimate) == 0.0


def test_eval_divergent_raises():
    with pytest.raises(DomainError):
        evaluate(HypSpec.of([1, 1], [2], 1))


def test_eval_against_exact_oracles():
    for b, c in ((F(1, 3), F(7, 3)), (F(1, 2), F(3)), (F(1, 4), F(7, 4)),
                 (F(2, 3), F(5, 2)), (F(1, 5), F(9, 5)), (F(3, 2), F(17, 4))):
        exact = oracles.hyp_one_b_c(b, c)
        got = evaluate(HypSpec.of([1, b], [c], 1)).value.to_fraction()
        assert abs(got - exact) <= BOUND * exact, (b, c)
    ln2, pi = oracles.atanh_ln2(60), oracles.machin_pi(60)
    # ln 2, pi/4 and 2 (2 ln 2 - 1) = sum (-1)^n 2 / ((n+1)(n+2))
    for upper, lower, exact in (([1, 1], [2], ln2), ([F(1, 2), 1], [F(3, 2)], pi / 4),
                                ([1, 1], [3], 2 * (2 * ln2 - 1))):
        got = evaluate(HypSpec.of(upper, lower, -1)).value.to_fraction()
        assert abs(got - exact) <= BOUND * exact, (upper, lower)


def test_ln_gamma_against_decimal_oracle():
    for n in [*range(1, 41), 100, 1000, 9999]:
        exact = oracles.ln_factorial(n - 1)
        assert abs(ln_gamma(n).to_fraction() - exact) <= BOUND * max(exact, NEAR_ZERO), n


def test_eval_rejects_a_broken_tail_expansion():
    # parameters far above n = 3000 leave E(n) = exp(sum d_k n^-k) <= 0 in
    # its truncated expansion; the true value is -1.5e-25
    with pytest.raises(DomainError):
        evaluate(HypSpec.of([11507, F(-45, 7)], [F(241645, 21)], 1))


def test_eval_large_parameters_raise_or_meet_their_estimate():
    # Gauss: 2F1(a, b; c; 1) = Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b)),
    # by math.lgamma, allowing four ulps of each log-gamma
    landed = 0
    for a, b, c in ((30, 40, F(141, 2)), (300, F(5, 2), 303), (300, F(1, 3), 301),
                    (2999, F(1, 3), F(5999, 2)), (3500, F(1, 3), F(7001, 2)),
                    (10 ** 4, F(5, 2), 10 ** 4 + 3), (10 ** 5, F(1, 3), 10 ** 5 + 1)):
        logs = [math.lgamma(c), math.lgamma(c - a - b), -math.lgamma(c - a), -math.lgamma(c - b)]
        gauss = math.exp(math.fsum(logs))
        slack = 4 * 2.0 ** -53 * sum(map(abs, logs)) * gauss
        try:
            res = evaluate(HypSpec.of([a, b], [c], 1))
        except DomainError:
            continue
        landed += 1
        assert abs(float(res.value) - gauss) <= float(res.tail_estimate) + slack, (a, b, c)
    assert landed >= 3
    # the +1 expansion's terms grow at every order here (1, 33, 1.1e3, ...):
    # it must be refused, not return 16.5 for 62.9
    with pytest.raises(DomainError):
        evaluate(HypSpec.of([10 ** 5, F(1, 3)], [10 ** 5 + 1], 1))


def test_eval_self_consistency_with_cap():
    spec = HypSpec.of([F(1, 3), F(1, 4)], [F(7, 4)], 1)
    a = evaluate(spec, cap=400)
    b = evaluate(spec, cap=800)
    assert abs(float(a.value - b.value)) <= float(a.tail_estimate) + float(b.tail_estimate) + 1e-30


# ---------------------------------------------------------------------------
# ln_gamma
# ---------------------------------------------------------------------------

def test_ln_gamma_values(frozen):
    assert abs(float(ln_gamma(1))) < 1e-30
    assert abs(float(ln_gamma(5) - ln_dd(ExtReal(24.0)))) < 1e-30
    # ln Gamma(1/2) = ln sqrt(pi)
    assert abs(float(ln_gamma(F(1, 2)) - ln_dd(const_pi()) / 2)) < 1e-29


def test_ln_gamma_functional_equation():
    for x in (0.5, 1.5, float(const_pi()), 10.0):
        lhs = ln_gamma(ExtReal(x) + 1) - ln_gamma(ExtReal(x)) - ln_dd(ExtReal(x))
        assert abs(float(lhs)) <= 1e-28, x


def test_ln_gamma_domain():
    for bad in (0, -1, 2 * 10 ** 4):
        with pytest.raises(DomainError):
            ln_gamma(bad)


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

def test_gauss_telescoping_case():
    assert float(check_gauss(1, 1, 3)) < 1e-20


def test_gauss_half_case():
    assert float(check_gauss(F(1, 2), F(1, 2), 2)) < 1e-18


def test_gauss_empty_series():
    assert float(check_gauss(0, F(1, 3), F(3, 2))) < 1e-28


def test_gauss_precondition():
    with pytest.raises(DomainError):
        check_gauss(1, 1, 2)


def test_saalschutz_hand_case():
    assert check_saalschutz(1, 2, 5, 1) == 0
    assert check_saalschutz(F(1, 3), F(2, 5), F(7, 2), 0) == 0


def test_saalschutz_random_exact():
    rng = random.Random(20240817)
    done = 0
    while done < 200:
        a = F(rng.randint(-8, 12), rng.randint(1, 6))
        b = F(rng.randint(-8, 12), rng.randint(1, 6))
        c = F(rng.randint(-8, 12), rng.randint(1, 6))
        n = rng.randint(0, 6)
        try:
            assert check_saalschutz(a, b, c, n) == 0
        except DomainError:
            continue
        done += 1


def test_poch_ratio_cases():
    assert check_poch_ratio(F(1, 2), F(1, 3), F(1, 5), 0) == 0
    assert check_poch_ratio(3, F(1, 2), F(1, 3), 2) == 0
    rng = random.Random(99)
    done = 0
    while done < 200:
        a = F(rng.randint(-8, 12), rng.randint(1, 6))
        b = F(rng.randint(-8, 12), rng.randint(1, 6))
        c = F(rng.randint(-8, 12), rng.randint(1, 6))
        n = rng.randint(0, 6)
        try:
            assert check_poch_ratio(a, b, c, n) == 0
        except DomainError:
            continue
        done += 1


def test_kummer_type_arctan_case(frozen):
    # 2F1(1, 1/2; 3/2; -1) is the Leibniz series; both sides equal pi/4
    assert float(check_kummer_type(1, F(1, 2))) < 1e-20
    lhs = evaluate(HypSpec.of([1, F(1, 2)], [F(3, 2)], -1)).value
    assert approx_abs(lhs, frozen["pi"] / 4, F(1, 10 ** 20))


def test_kummer_type_more_and_empty():
    assert float(check_kummer_type(2, F(1, 2))) < 1e-18
    assert float(check_kummer_type(F(5, 2), F(-1, 2))) < 1e-18
    # b = 0 empty series: both sides 1
    assert float(check_kummer_type(3, 0)) < 1e-28
    with pytest.raises(DomainError):
        check_kummer_type(1, 2)


def test_dougall_limit_cases(frozen):
    assert float(check_dougall_limit(1, F(1, 2), F(1, 2))) < 1e-20
    assert float(check_dougall_limit(2, F(1, 2), F(1, 2))) < 1e-18
    # b = 0: empty series, gamma sides collapse to 1
    assert float(check_dougall_limit(F(3, 2), 0, F(1, 4))) < 1e-28
    with pytest.raises(DomainError):
        check_dougall_limit(1, 1, 1)  # margin fails


def test_andrews_limit_reduces_to_dougall():
    r0 = check_andrews_limit(0, 1, [F(1, 3)], [F(1, 4)])
    r3 = check_dougall_limit(1, F(1, 3), F(1, 4))
    assert abs(float(r0) - float(r3)) <= 1e-28
    assert float(r0) < 1e-18


def test_andrews_limit_s1():
    res = check_andrews_limit(1, 1, [F(1, 3), F(1, 3)], [F(1, 4), F(1, 4)])
    assert float(res) <= 1e-10


@pytest.mark.slow
def test_andrews_limit_s2():
    res = check_andrews_limit(2, 1, [F(1, 5)] * 3, [F(1, 5)] * 3)
    assert float(res) <= 1e-8


def test_andrews_limit_validation():
    with pytest.raises(DomainError):
        check_andrews_limit(1, 1, [F(1, 3)], [F(1, 4)])  # wrong arity


def test_odd_zeta_series():
    assert float(check_odd_zeta_series(0)) == 0.0
    assert float(check_odd_zeta_series(F(1, 4))) < 1e-20
    assert float(check_odd_zeta_series(F(1, 3))) < 1e-18
    with pytest.raises(DomainError):
        check_odd_zeta_series(F(1, 2))


def test_gamma_ratio_duplication():
    # Legendre duplication at z = 1/4: G(1/2) = G(1/4) G(3/4) ... cross-check
    # gamma_ratio against a product identity evaluated two ways
    lhs = gamma_ratio([F(1, 4), F(3, 4)], [F(1, 2), F(1, 2)])
    # G(1/4) G(3/4) = pi / sin(pi/4) = pi sqrt(2); G(1/2)^2 = pi
    from eulerlab.hpreal import exp_dd
    sqrt2 = exp_dd(ln_dd(ExtReal(2.0)) / 2)
    assert abs(float(lhs - sqrt2)) < 1e-29
