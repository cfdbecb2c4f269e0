import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eulerlab.hpreal import DomainError, ExtReal, _ln_gamma_exact, const_pi, ln_dd, ln_gamma_fixed
from eulerlab.hypergeom import (
    TERMINATING_CAP,
    TERMINATING_SIZE_CAP,
    ConvClass,
    HypSpec,
    _diagonals,
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
from conftest import approx_abs, gap
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


def test_terminating_sum_matches_the_term_by_term_oracle():
    # random 2F1, 3F2 and 4F3 at +1 and -1, the longest series taken and one
    # at the size cap, against Fractions term by term
    rng = random.Random(20261020)

    def param():
        return F(rng.randint(-20, 20), rng.randint(1, 9))

    specs = []
    while len(specs) < 300:
        q = rng.randint(1, 3)
        try:
            specs.append(HypSpec.of([-rng.randint(0, 40)] + [param() for _ in range(q)],
                                    [param() for _ in range(q)], rng.choice((1, -1))))
        except DomainError:
            continue
    specs.append(HypSpec.of([-TERMINATING_CAP, F(1, 3)], [F(7, 2)], 1))
    at_cap = HypSpec.of([-10, F(2 ** 6248 + 1, 2 ** 6248)], [F(2 ** 6248 + 3, 2 ** 6247)], 1)
    bits = sum(p.numerator.bit_length() + p.denominator.bit_length()
               for p in at_cap.upper + at_cap.lower)
    assert 10 * bits == TERMINATING_SIZE_CAP
    specs.append(at_cap)
    for spec in specs:
        exact = oracles.terminating_sum(spec.upper, spec.lower, spec.argument)
        assert evaluate_terminating_exact(spec) == exact, spec


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
    # 2F1(a, 1/3; 1/3; -1) = (1 + 1)^-a, conditionally convergent (margin -a)
    for a in (F(1, 4), F(1, 2), F(3, 4)):
        exact = oracles.decimal_exp(-a * oracles.decimal_ln(F(2)))
        got = evaluate(HypSpec.of([a, F(1, 3)], [F(1, 3)], -1)).value.to_fraction()
        assert abs(got - exact) <= BOUND * exact, a


def test_eval_gauss_integer_grid_within_estimate():
    # Gauss at integer parameters: (c-1)! (c-a-b-1)! / ((c-a-1)! (c-b-1)!)
    fact = math.factorial
    for a, b in itertools.product(range(1, 6), repeat=2):
        for c in range(a + b + 1, a + b + 4):
            exact = F(fact(c - 1) * fact(c - a - b - 1), fact(c - a - 1) * fact(c - b - 1))
            res = evaluate(HypSpec.of([a, b], [c], 1))
            err = abs(res.value.to_fraction() - exact)
            assert err <= res.tail_estimate.to_fraction() + BOUND * exact, (a, b, c)


def test_ln_gamma_against_decimal_oracle():
    for n in [*range(1, 41), 100, 1000, 9999]:
        exact = oracles.ln_factorial(n - 1)
        assert abs(ln_gamma(n).to_fraction() - exact) <= BOUND * max(exact, NEAR_ZERO), n


def test_eval_large_parameters_raise_or_meet_their_estimate():
    # Gauss: 2F1(a, b; c; 1) = Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b)),
    # by math.lgamma, allowing four ulps of each log-gamma
    landed = 0
    for a, b, c in ((30, 40, F(141, 2)), (300, F(5, 2), 303), (300, F(1, 3), 301),
                    (2999, F(1, 3), F(5999, 2)), (3500, F(1, 3), F(7001, 2)),
                    (10 ** 4, F(5, 2), 10 ** 4 + 3), (10 ** 5, F(1, 3), 10 ** 5 + 1),
                    (11507, F(-45, 7), F(241645, 21)), (300, 40, 343)):
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
    # the terms keep their n^-2/3 regime up to n ~ 1e5, far past the term
    # cap: it must be refused, not return 16.5 for 62.9
    with pytest.raises(DomainError):
        evaluate(HypSpec.of([10 ** 5, F(1, 3)], [10 ** 5 + 1], 1))


# ---------------------------------------------------------------------------
# ln_gamma
# ---------------------------------------------------------------------------

def test_ln_gamma_values(frozen):
    assert abs(float(ln_gamma(1))) < 1e-30
    assert abs(float(ln_gamma(5) - ln_dd(ExtReal(24.0)))) < 1e-30
    # ln Gamma(1/2) = ln sqrt(pi)
    assert abs(float(ln_gamma(F(1, 2)) - ln_dd(const_pi()) / 2)) < 1e-29


def test_ln_gamma_repeat_is_a_cache_hit_with_the_cold_bits():
    _ln_gamma_exact.cache_clear()
    first = ln_gamma_fixed(F(7, 3))
    assert ln_gamma_fixed(F(14, 6)) == first and ln_gamma_fixed(2) == ln_gamma_fixed(F(2))
    assert _ln_gamma_exact.cache_info().hits == 2 and _ln_gamma_exact.cache_info().misses == 2
    _ln_gamma_exact.cache_clear()
    assert ln_gamma_fixed(F(7, 3)) == first
    assert _ln_gamma_exact.cache_info().misses == 1


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
    assert gap(check_gauss(1, 1, 3)) < 1e-20


def test_gauss_half_case():
    assert gap(check_gauss(F(1, 2), F(1, 2), 2)) < 1e-18


def test_gauss_empty_series():
    assert gap(check_gauss(0, F(1, 3), F(3, 2))) < 1e-28


def test_gauss_precondition():
    with pytest.raises(DomainError):
        check_gauss(1, 1, 2)


def test_saalschutz_hand_case():
    assert gap(check_saalschutz(1, 2, 5, 1)) == 0
    assert gap(check_saalschutz(F(1, 3), F(2, 5), F(7, 2), 0)) == 0


def test_saalschutz_random_exact():
    rng = random.Random(20240817)
    done = 0
    while done < 200:
        a = F(rng.randint(-8, 12), rng.randint(1, 6))
        b = F(rng.randint(-8, 12), rng.randint(1, 6))
        c = F(rng.randint(-8, 12), rng.randint(1, 6))
        n = rng.randint(0, 6)
        try:
            assert gap(check_saalschutz(a, b, c, n)) == 0
        except DomainError:
            continue
        done += 1


def test_poch_ratio_cases():
    assert gap(check_poch_ratio(F(1, 2), F(1, 3), F(1, 5), 0)) == 0
    assert gap(check_poch_ratio(3, F(1, 2), F(1, 3), 2)) == 0
    rng = random.Random(99)
    done = 0
    while done < 200:
        a = F(rng.randint(-8, 12), rng.randint(1, 6))
        b = F(rng.randint(-8, 12), rng.randint(1, 6))
        c = F(rng.randint(-8, 12), rng.randint(1, 6))
        n = rng.randint(0, 6)
        try:
            assert gap(check_poch_ratio(a, b, c, n)) == 0
        except DomainError:
            continue
        done += 1


def test_kummer_type_arctan_case(frozen):
    # 2F1(1, 1/2; 3/2; -1) is the Leibniz series; both sides equal pi/4
    assert gap(check_kummer_type(1, F(1, 2))) < 1e-20
    lhs = evaluate(HypSpec.of([1, F(1, 2)], [F(3, 2)], -1)).value
    assert approx_abs(lhs, frozen["pi"] / 4, F(1, 10 ** 20))


def test_kummer_type_more_and_empty():
    assert gap(check_kummer_type(2, F(1, 2))) < 1e-18
    assert gap(check_kummer_type(F(5, 2), F(-1, 2))) < 1e-18
    # b = 0 empty series: both sides 1
    assert gap(check_kummer_type(3, 0)) < 1e-28
    with pytest.raises(DomainError):
        check_kummer_type(1, 2)


def test_dougall_limit_cases(frozen):
    assert gap(check_dougall_limit(1, F(1, 2), F(1, 2))) < 1e-20
    assert gap(check_dougall_limit(2, F(1, 2), F(1, 2))) < 1e-18
    # b = 0: empty series, gamma sides collapse to 1
    assert gap(check_dougall_limit(F(3, 2), 0, F(1, 4))) < 1e-28
    with pytest.raises(DomainError):
        check_dougall_limit(1, 1, 1)  # margin fails


def test_andrews_limit_reduces_to_dougall():
    r0 = check_andrews_limit(0, 1, [F(1, 3)], [F(1, 4)])
    r3 = check_dougall_limit(1, F(1, 3), F(1, 4))
    assert r0 == r3  # check_dougall_limit is the s = 0 Andrews limit
    assert gap(r0) < 1e-18


def test_andrews_limit_s1():
    res = check_andrews_limit(1, 1, [F(1, 3), F(1, 3)], [F(1, 4), F(1, 4)])
    assert gap(res) <= 1e-30


def test_andrews_limit_s2():
    res = check_andrews_limit(2, 1, [F(1, 5)] * 3, [F(1, 5)] * 3)
    assert gap(res) <= 1e-30


@pytest.mark.parametrize("s, a, bs, cs", [
    *[(3, a, [b] * 4, [b] * 4)
      for a, b in ((F(1), F(1, 5)), (F(2), F(1, 5)), (F(3, 2), F(1, 5)), (F(1, 2), F(1, 10)))],
    *[(4, a, [F(1, 5)] * 5, [F(1, 5)] * 5) for a in (F(1), F(2))],
    (2, F(1), [F(1, 5), F(-1, 2), F(1, 5)], [F(1, 5)] * 3),  # a negative parameter
])
def test_andrews_limit_higher_s(s, a, bs, cs):
    assert gap(check_andrews_limit(s, a, bs, cs)) <= 1e-30


def test_andrews_diagonals_match_the_double_sum():
    # D(n) = sum_{k1+k2=n} (rho_1)_k1/k1! G_1(k1) (rho_2)_k2/k2! G_2(n), term by term
    a, bs, cs = F(3, 2), [F(1, 5), F(1, 6), F(1, 7)], [F(1, 4), F(-1, 3), F(2, 7)]

    def g(l, n):
        return (pochhammer(bs[l], n) * pochhammer(cs[l], n)
                / (pochhammer(1 + a - bs[l - 1], n) * pochhammer(1 + a - cs[l - 1], n)))

    def rising(l, k):
        return pochhammer(1 + a - bs[l - 1] - cs[l - 1], k) / math.factorial(k)

    diagonals = list(itertools.islice(_diagonals(a, bs, cs), 11))
    for n, d in enumerate(diagonals):
        assert d == sum(rising(1, k1) * g(1, k1) * rising(2, n - k1) * g(2, n)
                        for k1 in range(n + 1)), n


@pytest.mark.parametrize("a, bs, cs", [
    (F(1), [F(1, 3)] * 2, [F(1, 4)] * 2),
    (F(3, 2), [F(1, 5), F(-1, 2), F(1, 5)], [F(1, 5)] * 3),  # a negative b_l in G_l
    (F(1, 2), [F(-1, 3)] + [F(1, 10)] * 3, [F(1, 10)] * 4),  # a negative b_0 in rho_1
    (F(2), [F(1, 5)] * 5, [F(1, 5)] * 5),
])
def test_andrews_diagonals_match_the_fraction_oracle(a, bs, cs):
    # s = 1..4 over 100 terms: the integer levels against the definition in Fractions
    assert list(itertools.islice(_diagonals(a, bs, cs), 100)) == oracles.andrews_diagonals(a, bs, cs, 100)


def test_andrews_limit_validation():
    with pytest.raises(DomainError):
        check_andrews_limit(1, 1, [F(1, 3)], [F(1, 4)])  # wrong arity


def test_odd_zeta_series():
    assert gap(check_odd_zeta_series(0)) == 0.0
    for x in (F(1, 4), F(1, 3), F(2, 5), F(-2, 5)):
        assert gap(check_odd_zeta_series(x)) < 1e-32, x
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
