import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from eulerlab.hpreal import DomainError, ExtReal, const_pi, sinc_pi
from eulerlab.zeta_core import zeta, zeta_bar
from eulerlab.euler_sums import (_HEADS, N_MAX_CAP, DoubleIndex, _nested_tail, _prefetch, closed_bar_s,
                                 double_direct)
from eulerlab.zagier import (
    HIndex,
    eval_F,
    eval_Fstar,
    h_closed,
    h_direct,
    h_single,
    hstar_closed,
    hstar_closed_via_double,
    hstar_pilehrood,
    mzv_direct,
    sum_identities,
    zeta_bar_odd_from_hstar,
    zeta_from_hstar,
)
from conftest import approx_abs, clear_direct_caches
from test_euler_sums import SEAM_N
import oracles

F = Fraction
N = 100_000


def test_h_single_values(frozen):
    assert float(h_single(0)) == 1.0 and float(h_single(0, star=True)) == 1.0
    assert abs(float(h_single(1) - zeta(2))) < 1e-31
    assert abs(float(h_single(1, star=True) - zeta(2))) < 1e-31  # -2*zeta(2-bar)
    # pi^(2a)/(2a+1)! at a = 2
    expected = frozen["pi"] ** 4 / math.factorial(5)
    assert approx_abs(h_single(2), expected, F(1, 10 ** 28))
    with pytest.raises(DomainError):
        h_single(21)


def test_h_index_exponent_pattern():
    assert HIndex(2, 1).exponents == (2, 2, 3, 2)
    assert HIndex(0, 0).exponents == (3,)
    with pytest.raises(DomainError):
        HIndex(-1, 0)


def test_h_direct_weight3_both_variants():
    for star in (False, True):
        res = h_direct(HIndex(0, 0, star), N)
        assert abs(float(res.value - zeta(3))) < 1e-8


def test_h_direct_vs_closed_small():
    res = h_direct(HIndex(1, 0), N)
    assert abs(float(res.value - h_closed(1, 0))) < 1e-6


def test_h_direct_depth_cap():
    with pytest.raises(DomainError):
        h_direct(HIndex(5, 4), N)


def test_mzv_direct_validation():
    with pytest.raises(DomainError):
        mzv_direct((1, 2), n_max=N)  # exponent below 2
    with pytest.raises(DomainError):
        mzv_direct((2,) * 10, n_max=N)
    with pytest.raises(DomainError):
        mzv_direct((2, 2), n_max=N_MAX_CAP + 1)  # rejected before any allocation
    # depth-2 all-2 cross-check: zeta(2,2) = pi^4/120
    res = mzv_direct((2, 2), n_max=N)
    assert abs(float(res.value - const_pi() ** 4 / 120)) < 1e-8


def _whole_array_mzv(exps, star, n_max):
    """The partial sums over n_max-long prefix arrays with math.fsum, plus
    the engine's tail: the blocked pass must reproduce it bit for bit."""
    m = np.arange(1, n_max + 1, dtype=np.float64)
    level = np.ones(n_max)
    carry = []
    for j, e in enumerate(exps, start=1):
        shifted = level if star else np.concatenate([[1.0 if j == 1 else 0.0], level[:-1]])
        terms = shifted * m ** float(-e)
        level = np.cumsum(terms)
        carry.append(float(level[-1]))
    bars = (False,) * len(exps)
    tail, est = _nested_tail(exps, bars, star, n_max, carry[:-1])
    return ExtReal(math.fsum(terms) + tail), ExtReal(est)


def test_blocked_mzv_matches_whole_array_reference():
    # the last two settle early: every level of (6,) * 9 within the first
    # three blocks (the outermost strict one past m = 4e4); the outer level
    # of (3, 5, 7) within the first two, its inner ones past m = 2.1e5, once
    # m^-3 is below half an ulp of its carry
    for exps, deep in (((3,), N), ((2, 3, 2), N), ((2, 2, 2, 3, 2, 4, 2, 2, 5), N), ((6,) * 9, N),
                       ((3, 5, 7), 10 ** 6)):
        for star in (False, True):
            for n_max in dict.fromkeys((*SEAM_N, deep)):
                res = mzv_direct(exps, star, n_max)
                value, est = _whole_array_mzv(exps, star, n_max)
                got = (res.value.hi, res.value.lo, res.tail_estimate.hi, res.tail_estimate.lo)
                assert got == (value.hi, value.lo, est.hi, est.lo), (exps, star, n_max)


def test_nested_direct_meets_closed_forms():
    # zeta({2}^d) = pi^(2d)/(2d+1)! and Zagier's H / H* closed forms: with
    # every level's remainder expanded, cross terms included, the direct sums
    # land within 1e-15 absolute from n_max = 100 on (a first-order tail
    # per level is 8e-11 off at 1e5)
    for n_max in (100, 1000, N):
        for d in range(1, 10):
            got = mzv_direct((2,) * d, n_max=n_max).value
            assert abs(float(got - h_single(d))) <= 1e-15, (d, n_max)
        for total in range(6):
            for a in range(total + 1):
                for star, closed in ((False, h_closed), (True, hstar_closed)):
                    got = h_direct(HIndex(a, total - a, star), n_max).value
                    assert abs(float(got - closed(a, total - a))) <= 1e-15, (a, star, n_max)


def test_h_directs_match_solo_calls_bit_for_bit():
    # strict and starred H, a depth-9 one, double sums (one shares its head
    # with H(0,1)) and duplicates, in one prefetch: each call after it has
    # the bits of its solo call from cold caches
    indices = [HIndex(0, 1), HIndex(2, 1, True), HIndex(0, 0, True), HIndex(4, 4), HIndex(4, 4, True),
               DoubleIndex(3, 2, False, True), DoubleIndex(1, 4, True, True), HIndex(0, 1),
               HIndex(2, 1, True), DoubleIndex(3, 2, False, True)]

    def bits(res):
        return res.value.hi, res.value.lo, res.tail_estimate.hi, res.tail_estimate.lo, res.terms_used

    for n_max in SEAM_N:
        solo = []
        for idx in indices:
            clear_direct_caches()
            solo.append(bits((double_direct if isinstance(idx, DoubleIndex) else h_direct)(idx, n_max)))
        clear_direct_caches()
        _prefetch(indices, n_max)
        heads = dict(_HEADS)
        batched = [bits((double_direct if isinstance(idx, DoubleIndex) else h_direct)(idx, n_max))
                   for idx in indices]
        assert batched == solo and _HEADS == heads, n_max  # the calls ran no head
    clear_direct_caches()


def test_h_directs_run_no_batch_with_a_bad_request():
    # a bad request, first or last: no head runs, and it raises when it is called
    for indices, bad, n_max in (([HIndex(5, 4), HIndex(0, 1)], 0, N),
                                ([DoubleIndex(2, 1), HIndex(0, 1)], 0, N),
                                ([HIndex(0, 1), DoubleIndex(3, 2, False, True), HIndex(1, 0, True),
                                  HIndex(4, 5, True)], -1, N),
                                ([HIndex(0, 1), HIndex(2, 0, True)], 0, N_MAX_CAP + 1)):
        clear_direct_caches()
        _prefetch(indices, n_max)
        assert not _HEADS
        with pytest.raises(DomainError):
            (double_direct if isinstance(indices[bad], DoubleIndex) else h_direct)(indices[bad], n_max)


def test_mzv_memory_is_bounded():
    # a pass over n_max-long level arrays holds ~40 MB at 1e6; a blocked one
    # holds a few blocks and the accumulator
    clear_direct_caches()
    tracemalloc.start()
    try:
        mzv_direct((2,) * 9, n_max=10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak


def test_quadruple_agreement():
    for total in range(0, 6):
        for a in range(total + 1):
            b = total - a
            hc = h_closed(a, b)
            hsc = hstar_closed(a, b)
            assert abs(float(hc - h_direct(HIndex(a, b), N).value)) <= 1e-15
            assert abs(float(hsc - h_direct(HIndex(a, b, True), N).value)) <= 1e-15
            assert abs(float(hsc - hstar_pilehrood(a, b, N))) < 1e-6
            assert abs(float(hsc - hstar_closed_via_double(a, b))) < 1e-24
            assert float(hc) > 0
            assert float(hsc) >= float(hc)


def test_h_closed_match_fraction_oracle():
    # Zagier's formulas in Fractions over 80-digit Euler-Maclaurin zeta
    # values, H(n) from Newton's identities instead of pi^2n / (2n+1)!
    tol = F(1, 10 ** 30)
    for total in range(20):
        for a in range(total + 1):
            b = total - a
            for star, closed in ((False, h_closed), (True, hstar_closed)):
                exact = oracles.zagier_h(a, b, star)
                assert abs(closed(a, b).to_fraction() - exact) <= tol * abs(exact), (a, b, star)


def test_pilehrood_weight3(frozen):
    assert approx_abs(hstar_pilehrood(0, 0, N), frozen["zeta3"], F(1, 10 ** 8))
    assert abs(float(hstar_pilehrood(1, 0, N) - hstar_closed(1, 0))) < 1e-6
    assert abs(float(hstar_pilehrood(0, 1, N) - h_direct(HIndex(0, 1, True), N).value)) < 1e-6


def test_sum_identities():
    # the two sides of both sum rules are one ring element, up to _h's cap K = 20
    for k in range(1, 21):
        for lhs, rhs in sum_identities(k):
            assert lhs == rhs, k
    for k in (0, 21):
        with pytest.raises(DomainError):
            sum_identities(k)


def test_zeta_bar_odd_from_hstar():
    # K = 1 collapses to -(3/4) zeta(3)
    assert abs(float(zeta_bar_odd_from_hstar(1) + Fraction(3, 4) * zeta(3))) < 1e-30
    for k in range(1, 21):  # the same exact ring element, rounded once
        got, want = zeta_bar_odd_from_hstar(k), zeta_bar(2 * k + 1)
        assert (got.hi, got.lo) == (want.hi, want.lo), k
    for k in (0, 21):
        with pytest.raises(DomainError):
            zeta_bar_odd_from_hstar(k)


def test_zeta_from_hstar(frozen):
    assert approx_abs(zeta_from_hstar(0, 1), frozen["zeta3"] / 8, F(1, 10 ** 24))
    for (r, s) in ((1, 1), (0, 2)):
        direct = double_direct(DoubleIndex(2 * r + 1, 2 * s, False, True), N).value
        assert abs(float(zeta_from_hstar(r, s) - direct)) < 1e-6
    # zeta(2r+1, 2s-bar) from H* is its closed form, up to the closed forms' weight 39
    for k in range(1, 20):
        for r in range(k):
            got, want = zeta_from_hstar(r, k - r), closed_bar_s(2 * r + 1, 2 * (k - r)).finite
            assert (got.hi, got.lo) == (want.hi, want.lo), (r, k - r)
    for r, s in ((1, 0), (-1, 2), (0, 21), (20, 1)):
        with pytest.raises(DomainError):
            zeta_from_hstar(r, s)


# ---------------------------------------------------------------------------
# generating functions
# ---------------------------------------------------------------------------

def test_reflection_identity():
    for (x, y) in ((F(1, 4), F(1, 3)), (F(1, 2), F(1, 5)), (F(3, 8), F(3, 8))):
        lhs = eval_F(x, y)
        rhs = -sinc_pi(y) * sinc_pi(x) * eval_Fstar(y, x)
        assert abs(float(lhs - rhs)) < 1e-18, (x, y)


def test_eval_f_against_term_series():
    # F(x,y) vs the truncated double series with closed-form coefficients
    x, y = F(1, 4), F(1, 4)
    xv, yv = ExtReal.from_fraction(x), ExtReal.from_fraction(y)
    total = ExtReal(0.0)
    for t in range(0, 6):
        for a in range(t + 1):
            b = t - a
            sgn = 1 if (a + b + 1) % 2 == 0 else -1
            total = total + sgn * h_closed(a, b) * xv ** (2 * a + 2) * yv ** (2 * b)
    assert abs(float(eval_F(x, y) - total)) < 1e-6


def test_diagonal_route(frozen):
    # sum_r zeta(2r+1) x^2r = x^2/(1-x^2) + sum_r (zeta(2r+1) - 1) x^2r, whose
    # terms fall like (x/2)^2r
    x = F(1, 4)
    xv = ExtReal.from_fraction(x)
    acc = ExtReal.from_fraction(x * x / (1 - x * x))
    for r in range(1, 18):
        acc = acc + (zeta(2 * r + 1) - 1) * xv ** (2 * r)
    assert abs(float(eval_F(x, x) + sinc_pi(xv) * acc)) < 1e-32


def test_eval_f_domain_and_zeroes():
    assert float(eval_F(0, F(1, 3))) == 0.0
    assert float(eval_Fstar(F(1, 3), 0)) == 0.0
    # a tiny y: F is continuous in y, and F* = c y^2 + O(y^4) is not 0
    tiny = F(1, 10 ** 70)
    assert approx_abs(eval_F(F(1, 4), tiny), eval_F(F(1, 4), 0), 1e-30)
    ratio = eval_Fstar(F(1, 4), 2 * tiny) / eval_Fstar(F(1, 4), tiny)
    assert approx_abs(ratio, 4, 1e-25)
    with pytest.raises(DomainError):
        eval_F(F(3, 4), F(1, 4))
    with pytest.raises(DomainError):
        eval_Fstar(F(1, 4), F(2, 3))
