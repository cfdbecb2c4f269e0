"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass lines and the measured extremes.
"""
import math
import random
import time
from fractions import Fraction

from eulerlab.hpreal import ExtReal, bernoulli_first, const_pi, ln_dd
from eulerlab.zeta_core import zeta, zeta_bar
from eulerlab import euler_sums as es
from eulerlab import genfun
from eulerlab import hypergeom as hg
from eulerlab import verify
from eulerlab import zagier as zg
from conftest import approx_abs, gap
import oracles

F = Fraction
N = 100_000

def _report(name: str, detail: str):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def test_criterion_1_closed_vs_direct():
    """All four closed forms match direct sums within 4e-16 absolute, and
    within the direct sum's own tail_estimate, for every valid (r,s): at
    every odd weight k <= 39 at verify --fast's n_max = 1e3 (where the tail
    carries the most weight), and at every odd k <= 15 at 1e5; under 2 min."""
    start = time.monotonic()
    worst = {}
    cases = 0
    for n_max, k_max in ((verify.FAST_N_MAX, 39), (N, 15)):
        worst[n_max] = 0.0
        for k in range(3, k_max + 1, 2):
            for r in range(1, k):
                s = k - r
                for (rb, sb), (_, fn) in es.CLOSED_FORMS.items():
                    idx = es.DoubleIndex(r, s, rb, sb)
                    if not idx.convergent:
                        continue
                    direct = es.double_direct(idx, n_max)
                    closed = fn(r, s).finite
                    err = abs(float(closed - direct.value))
                    worst[n_max] = max(worst[n_max], err)
                    cases += 1
                    assert err <= 4e-16, (n_max, k, r, s, rb, sb, err)
                    assert err <= float(direct.tail_estimate), (n_max, k, r, s, rb, sb, err)
    elapsed = time.monotonic() - start
    assert elapsed <= 120.0
    detail = ", ".join(f"worst {w:.2e} at n_max {n}" for n, w in worst.items())
    _report("1 closed-vs-direct", f"{cases} cases, {detail}, {elapsed:.1f}s")


def test_criterion_2_stuffle_closed_consistency():
    """Closed forms substituted into both stuffle relations: residual <= 1e-24
    for all odd k <= 15, no direct sums involved."""
    worst = 0.0
    for k in range(3, 16, 2):
        for r in range(1, k):
            s = k - r
            for which in ("mixed", "alternating"):
                lhs, rhs = genfun.stuffle_closed_check(r, s, which)
                m = float(max(gap((lhs, rhs)), gap((lhs, rhs), 1)))
                worst = max(worst, m)
                assert m <= 1e-24, (k, r, s, which, m)
    _report("2 stuffle-closed", f"worst {worst:.2e}")


def test_criterion_3_t_coefficients_vanish():
    """T-coefficient of every convergent closed-form evaluation <= 1e-24."""
    worst = 0.0
    for k in range(3, 16, 2):
        for r in range(1, k):
            s = k - r
            for (rb, sb), (_, fn) in es.CLOSED_FORMS.items():
                if es.DoubleIndex(r, s, rb, sb).convergent:
                    t = abs(float(fn(r, s).tcoef))
                    worst = max(worst, t)
                    assert t <= 1e-24, (k, r, s, rb, sb, t)
    _report("3 T-cancellation", f"worst {worst:.2e}")


def test_criterion_4_generating_function_relations():
    """All three relation families pass for k in {3,...,9} (reductions odd
    only): finite parts <= 1e-6, T-parts <= 1e-24."""
    worst_f = worst_t = 0.0
    for k in range(3, 10):
        checks = [genfun.verify_relations("stuffle", k, N),
                  genfun.verify_relations("shuffle", k, N)]
        if k % 2 == 1:
            checks.append(genfun.verify_relations("reduction", k, N))
        for lhs, rhs in checks:
            finite = float(max(map(gap, zip(lhs, rhs))))
            tpart = float(max(gap(pair, 1) for pair in zip(lhs, rhs)))
            worst_f = max(worst_f, finite)
            worst_t = max(worst_t, tpart)
            assert finite <= 1e-6 and tpart <= 1e-24, (k, finite, tpart)
    _report("4 genfun-relations", f"worst finite {worst_f:.2e}, worst T {worst_t:.2e}")


def test_criterion_5_summation_formulas():
    """The four fixed-weight summation formulas hold within 1e-6 for k in
    {3,...,8}."""
    worst = 0.0
    for k in range(3, 9):
        for which in es.SUM_FORMULAS:
            r = float(gap(es.sum_formula_check(k, which, N)))
            worst = max(worst, r)
            assert r <= 1e-6, (k, which, r)
    _report("5 summation-formulas", f"worst {worst:.2e}")


def test_criterion_6_hypergeometric():
    """Exact zeros for the two terminating identities on 200 random rational
    sets each (n <= 6); 1e-18 on the 20-point grids for the three numeric
    summations; 1e-10 / 1e-8 for the nested-sum identity at s = 1 / s = 2 on
    5 sets each; all within one minute."""
    start = time.monotonic()
    rng = random.Random(20240817)
    done = 0
    while done < 200:
        a = F(rng.randint(-8, 12), rng.randint(1, 6))
        b = F(rng.randint(-8, 12), rng.randint(1, 6))
        c = F(rng.randint(-8, 12), rng.randint(1, 6))
        n = rng.randint(0, 6)
        try:
            assert gap(hg.check_saalschutz(a, b, c, n)) == 0
            assert gap(hg.check_poch_ratio(a, b, c, n)) == 0
        except hg.DomainError:
            continue
        done += 1

    gauss_grid = [(F(1), F(1), F(3)), (F(1, 2), F(1, 2), F(2)), (F(1, 3), F(1, 4), F(5, 3)),
                  (F(3, 4), F(1, 5), F(2)), (F(1, 2), F(1, 3), F(7, 4)), (F(5, 4), F(1, 2), F(11, 4)),
                  (F(2, 3), F(2, 3), F(7, 3)), (F(1), F(1, 2), F(5, 2)), (F(3, 2), F(1, 4), F(11, 4)),
                  (F(1, 5), F(1, 5), F(6, 5)), (F(7, 4), F(1, 2), F(13, 4)), (F(1, 2), F(1, 2), F(3, 2)),
                  (F(2), F(1, 3), F(10, 3)), (F(1, 6), F(1, 3), F(3, 2)), (F(4, 3), F(3, 4), F(3)),
                  (F(1, 8), F(1, 8), F(9, 8)), (F(5, 6), F(5, 6), F(8, 3)), (F(1), F(2), F(4)),
                  (F(3, 2), F(3, 2), F(4)), (F(1, 4), F(3, 4), F(2))]
    worst_g = float(max(gap(hg.check_gauss(a, b, c)) for a, b, c in gauss_grid))
    assert worst_g <= 1e-18

    kummer_grid = [(F(1), F(1, 2)), (F(2), F(1, 2)), (F(1, 2), F(1, 4)), (F(3, 2), F(1, 3)),
                   (F(3), F(3, 4)), (F(5, 2), F(-1, 2)), (F(1, 3), F(1, 6)), (F(4), F(1, 5)),
                   (F(7, 4), F(-1, 4)), (F(5, 4), F(2, 3)), (F(2, 3), F(-1, 3)), (F(3, 2), F(3, 5)),
                   (F(9, 4), F(1, 2)), (F(1, 5), F(1, 10)), (F(3), F(-1)), (F(7, 2), F(2, 5)),
                   (F(5), F(1, 2)), (F(8, 3), F(5, 6)), (F(11, 4), F(-3, 4)), (F(6, 5), F(3, 10))]
    worst_k = float(max(gap(hg.check_kummer_type(a, b)) for a, b in kummer_grid))
    assert worst_k <= 1e-18

    thm3_grid = [(F(1), F(1, 2), F(1, 2)), (F(2), F(1, 2), F(1, 2)), (F(1), F(1, 3), F(1, 4)),
                 (F(1, 2), F(1, 5), F(1, 5)), (F(3, 2), F(1, 2), F(1, 3)), (F(3), F(1), F(1, 2)),
                 (F(5, 2), F(3, 4), F(1, 2)), (F(2), F(2, 3), F(1, 3)), (F(1, 3), F(1, 8), F(1, 8)),
                 (F(4), F(5, 4), F(3, 4)), (F(1), F(-1, 2), F(1, 2)), (F(3, 4), F(1, 4), F(1, 4)),
                 (F(2), F(1, 4), F(3, 4)), (F(5), F(2), F(1, 2)), (F(7, 2), F(1), F(1)),
                 (F(1, 4), F(1, 10), F(1, 10)), (F(6), F(5, 2), F(1, 2)), (F(3), F(1, 2), F(3, 2)),
                 (F(9, 4), F(1, 2), F(7, 8)), (F(5, 3), F(1, 3), F(2, 3))]
    worst_d = float(max(gap(hg.check_dougall_limit(a, b, c)) for a, b, c in thm3_grid))
    assert worst_d <= 1e-18

    s1_sets = [(F(1), (F(1, 3), F(1, 3)), (F(1, 4), F(1, 4))),
               (F(1), (F(1, 4), F(1, 5)), (F(1, 4), F(1, 5))),
               (F(2), (F(1, 2), F(1, 3)), (F(1, 2), F(1, 4))),
               (F(3, 2), (F(1, 3), F(1, 4)), (F(1, 5), F(1, 6))),
               (F(1, 2), (F(1, 8), F(1, 8)), (F(1, 8), F(1, 8)))]
    worst_s1 = float(max(gap(hg.check_andrews_limit(1, a, bs, cs)) for a, bs, cs in s1_sets))
    assert worst_s1 <= 1e-30

    s2_sets = [(F(1), (F(1, 5),) * 3, (F(1, 5),) * 3),
               (F(1), (F(1, 6), F(1, 5), F(1, 4)), (F(1, 6), F(1, 5), F(1, 4))),
               (F(2), (F(1, 4),) * 3, (F(1, 4),) * 3),
               (F(3, 2), (F(1, 5), F(1, 6), F(1, 7)), (F(1, 5), F(1, 6), F(1, 7))),
               (F(1, 2), (F(1, 10),) * 3, (F(1, 10),) * 3)]
    worst_s2 = float(max(gap(hg.check_andrews_limit(2, a, bs, cs)) for a, bs, cs in s2_sets))
    assert worst_s2 <= 1e-30

    elapsed = time.monotonic() - start
    assert elapsed <= 60.0
    _report("6 hypergeometric",
            f"gauss {worst_g:.1e}, kummer {worst_k:.1e}, dougall {worst_d:.1e}, "
            f"nested s1 {worst_s1:.1e} s2 {worst_s2:.1e}, {elapsed:.1f}s")


def test_criterion_7_zagier_suite():
    """Quadruple agreement for a+b <= 5 (1e-15 against the nested direct
    sums, 1e-6 against the Pilehrood double-sum route, 1e-24 closed-vs-closed);
    the weight-3 values, the fixed-weight sum identities, the odd
    alternating-zeta extraction, and the double-sum extraction all at 1e-24."""
    worst_direct = worst_closed = 0.0
    for total in range(0, 6):
        for a in range(total + 1):
            b = total - a
            hc, hsc = zg.h_closed(a, b), zg.hstar_closed(a, b)
            e1 = abs(float(hc - zg.h_direct(zg.HIndex(a, b), N).value))
            e2 = abs(float(hsc - zg.h_direct(zg.HIndex(a, b, True), N).value))
            e3 = abs(float(hsc - zg.hstar_pilehrood(a, b, N)))
            e4 = abs(float(hsc - zg.hstar_closed_via_double(a, b)))
            worst_direct = max(worst_direct, e1, e2, e3)
            worst_closed = max(worst_closed, e4)
            assert max(e1, e2) <= 1e-15 and e3 <= 1e-6 and e4 <= 1e-24, (a, b)
    assert abs(float(zg.h_closed(0, 0) - zeta(3))) <= 1e-24
    assert abs(float(zg.hstar_closed(0, 0) - zeta(3))) <= 1e-24
    for k in range(1, 7):
        rh, rhs = map(gap, zg.sum_identities(k))
        assert rh <= 1e-24 and rhs <= 1e-24, k
        assert abs(float(zg.zeta_bar_odd_from_hstar(k) - zeta_bar(2 * k + 1))) <= 1e-24, k
    assert abs(float(zg.zeta_from_hstar(0, 1) - zeta(3) / 8)) <= 1e-24
    _report("7 zagier-suite",
            f"worst direct-involving {worst_direct:.2e}, worst closed-closed {worst_closed:.2e}")


def test_criterion_8_spot_values(frozen):
    """Four spot values reproduced to 25 digits against the pre-build
    independent oracles (exact-rational arctangent / alternating-harmonic /
    binomial-central series)."""
    tol = F(1, 10 ** 25)
    z2_oracle = oracles.pi_squared_over_6()
    z3_oracle = oracles.apery_zeta3()
    ln2_oracle = oracles.atanh_ln2()
    assert approx_abs(zeta(2), z2_oracle, tol)
    assert approx_abs(es.closed_bar_s(1, 2).finite, z3_oracle / 8, tol)
    assert approx_abs(zeta_bar(3), -F(3, 4) * z3_oracle, tol)
    assert approx_abs(zeta_bar(1), -ln2_oracle, tol)
    _report("8 spot-values", "zeta(2), zeta(1,2-bar), zeta(3-bar), zeta_bar(1) at 25 digits")


def test_criterion_9_kernel_properties():
    """Double-double arithmetic <= 2^-104 relative on 1e4 random cases;
    the log-gamma functional equation <= 1e-28; the Bernoulli recurrence
    exact to index 60."""
    bound = F(1, 2 ** 104)
    rng = random.Random(424242)
    worst = F(0)
    for _ in range(5000):
        a = F(rng.randint(-2 ** 40, 2 ** 40), 2 ** rng.randint(0, 20))
        b = F(rng.randint(-2 ** 40, 2 ** 40), 2 ** rng.randint(0, 20))
        if b == 0:
            continue
        da, db = ExtReal.from_fraction(a), ExtReal.from_fraction(b)
        for exact, got in ((a + b, da + db), (a - b, da - db),
                           (a * b, da * db), (a / b, da / db)):
            err = abs(got.to_fraction() - exact)
            worst = max(worst, err / abs(exact) if exact else err)
    for _ in (range(5000)):
        a = F(rng.randint(1, 2 ** 40), rng.randint(1, 2 ** 20))
        b = F(rng.randint(1, 2 ** 40), rng.randint(1, 2 ** 20))
        da, db = ExtReal.from_fraction(a), ExtReal.from_fraction(b)
        for exact, got in ((a * b, da * db), (a / b, da / db), (a + b, da + db)):
            worst = max(worst, abs(got.to_fraction() - exact) / exact)
    assert worst <= bound

    worst_lg = 0.0
    for x in (0.5, 1.5, float(const_pi()), 10.0):
        res = hg.ln_gamma(ExtReal(x) + 1) - hg.ln_gamma(ExtReal(x)) - ln_dd(ExtReal(x))
        worst_lg = max(worst_lg, abs(float(res)))
    assert worst_lg <= 1e-28

    for n in range(1, 61):
        total = sum(F(math.comb(n + 1, j)) * bernoulli_first(j) for j in range(n + 1))
        assert total == 0
    _report("9 kernel", f"dd worst {float(worst):.2e} (bound {float(bound):.2e}), "
                        f"ln-gamma worst {worst_lg:.2e}, Bernoulli exact to 60")
