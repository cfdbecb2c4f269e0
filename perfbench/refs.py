"""mpmath reference values for every route the benchmark checks.

Nothing here imports eulerlab.  Double Euler sums use exact partial sums plus
a Hurwitz-zeta tail: the inner tail of the sum is expanded asymptotically in
powers of 1/m and every power is summed exactly over m >= M with the Hurwitz
(or alternating Hurwitz) zeta function.  The alternating expansion has terms
~ (2n)!/(pi M)^(2n); with M = 40 and 30 correction terms the truncation error
is below 1e-44, and the table entries agree with a 60-digit, M = 50
computation to the 40 digits stored.  Those values are slow (~20 ms each), so
``python3 perfbench/refs.py`` writes them once to data/double_sums.tsv.

Index convention (as in eulerlab.euler_sums.DoubleIndex): zeta(r, s) is
sum_{m > k >= 1} s_m^m r_k^k m^-s k^-r, where a bar on a slot puts the sign
(-1)^index on that slot's summation variable.
"""
from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import Dict, Sequence, Tuple

import mpmath
from mpmath import mpf

DPS = 45
DATA = Path(__file__).resolve().parent / "data"
DOUBLE_TABLE = DATA / "double_sums.tsv"
WEIGHT_MAX = 40
_M = 40
_TERMS = 30

DoubleKey = Tuple[int, int, int, int]  # (r, s, r_bar, s_bar)


def _q(x) -> mpf:
    f = Fraction(x)
    return mpf(f.numerator) / f.denominator


def zeta_value(k: int, bar: bool = False) -> mpf:
    """zeta(k) or zeta(k-bar) = sum (-1)^n n^-k."""
    with mpmath.workdps(DPS):
        if not bar:
            return +mpmath.zeta(k)
        if k == 1:
            return -mpmath.ln2
        return -(1 - mpf(2) ** (1 - k)) * mpmath.zeta(k)


def _power_sum(sign: int, p: int, m0: int) -> mpf:
    """sum_{m >= m0} sign^m m^-p, exactly (p >= 2, or p = 1 with sign -1)."""
    if sign > 0:
        return mpmath.zeta(p, m0)
    a, b = mpf(m0) / 2, mpf(m0 + 1) / 2
    if p == 1:
        eta = (mpmath.digamma(b) - mpmath.digamma(a)) / 2
    else:
        eta = (mpmath.zeta(p, a) - mpmath.zeta(p, b)) / mpf(2) ** p
    return eta if m0 % 2 == 0 else -eta


def _log_power_sum(sign: int, p: int, m0: int) -> mpf:
    """sum_{m >= m0} sign^m m^-p ln m = -d/dp of _power_sum."""
    if sign > 0:
        return -mpmath.zeta(p, m0, 1)
    a, b = mpf(m0) / 2, mpf(m0 + 1) / 2
    if p == 1:
        eta = (mpmath.digamma(b) - mpmath.digamma(a)) / 2
        # zeta(s, x) = 1/(s-1) - psi(x) - gamma_1(x) (s-1) + ...
        d_eta = -mpmath.ln2 * eta + (mpmath.stieltjes(1, b) - mpmath.stieltjes(1, a)) / 2
    else:
        scale = mpf(2) ** -p
        eta = (mpmath.zeta(p, a) - mpmath.zeta(p, b)) * scale
        d_eta = -mpmath.ln2 * eta + (mpmath.zeta(p, a, 1) - mpmath.zeta(p, b, 1)) * scale
    return -(d_eta if m0 % 2 == 0 else -d_eta)


def double_sum(r: int, s: int, r_bar: bool, s_bar: bool) -> mpf:
    """zeta(r, s) with optional bars, to ~40 digits (convergent indices only)."""
    if not (s_bar or s >= 2):
        raise ValueError("divergent double sum")
    sr = -1 if r_bar else 1
    ss = -1 if s_bar else 1
    with mpmath.workdps(DPS):
        total = mpf(0)
        inner = mpf(0)  # sum_{k < m} sr^k k^-r
        for m in range(1, _M):
            total += ss ** m * inner / mpf(m) ** s
            inner += mpf(sr ** m) / mpf(m) ** r
        if r == 1 and not r_bar:
            # inner partial sum H_{m-1} ~ ln m + gamma - 1/(2m) - sum B_2i/(2i m^2i)
            tail = (_log_power_sum(ss, s, _M) + mpmath.euler * _power_sum(ss, s, _M)
                    - _power_sum(ss, s + 1, _M) / 2)
            for i in range(1, _TERMS):
                tail -= mpmath.bernoulli(2 * i) / (2 * i) * _power_sum(ss, s + 2 * i, _M)
            return total + tail
        # inner partial sum = Z_r - R(m), R(m) the inner tail from m on
        tail = zeta_value(r, r_bar) * _power_sum(ss, s, _M)
        if not r_bar:
            # R(m) = zeta(r, m) ~ m^(1-r)/(r-1) + m^-r/2 + sum B_2i/(2i)! (r)_(2i-1) m^(1-r-2i)
            tail -= _power_sum(ss, s + r - 1, _M) / (r - 1) + _power_sum(ss, s + r, _M) / 2
            for i in range(1, _TERMS):
                c = mpmath.bernoulli(2 * i) / mpmath.factorial(2 * i) * mpmath.rf(r, 2 * i - 1)
                tail -= c * _power_sum(ss, s + r - 1 + 2 * i, _M)
        else:
            # R(m) = (-1)^m eta(r, m), eta(r, m) ~ sum_k a_k (r)_k m^(-r-k) from
            # 1/(1+e^-t) = 1/2 + sum_n (2^2n - 1) B_2n / (2n)! t^(2n-1)
            tau = -ss
            tail -= _power_sum(tau, s + r, _M) / 2
            for n in range(1, _TERMS):
                a = (mpf(4) ** n - 1) * mpmath.bernoulli(2 * n) / mpmath.factorial(2 * n)
                tail -= a * mpmath.rf(r, 2 * n - 1) * _power_sum(tau, s + r + 2 * n - 1, _M)
        return total + tail


def double_keys():
    """Every convergent (r, s, r_bar, s_bar) with 2 <= r + s <= WEIGHT_MAX."""
    for k in range(2, WEIGHT_MAX + 1):
        for r in range(1, k):
            s = k - r
            for r_bar in (0, 1):
                for s_bar in (0, 1):
                    if s_bar or s >= 2:
                        yield (r, s, r_bar, s_bar)


def load_double_table() -> Dict[DoubleKey, str]:
    table = {}
    with open(DOUBLE_TABLE, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            r, s, rb, sb, value = line.split()
            table[(int(r), int(s), int(rb), int(sb))] = value
    return table


def write_double_table() -> int:
    lines = ["# r s r_bar s_bar value (40 significant digits; perfbench/refs.py)"]
    for key in double_keys():
        lines.append(" ".join(map(str, key)) + " " + mpmath.nstr(double_sum(*key), 40))
    DOUBLE_TABLE.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(lines) - 1


def _h_single(n: int, star: bool) -> mpf:
    if n == 0:
        return mpf(1)
    if star:  # zeta*({2}^n) = -2 zeta(2n-bar)
        return -2 * zeta_value(2 * n, True)
    return mpmath.pi ** (2 * n) / mpmath.factorial(2 * n + 1)  # zeta({2}^n)


def h_sum(a: int, b: int, star: bool) -> mpf:
    """H(a,b) = zeta({2}^a, 3, {2}^b) or its star variant, by Zagier's
    binomial formula (Annals of Math. 175, 2012) in 45-digit arithmetic."""
    k = a + b + 1
    with mpmath.workdps(DPS):
        total = mpf(0)
        for r in range(1, k + 1):
            z, zb = zeta_value(2 * r + 1), zeta_value(2 * r + 1, True)
            if star:
                c = (mpmath.binomial(2 * r, 2 * a) - (1 if r == a else 0)) * z
                total -= 2 * (c + mpmath.binomial(2 * r, 2 * b + 1) * zb) * _h_single(k - r, True)
            else:
                c = mpmath.binomial(2 * r, 2 * a + 2) * z + mpmath.binomial(2 * r, 2 * b + 1) * zb
                total += 2 * (-1) ** r * c * _h_single(k - r, False)
        return total


def mzv_equal(s: int, depth: int) -> mpf:
    """zeta({s}^depth) = e_depth(n^-s): Newton's identities on p_j = zeta(s j)."""
    with mpmath.workdps(DPS):
        e = [mpf(1)]
        for n in range(1, depth + 1):
            e.append(sum((-1) ** (i - 1) * e[n - i] * mpmath.zeta(s * i)
                         for i in range(1, n + 1)) / n)
        return e[depth]


def is_dixon(upper: Sequence, lower: Sequence) -> bool:
    """3F2(a, b, c; 1+a-b, 1+a-c; 1): Dixon's well-poised shape."""
    if len(upper) != 3 or len(lower) != 2:
        return False
    a, b, c = (Fraction(u) for u in upper)
    return (Fraction(lower[0]), Fraction(lower[1])) == (1 + a - b, 1 + a - c)


def hyp(upper: Sequence, lower: Sequence, x: int) -> mpf:
    """(q+1)Fq(upper; lower; x) at x = +1 or -1 (convergent parameters).

    At +1, 2F1 uses Gauss's theorem and 3F2 must have Dixon's shape; at -1
    the series goes to mpmath's hypergeometric summation.
    """
    with mpmath.workdps(DPS):
        up = [_q(u) for u in upper]
        lo = [_q(b) for b in lower]
        g = mpmath.gamma
        if x == 1 and len(up) == 2:
            a, b = up
            c = lo[0]
            return g(c) * g(c - a - b) / (g(c - a) * g(c - b))
        if x == 1 and is_dixon(upper, lower):
            a, b, c = up
            h = a / 2
            return (g(1 + h) * g(1 + a - b) * g(1 + a - c) * g(1 + h - b - c)
                    / (g(1 + a) * g(1 + h - b) * g(1 + h - c) * g(1 + a - b - c)))
        if x == 1:
            raise ValueError("3F2 at +1 is referenced only in Dixon's shape")
        return +mpmath.hyper(up, lo, -1)


def ln_gamma(x) -> mpf:
    with mpmath.workdps(DPS):
        return mpmath.loggamma(_q(x))


if __name__ == "__main__":
    print(f"wrote {write_double_table()} double sums")
