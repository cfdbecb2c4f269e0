"""Independent oracles used to freeze expected values.

Everything here is deliberately separate from the library's own code paths:
exact rational series with truncation bounds for the constants and for
sin(pi y)/(pi y), literal nested loops (plus elementary alternating-series
averaging) for the double sums, Pascal's triangle for binomials, the stdlib
`decimal` module at 60 digits for exp and ln, Euler-Maclaurin in exact
rationals (Bernoulli numbers by the Akiyama-Tanigawa table) for Euler's
constant and zeta(k), and closed forms in exact rationals for hypergeometric
sums.
"""
from __future__ import annotations

import math
from decimal import Context, Decimal
from fractions import Fraction
from functools import lru_cache

_DEC60 = Context(prec=60)


@lru_cache(maxsize=None)
def machin_pi(digits: int = 45) -> Fraction:
    """pi = 16 atan(1/5) - 4 atan(1/239), exact rationals, alternating bound."""
    bound = Fraction(1, 10 ** (digits + 5))

    def atan_inv(q: int) -> Fraction:
        total = Fraction(0)
        k = 0
        while True:
            term = Fraction(1, (2 * k + 1) * q ** (2 * k + 1))
            if term < bound:
                return total
            total += -term if k % 2 else term
            k += 1

    return 16 * atan_inv(5) - 4 * atan_inv(239)


def two_term_pi(digits: int = 45) -> Fraction:
    """pi = 4 (atan(1/2) + atan(1/3)): a second, distinct arctangent route."""
    bound = Fraction(1, 10 ** (digits + 5))

    def atan_inv(q: int) -> Fraction:
        total = Fraction(0)
        k = 0
        while True:
            term = Fraction(1, (2 * k + 1) * q ** (2 * k + 1))
            if term < bound:
                return total
            total += -term if k % 2 else term
            k += 1

    return 4 * (atan_inv(2) + atan_inv(3))


def atanh_ln2(digits: int = 45) -> Fraction:
    """ln 2 = 2 atanh(1/3) in exact rationals."""
    bound = Fraction(1, 10 ** (digits + 5))
    total = Fraction(0)
    k = 0
    while True:
        term = Fraction(2, (2 * k + 1) * 3 ** (2 * k + 1))
        if term < bound:
            return total
        total += term
        k += 1


def apery_zeta3(terms: int = 80) -> Fraction:
    """zeta(3) = (5/2) sum_{n>=1} (-1)^(n-1) / (n^3 C(2n,n)).

    Geometric convergence (~4^-n); 80 terms give ~54 digits.
    """
    total = Fraction(0)
    for n in range(1, terms + 1):
        term = Fraction(1, n ** 3 * math.comb(2 * n, n))
        total += term if n % 2 else -term
    return Fraction(5, 2) * total


def pi_squared_over_6(digits: int = 45) -> Fraction:
    return machin_pi(digits) ** 2 / 6


def pascal_binom(n: int, k: int) -> int:
    """C(n, k) from Pascal's triangle, no factorials."""
    if k < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def brute_double_sum(r: int, s: int, r_bar: bool, s_bar: bool, n: int = 4000) -> float:
    """Literal nested double sum in plain floats.

    Alternating outer series are finished with one round of partial-sum
    averaging, unbarred outer with the crude integral tail; good to ~1e-7,
    which is all the cross-checks ask of it.
    """
    inner = 0.0
    values = []
    total = 0.0
    for m in range(2, n + 1):
        j = m - 1
        inner += ((-1) ** j if r_bar else 1.0) / j ** r
        term = ((-1) ** m if s_bar else 1.0) / m ** s * inner
        total += term
        values.append(total)
    if s_bar:
        return 0.5 * (values[-1] + values[-2])
    limit = inner if not r_bar else inner  # running inner sum at n
    return total + limit * (n ** (1 - s) / (s - 1) - 0.5 * n ** -s)


def harmonic_alternating(terms: int) -> list:
    """Partial sums of sum (-1)^m / m, for bracketing checks."""
    out = []
    total = 0.0
    for m in range(1, terms + 1):
        total += (-1) ** m / m
        out.append(total)
    return out


def decimal_exp(x: Fraction) -> Fraction:
    """exp(x) correctly rounded to 60 significant digits by `decimal`."""
    return Fraction(_DEC60.exp(_DEC60.divide(Decimal(x.numerator), Decimal(x.denominator))))


def decimal_ln(x: Fraction, prec: int = 60) -> Fraction:
    """ln(x), x > 0, correctly rounded to `prec` significant digits by
    `decimal` (near x = 1 the argument needs more than 60)."""
    ctx = Context(prec=prec)
    return Fraction(ctx.ln(ctx.divide(Decimal(x.numerator), Decimal(x.denominator))))


def ln_factorial(n: int) -> Fraction:
    """ln n! = ln Gamma(n + 1) to 60 significant digits by `decimal`."""
    return Fraction(_DEC60.ln(Decimal(math.factorial(n))))


def hyp_one_b_c(b: Fraction, c: Fraction) -> Fraction:
    """2F1(1, b; c; 1) = (c - 1) / (c - 1 - b) exactly, for c - 1 - b > 0.

    The terms telescope: with u_n = (b)_n / (c - 1)_n,
    (b)_n / (c)_n = (c - 1) / (c - 1 - b) * (u_n - u_(n+1)), and u_n -> 0.
    """
    return (c - 1) / (c - 1 - b)


@lru_cache(maxsize=None)
def bernoulli_table(count: int) -> tuple:
    """B_0 .. B_(count-1) by the Akiyama-Tanigawa table (B_1 = +1/2 here;
    every caller uses only even indices)."""
    row, bern = [], []
    for m in range(count):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        bern.append(row[0])
    return tuple(bern)


def euler_gamma(n: int = 1000, digits: int = 40) -> Fraction:
    """Euler's constant to `digits` digits by Euler-Maclaurin at N = n:
    gamma = H_N - ln N - 1/(2N) + sum_k B_2k / (2k N^2k), with H_N exact and
    ln N from `decimal`."""
    ctx = Context(prec=digits + 10)
    bound = Fraction(1, 10 ** (digits + 5))
    harmonic = sum(Fraction(1, m) for m in range(1, n + 1))
    total = harmonic - Fraction(ctx.ln(Decimal(n))) - Fraction(1, 2 * n)
    bern = bernoulli_table(2 * digits + 2)
    for k in range(1, digits + 1):
        term = bern[2 * k] / (2 * k * Fraction(n) ** (2 * k))
        total += term
        if abs(term) < bound:
            return total
    raise ArithmeticError("Euler-Maclaurin terms did not fall below the bound")


def zeta(k: int, n: int = 25, digits: int = 40) -> Fraction:
    """zeta(k), k >= 2, to `digits` digits by Euler-Maclaurin at N = n in exact
    rationals: sum_{m<N} m^-k + N^(1-k)/(k-1) + N^-k/2
    + sum_j B_2j/(2j)! k (k+1) ... (k+2j-2) N^(1-k-2j), cut at the first
    correction below the bound (the remainder is below that correction)."""
    bound = Fraction(1, 10 ** (digits + 5))
    total = sum(Fraction(1, m ** k) for m in range(1, n))
    total += Fraction(1, (k - 1) * n ** (k - 1)) + Fraction(1, 2 * n ** k)
    bern = bernoulli_table(2 * digits + 2)
    rising = k  # k (k+1) ... (k+2j-2)
    for j in range(1, digits + 1):
        term = bern[2 * j] / math.factorial(2 * j) * rising / Fraction(n) ** (k + 2 * j - 1)
        total += term
        if abs(term) < bound:
            return total
        rising *= (k + 2 * j - 1) * (k + 2 * j)
    raise ArithmeticError("Euler-Maclaurin terms did not fall below the bound")


def sinc_pi(y: Fraction, digits: int = 45) -> Fraction:
    """sin(pi y) / (pi y) for |y| <= 1/2 in exact rationals: the Taylor series
    sum (-1)^n z^2n / (2n+1)!, z = pi y with pi from `machin_pi`, cut once a
    term drops below 10^-(digits+5); its terms fall monotonically (z^2 < 6),
    so the alternating-series bound holds."""
    z2 = (machin_pi(digits) * y) ** 2
    bound = Fraction(1, 10 ** (digits + 5))
    total = term = Fraction(1)
    n = 1
    while term >= bound:
        term = term * z2 / ((2 * n) * (2 * n + 1))
        total += -term if n % 2 else term
        n += 1
    return total
