"""Independent oracles used to freeze expected values.

Everything here is deliberately separate from the library's own code paths:
exact rational series with truncation bounds for the constants and for
sin(pi y)/(pi y), literal nested loops (plus elementary alternating-series
averaging) for the double sums, Pascal's triangle for binomials, the stdlib
`decimal` module at 60 digits for exp and ln, Euler-Maclaurin in exact
rationals (Bernoulli numbers by the Akiyama-Tanigawa table) for Euler's
constant and zeta(k), and closed forms in exact rationals for hypergeometric
sums, for Euler's odd-weight double sums and for Zagier's H(a,b) / H*(a,b),
the double-double nearest an exact Fraction, and decimal printing by way of
one normalised Fraction.
The stuffle and shuffle relations of one product are the paper's displayed
coefficient formulas as ring expressions over the library's ZetaPoly, written
term by term, apart from the generating-function table that genfun reads
them from; their double sums are supplied by the caller.  `ring_part`
evaluates a ring element from its collected terms, one Fraction per monomial
over the library's monomial values, apart from ZetaPoly's exact parts.
"""
from __future__ import annotations

import math
from decimal import Context, Decimal
from fractions import Fraction
from functools import lru_cache

from eulerlab.hpreal import ExtReal
from eulerlab.zeta_core import ZetaPoly, _monomial, zeta_reg

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


@lru_cache(maxsize=None)
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


def bernoulli_recurrence(n: int) -> tuple:
    """B_0 .. B_n (B_1 = -1/2) by sum_{j<=m} C(m+1, j) B_j = 0, one Fraction
    per step."""
    bern = [Fraction(1)]
    for m in range(1, n + 1):
        bern.append(-sum(math.comb(m + 1, j) * bern[j] for j in range(m)) / (m + 1))
    return tuple(bern)


def terminating_sum(upper, lower, argument: int) -> Fraction:
    """sum_n argument^n prod (u)_n / (n! prod (l)_n) for a series with a
    nonpositive integer upper parameter, term by term in Fractions, each term
    the previous one times its parameters' next factors."""
    stop = min(-u.numerator for u in upper if u.denominator == 1 and u <= 0)
    term = total = Fraction(1)
    for n in range(stop):
        for u in upper:
            term *= u + n
        for l in lower:
            term /= l + n
        term = term * argument / (n + 1)
        total += term
    return total


def andrews_diagonals(a: Fraction, bs, cs, count: int) -> list:
    """D(0) .. D(count-1) of the s-fold sum on the right of the Andrews limit
    (s = len(bs) - 1), from its definition in Fractions: level l's diagonals
    f_l(n) = G_l(n) sum_j f_(l-1)(j) (rho_l)_(n-j) / (n-j)!, with
    rho_l = 1+a-b_(l-1)-c_(l-1), G_l(n) = (b_l)_n (c_l)_n / ((1+a-b_(l-1))_n
    (1+a-c_(l-1))_n) and f_0 = 1, 0, 0, ...; D(n) = f_s(n)."""
    f = [Fraction(1)] + [Fraction(0)] * (count - 1)
    for l in range(1, len(bs)):
        rho, u, v = 1 + a - bs[l - 1] - cs[l - 1], 1 + a - bs[l - 1], 1 + a - cs[l - 1]
        rising, g = [Fraction(1)], [Fraction(1)]
        for k in range(1, count):
            rising.append(rising[-1] * (rho + k - 1) / k)
            g.append(g[-1] * (bs[l] + k - 1) * (cs[l] + k - 1) / ((u + k - 1) * (v + k - 1)))
        f = [g[n] * sum(f[j] * rising[n - j] for j in range(n + 1)) for n in range(count)]
    return f


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


def nearest_double_double(f: Fraction) -> tuple:
    """(hi, lo) of the double-double nearest f: hi = float(f), then the exact
    remainder f - hi rounded to a double, each by Python's correctly rounded
    Fraction -> float conversion."""
    hi = float(f)
    return hi, float(f - Fraction(hi))


# ---------------------------------------------------------------------------
# Decimal printing in Fractions
# ---------------------------------------------------------------------------

def to_decimal(x, digits: int) -> str:
    """x rounded half-even to `digits` significant digits, by way of one
    normalised Fraction (ints exactly, an ExtReal as Fraction(hi) +
    Fraction(lo), a float exactly): the decimal exponent from the digit
    counts of numerator and denominator, corrected by exact comparisons,
    then one division.  Fixed-point form for exponents in [-5, digits),
    scientific otherwise."""
    f = x.to_fraction() if hasattr(x, "to_fraction") else Fraction(x)
    if f == 0:
        return "0." + "0" * (digits - 1) if digits > 1 else "0"
    sign = "-" if f < 0 else ""
    f = abs(f)
    num, den = f.numerator, f.denominator
    e10 = len(str(num)) - len(str(den))
    while 10 ** max(e10, 0) * den > num * 10 ** max(-e10, 0):
        e10 -= 1
    while 10 ** max(e10 + 1, 0) * den <= num * 10 ** max(-(e10 + 1), 0):
        e10 += 1
    shift = digits - 1 - e10
    if shift >= 0:
        q, r = divmod(num * 10 ** shift, den)
        d = den
    else:
        d = den * 10 ** (-shift)
        q, r = divmod(num, d)
    if 2 * r > d or (2 * r == d and q % 2 == 1):
        q += 1
    if q >= 10 ** digits:
        q //= 10
        e10 += 1
    ds = str(q).rjust(digits, "0")
    if -5 <= e10 < digits:
        if e10 >= 0:
            ip, fp = ds[: e10 + 1], ds[e10 + 1:]
            return sign + (ip + "." + fp if fp else ip)
        return sign + "0." + "0" * (-e10 - 1) + ds
    return sign + ds[0] + "." + ds[1:] + f"e{e10:+03d}"


# ---------------------------------------------------------------------------
# Euler's and Zagier's closed forms in Fractions, from 80-digit zeta values
# ---------------------------------------------------------------------------

_ORACLE_BITS = 320


def _round_bits(x: Fraction) -> Fraction:
    """x to the nearest multiple of 2^-320, so that products stay small."""
    return Fraction(round(x * (1 << _ORACLE_BITS)), 1 << _ORACLE_BITS)


@lru_cache(maxsize=None)
def zeta_80(k: int) -> Fraction:
    """zeta(k), even or odd k >= 2, to 80 digits by `zeta` (Euler-Maclaurin
    at N = 60) -- never as a rational times pi^k."""
    return _round_bits(zeta(k, n=60, digits=80))


def _reg_zeta(w: int, bar: bool):
    """Regularized zeta(w) or zeta(w-bar) as (finite, T-coefficient)."""
    if w == 0:
        return Fraction(-1, 2), Fraction(0)
    if w == 1:
        return (_round_bits(-atanh_ln2(80)), Fraction(0)) if bar else (Fraction(0), Fraction(1))
    z = zeta_80(w)
    return (-(1 - Fraction(1, 2 ** (w - 1))) * z if bar else z), Fraction(0)


def _reg_mul(a, b):
    assert a[1] == 0 or b[1] == 0, "T*T"
    return a[0] * b[0], a[0] * b[1] + a[1] * b[0]


def euler_double(r: int, s: int, r_bar: bool, s_bar: bool) -> Fraction:
    """Finite part (T := 0) of zeta(r, s) with bars, odd r+s, by Euler's
    formula: with x = r_bar xor s_bar and zeta(w; b) = zeta(w-bar) if b,
    -1/2 zeta(k; x) + [s even] zeta(r; r_bar) zeta(s; s_bar)
    + (-1)^r sum_l [C(k-2l-1, r-1) zeta(k-2l; r_bar)
                    + C(k-2l-1, s-1) zeta(k-2l; s_bar)] zeta(2l; x)."""
    k, x = r + s, r_bar != s_bar
    total = -_reg_zeta(k, x)[0] / 2
    if s % 2 == 0:
        total += _reg_mul(_reg_zeta(r, r_bar), _reg_zeta(s, s_bar))[0]
    sign = -1 if r % 2 else 1
    for l in range((k - 1) // 2 + 1):
        even = _reg_zeta(2 * l, x)
        for c, bar in ((pascal_binom(k - 2 * l - 1, r - 1), r_bar),
                       (pascal_binom(k - 2 * l - 1, s - 1), s_bar)):
            if c:
                total += sign * c * _reg_mul(_reg_zeta(k - 2 * l, bar), even)[0]
    return total


@lru_cache(maxsize=None)
def h_single(n: int) -> Fraction:
    """H(n) = zeta({2}^n), the n-th elementary symmetric function of 1/m^2,
    by Newton's identities from the power sums zeta(2i):
    n e_n = sum_{i<=n} (-1)^(i-1) e_(n-i) zeta(2i)."""
    if n == 0:
        return Fraction(1)
    total = sum((-1) ** (i - 1) * h_single(n - i) * zeta_80(2 * i) for i in range(1, n + 1))
    return _round_bits(total / n)


def zagier_h(a: int, b: int, star: bool) -> Fraction:
    """Zagier's H(a,b) (star False) or H*(a,b), K = a+b+1:
    H(a,b) = 2 sum_r (-1)^r [C(2r,2a+2) zeta(2r+1) + C(2r,2b+1) zeta(2r+1-bar)] H(K-r),
    H*(a,b) = -2 sum_r {[C(2r,2a) - delta_ra] zeta(2r+1) + C(2r,2b+1) zeta(2r+1-bar)}
    H*(K-r), with H*(n) = -2 zeta(2n-bar)."""
    k = a + b + 1
    total = Fraction(0)
    for r in range(1, k + 1):
        z, zbar = _reg_zeta(2 * r + 1, False)[0], _reg_zeta(2 * r + 1, True)[0]
        c_bar = pascal_binom(2 * r, 2 * b + 1)
        n = k - r
        if star:
            single = -2 * _reg_zeta(2 * n, True)[0] if n else Fraction(1)
            total -= 2 * ((pascal_binom(2 * r, 2 * a) - (r == a)) * z + c_bar * zbar) * single
        else:
            total += 2 * (-1) ** r * (pascal_binom(2 * r, 2 * a + 2) * z + c_bar * zbar) * h_single(n)
    return total


# which -> bars (a, b) of the product zeta(r; a) zeta(s; b)
PRODUCT_BARS = {"mixed": (True, False), "alternating": (True, True)}


def product_stuffle(r: int, s: int, which: str, double) -> tuple:
    """The two sides of zeta(r; a) zeta(s; b) = D(r, s; a, b) + D(s, r; b, a)
    + zeta(r+s; a xor b), where double(r, s, r_bar, s_bar) gives the double sum D."""
    a, b = PRODUCT_BARS[which]
    return (zeta_reg(r, a) * zeta_reg(s, b),
            ZetaPoly.sum([double(r, s, a, b), double(s, r, b, a), zeta_reg(r + s, a != b)]))


def product_shuffle(r: int, s: int, which: str, double) -> tuple:
    """The two sides of zeta(r; a) zeta(s; b) = sum_{j<k} [C(j-1, r-1) D(k-j, j; x, a)
    + C(j-1, s-1) D(k-j, j; x, b)], k = r+s, x = a xor b, where
    double(r, s, r_bar, s_bar) gives the double sum D."""
    a, b = PRODUCT_BARS[which]
    k, x = r + s, a != b
    terms = []
    for j in range(1, k):
        for c, bar in ((pascal_binom(j - 1, r - 1), a), (pascal_binom(j - 1, s - 1), b)):
            if c:
                terms.append(ZetaPoly.of(double(k - j, j, x, bar)) * c)
    return zeta_reg(r, a) * zeta_reg(s, b), ZetaPoly.sum(terms)


def ring_part(element: ZetaPoly, t_degree: int) -> ExtReal:
    """The finite part (t_degree 0) or T-coefficient (1) of a ring element
    from its collected terms: one Fraction c * v per monomial, v its value
    at zeta_core._monomial's scale (2^320, the empty monomial's value),
    summed, scaled back and rounded once by nearest_double_double."""
    one = _monomial(())[1]
    total = Fraction(0)
    for m, c in element.terms.items():
        t, v = _monomial(m)
        if t == t_degree:
            total += c * v
    return ExtReal(*nearest_double_double(total / one))
