"""Pochhammer algebra and evaluation/verification of hypergeometric sums at
the unit arguments +1 and -1.

One integer term ratio t_{n+1} = t_n A(n) / B(n) serves every series: in
exact rationals for terminating series (the Pfaff-Saalschutz sum and the
Pochhammer-ratio expansion that follows from it are checked to *exactly*
zero), in fixed point (hpreal.FIXED_BITS) otherwise, rounded once to ExtReal.
Series at +1 decay algebraically, so after a direct partial sum the remainder
is completed analytically from the term asymptotics t(n) ~ S n^-p exp(sum
d_k n^-k), whose exponents and coefficients come from Bernoulli polynomials;
series at -1 are accelerated with the iterated-averaging Euler transform of
hpreal.euler_average_fixed.  Pochhammer symbols are exact rationals.
"""
from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple, Union

from .hpreal import (
    FIXED_ONE,
    DomainError,
    ExtReal,
    ONE,
    ZERO,
    bernoulli_fixed,
    em_coefficient,
    euler_average_fixed,
    exp_fixed,
    fixed_div,
    fixed_mul,
    fixed_rational,
    from_fixed,
    ln_gamma_fixed,
    to_fixed,
)
from .zeta_core import SeriesResult, zeta

__all__ = [
    "HypSpec",
    "ConvClass",
    "pochhammer",
    "classify",
    "evaluate",
    "ln_gamma",
    "gamma_ratio",
    "check_gauss",
    "check_saalschutz",
    "check_poch_ratio",
    "check_kummer_type",
    "check_dougall_limit",
    "check_andrews_limit",
    "check_odd_zeta_series",
]

Param = Union[int, float, Fraction]


def _frac(x: Param) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)  # floats convert exactly


def _is_nonpositive_int(x: Fraction) -> bool:
    return x.denominator == 1 and x.numerator <= 0


@dataclass(frozen=True)
class HypSpec:
    """A (q+1)Fq series at argument +1 or -1, parameters kept as exact rationals."""

    upper: Tuple[Fraction, ...]
    lower: Tuple[Fraction, ...]
    argument: int

    @staticmethod
    def of(upper: Sequence[Param], lower: Sequence[Param], argument: int) -> "HypSpec":
        return HypSpec(
            tuple(_frac(u) for u in upper),
            tuple(_frac(l) for l in lower),
            argument,
        )

    def __post_init__(self):
        if self.argument not in (1, -1):
            raise DomainError("argument must be +1 or -1")
        if len(self.upper) != len(self.lower) + 1:
            raise DomainError("need exactly one more upper than lower parameter")
        # a nonpositive-integer lower parameter is admissible only when an
        # upper parameter terminates the series before the pole is reached
        stops = [-u.numerator for u in self.upper if _is_nonpositive_int(u)]
        n_stop = min(stops) if stops else None
        for b in self.lower:
            if _is_nonpositive_int(b) and (n_stop is None or n_stop > -b.numerator):
                raise DomainError("lower parameters must avoid nonpositive integers")

    @property
    def margin(self) -> Fraction:
        return sum(self.lower, Fraction(0)) - sum(self.upper, Fraction(0))


class ConvClass(enum.Enum):
    """Convergence classification of a HypSpec at its unit argument."""

    TERMINATING = "terminating"
    ABSOLUTE = "absolute"
    CONDITIONAL = "conditional"
    DIVERGENT = "divergent"


def pochhammer(x: Param, n: int) -> Fraction:
    """Rising factorial (x)_n = x (x+1) ... (x+n-1), exact."""
    if n < 0:
        raise DomainError("pochhammer requires n >= 0")
    xf = _frac(x)
    acc = Fraction(1)
    for i in range(n):
        acc *= xf + i
    return acc


def classify(spec: HypSpec) -> ConvClass:
    """Terminating dominates; otherwise classify by the parameter margin.

    At +1 the series converges (absolutely) iff the margin is positive; at -1
    a margin in (-1, 0] still gives conditional convergence.
    """
    if any(_is_nonpositive_int(u) for u in spec.upper):
        return ConvClass.TERMINATING
    m = spec.margin
    if m > 0:
        return ConvClass.ABSOLUTE
    if spec.argument == -1 and m > -1:
        return ConvClass.CONDITIONAL
    return ConvClass.DIVERGENT


# ---------------------------------------------------------------------------
# Series terms and exact terminating evaluation
# ---------------------------------------------------------------------------

def _ratios(upper, lower, argument: int):
    """Integers (A(n), B(n)), n = 0, 1, ..., with t_{n+1} = t_n A(n) / B(n) for
    t_n = argument^n prod (u)_n / (n! prod (l)_n): u + n = (p + n q) / q for
    the Fraction u = p/q."""
    ups = [(u.numerator, u.denominator) for u in upper]
    lows = [(l.numerator, l.denominator) for l in lower]
    a0 = argument * math.prod(q for _, q in lows)
    b0 = math.prod(q for _, q in ups)
    for n in itertools.count():
        a, b = a0, b0 * (n + 1)
        for p, q in ups:
            a *= p + n * q
        for p, q in lows:
            b *= p + n * q
        yield a, b


# Longest terminating series summed exactly.  The cost of the rational sum
# grows faster than the square of its length: at 1000 terms a 2F1 with small
# rational parameters takes ~0.05 s and one with 16-digit decimal parameters
# ~2 s; at 2000 terms the latter takes ~15 s.
TERMINATING_CAP = 1000
# Largest length times total bit length of the parameters' numerators and
# denominators: the cost per term grows with the parameters' size.  A 2F1
# with 16-digit decimal (or float) parameters at 1000 terms is ~225 000 and
# takes ~2.5 s; one with 50-digit parameters at 600 terms is ~405 000 and ~4 s.
TERMINATING_SIZE_CAP = 250_000


def _terminating_sum(spec: HypSpec) -> Fraction:
    n_stop = min(-u.numerator for u in spec.upper if _is_nonpositive_int(u))
    if n_stop > TERMINATING_CAP:
        raise DomainError(f"terminating series longer than {TERMINATING_CAP} terms")
    bits = sum(p.numerator.bit_length() + p.denominator.bit_length()
               for p in spec.upper + spec.lower)
    if n_stop * bits > TERMINATING_SIZE_CAP:
        raise DomainError(f"terminating series too large: {n_stop} terms x {bits} "
                          f"parameter bits exceeds {TERMINATING_SIZE_CAP}")
    term = total = Fraction(1)
    for a, b in itertools.islice(_ratios(spec.upper, spec.lower, spec.argument), n_stop):
        term = term * a / b
        total += term
    return total


# ---------------------------------------------------------------------------
# Term asymptotics at +1: t(m) ~ S m^-p E(m), E(m) = sum_j e_j m^-j
# = exp(sum_k d_k m^-k), everything in fixed point
# ---------------------------------------------------------------------------

def _power_tail_ratio(q: int, n: int) -> int:
    """R(q, n) = n^q sum_{m>n} m^-q, real q > 1, by Euler-Maclaurin:
    n / (q - 1) - 1/2 + sum_j kappa_j (q)_(2j-1) n^(1-2j)."""
    r = fixed_div(n * FIXED_ONE, q - FIXED_ONE) - (FIXED_ONE >> 1)
    rising, npow = q, n
    for j in (1, 2, 3, 4):
        r += fixed_mul(to_fixed(em_coefficient(j)), rising) // npow
        rising = fixed_mul(fixed_mul(rising, q + (2 * j - 1) * FIXED_ONE), q + 2 * j * FIXED_ONE)
        npow *= n * n
    return r


def _fixed_params(spec: HypSpec):
    """The parameters of a non-terminating sum, rounded by hpreal.fixed_rational
    so that each term costs a bounded amount."""
    upper = [fixed_rational(u) for u in spec.upper]
    lower = [fixed_rational(l) for l in spec.lower]
    if any(_is_nonpositive_int(l) for l in lower):
        raise DomainError("a lower parameter rounds to a nonpositive integer")
    return upper, lower


_ASYMP_ORDER = 10


def _plus_one_value(spec: HypSpec, cap: int) -> SeriesResult:
    upper, lower = _fixed_params(spec)
    term = total = FIXED_ONE
    small = 0
    n_target = max(128, min(cap, 3000))
    for n, (a, b) in zip(range(1, n_target + 1), _ratios(upper, lower, 1)):
        term = term * a // b
        total += term
        if abs(term) < max(FIXED_ONE, abs(total)) >> 113:  # three terms below ~1e-34 end it
            small += 1
            if small >= 3 and n >= 128:
                break
        else:
            small = 0
    # analytic completion of the remainder: with sum_{m>n} m^-q = n^-q R(q, n)
    # the unknown S n^p cancels against t(n) / E(n), so
    # tail = t(n) / E(n) * sum_j e_j n^-j R(p + j, n); one extra expansion
    # coefficient prices the first omitted order
    order = _ASYMP_ORDER if n_target > 512 else 6
    p = to_fixed(1 - sum(upper) + sum(lower))
    params = [(1, to_fixed(u)) for u in upper] + [(-1, to_fixed(l)) for l in (1, *lower)]
    d = [(-1) ** (k + 1) * sum(sign * bernoulli_fixed(k + 1, x) for sign, x in params)
         // (k * (k + 1)) for k in range(1, order + 2)]
    e = [FIXED_ONE]  # power-series exponential: e_m = sum_k k d_k e_(m-k) / m
    for m in range(1, order + 2):
        e.append(sum(k * fixed_mul(d[k - 1], e[m - k]) for k in range(1, m + 1)) // m)
    e_omitted = abs(float(from_fixed(e[-1])))  # rejects coefficients beyond the double range
    en = acc = 0
    for j in range(order + 1):
        en += e[j] // n ** j
        acc += fixed_mul(e[j], _power_tail_ratio(p + j * FIXED_ONE, n)) // n ** j
    # an asymptotic expansion is usable only once its terms e_j n^-j have
    # turned to decrease: the omitted one must be below the largest kept one
    largest_kept = max(abs(e[j]) // n ** j for j in range(order + 1))
    if en <= 0 or abs(e[-1]) // n ** (order + 1) >= largest_kept:
        raise DomainError("the +1 tail asymptotics break down for these parameters")
    value = from_fixed(total + fixed_mul(term, fixed_div(acc, en)))
    # the first omitted order e_(order+1) n^-(order+1) enters twice, with
    # opposite signs: through E(n) in S = t(n) / E(n), which scales the whole
    # tail (a factor 1/(p - 1)), and through its own tail (1/(p + order))
    pf = p / FIXED_ONE
    omitted = (abs(term / en) * (e_omitted + 1.0) * float(n) ** -order
               * (1 / (pf - 1) - 1 / (pf + order)))
    # fixed-point rounding: each floored step errs by one unit, term n by n
    # units, the sum by n^2 units of the sum's size
    est = (3.0 * omitted + abs(float(value)) * 1e-30
           + n * n / FIXED_ONE * max(1.0, abs(float(value))))
    return SeriesResult(value=value, terms_used=n, tail_estimate=ExtReal(est))


def _minus_one_value(spec: HypSpec, cap: int) -> SeriesResult:
    """Fixed-point partial sums, then the Euler transform
    (hpreal.euler_average_fixed): 16 rounds of adjacent means over the last 64."""
    upper, lower = _fixed_params(spec)
    n_target = max(300, min(cap, 1200))
    term = total = FIXED_ONE
    partials = [total]
    for a, b in itertools.islice(_ratios(upper, lower, -1), n_target):
        term = term * a // b
        total += term
        partials.append(total)
    fixed, change = euler_average_fixed(partials[-64:], 16)
    value = from_fixed(fixed)
    est = (float(from_fixed(change)) + abs(float(value)) * 1e-30 + 1e-33
           + n_target ** 2 / FIXED_ONE * max(1.0, abs(float(value))))
    return SeriesResult(value=value, terms_used=n_target, tail_estimate=ExtReal(est))


def evaluate(spec: HypSpec, cap: int = 20000) -> SeriesResult:
    """Evaluate a hypergeometric sum at its unit argument.

    Terminating series (at most TERMINATING_CAP terms, and at most
    TERMINATING_SIZE_CAP terms x parameter bits) are summed exactly in
    rationals and converted; convergent series at +1 are partially summed
    then completed with the Bernoulli-polynomial tail asymptotics; series at
    -1 (absolutely or conditionally convergent) are Euler-transform
    accelerated.
    """
    cls = classify(spec)
    if cls is ConvClass.DIVERGENT:
        raise DomainError("series diverges at its argument")
    if cls is ConvClass.TERMINATING:
        exact = _terminating_sum(spec)
        return SeriesResult(
            value=ExtReal.from_fraction(exact), terms_used=0, tail_estimate=ZERO
        )
    if spec.argument == 1:
        return _plus_one_value(spec, cap)
    return _minus_one_value(spec, cap)


def evaluate_terminating_exact(spec: HypSpec) -> Fraction:
    """Exact rational value of a terminating series."""
    if classify(spec) is not ConvClass.TERMINATING:
        raise DomainError("series does not terminate")
    return _terminating_sum(spec)


# ---------------------------------------------------------------------------
# log-gamma and gamma ratios
# ---------------------------------------------------------------------------

def ln_gamma(x: Union[Param, ExtReal]) -> ExtReal:
    """log Gamma(x) for 0 < x <= 1e4, x taken exactly, rounded once from fixed
    point (hpreal.ln_gamma_fixed)."""
    return from_fixed(ln_gamma_fixed(x))


def gamma_ratio(numerators: Sequence[Param], denominators: Sequence[Param]) -> ExtReal:
    """prod Gamma(numerators) / prod Gamma(denominators), all arguments > 0."""
    acc = (sum(ln_gamma_fixed(v) for v in numerators)
           - sum(ln_gamma_fixed(v) for v in denominators))
    if abs(acc) > 700 * FIXED_ONE:
        raise DomainError("gamma ratio outside the double range")
    return from_fixed(*exp_fixed(acc))


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------

def check_gauss(a: Param, b: Param, c: Param) -> ExtReal:
    """|2F1(a,b;c;1) - Gamma(c)Gamma(c-a-b)/(Gamma(c-a)Gamma(c-b))|."""
    a, b, c = _frac(a), _frac(b), _frac(c)
    if c - a - b <= 0:
        raise DomainError("Gauss summation requires c - a - b > 0")
    if _is_nonpositive_int(c):
        raise DomainError("c must not be a nonpositive integer")
    lhs = evaluate(HypSpec.of([a, b], [c], 1)).value
    rhs = gamma_ratio([c, c - a - b], [c - a, c - b])
    return abs(lhs - rhs)


def check_saalschutz(a: Param, b: Param, c: Param, n: int) -> Fraction:
    """Exact residual of the balanced terminating 3F2 summation; must be 0."""
    a, b, c = _frac(a), _frac(b), _frac(c)
    if n < 0:
        raise DomainError("n must be >= 0")
    spec = HypSpec.of([a, b, -n], [c, 1 + a + b - c - n], 1)
    lhs = evaluate_terminating_exact(spec)
    den = pochhammer(c, n) * pochhammer(c - a - b, n)
    if den == 0:
        raise DomainError("right-hand side degenerates")
    rhs = pochhammer(c - a, n) * pochhammer(c - b, n) / den
    return lhs - rhs


def check_poch_ratio(a: Param, b: Param, c: Param, n: int) -> Fraction:
    """Exact residual of the Pochhammer-ratio expansion; must be 0.

    (b)_n (c)_n / ((1+a-b)_n (1+a-c)_n)
      = sum_{r<=n} (a+n)_r (1+a-b-c)_r (-n)_r / (r! (1+a-b)_r (1+a-c)_r)
    """
    a, b, c = _frac(a), _frac(b), _frac(c)
    if n < 0:
        raise DomainError("n must be >= 0")
    den = pochhammer(1 + a - b, n) * pochhammer(1 + a - c, n)
    if den == 0:
        raise DomainError("left-hand side degenerates")
    lhs = pochhammer(b, n) * pochhammer(c, n) / den
    # a zero lower Pochhammer symbol on the right needs 1+a-b or 1+a-c in
    # {0, -1, ..., 1-n}, which already zeroes den
    rhs = evaluate_terminating_exact(
        HypSpec.of([a + n, 1 + a - b - c, -n], [1 + a - b, 1 + a - c], 1))
    return lhs - rhs


def check_kummer_type(a: Param, b: Param) -> ExtReal:
    """|2F1(a,b;1+a-b;-1) - (1/2) G(a/2)G(1+a-b) / (G(a)G(1+a/2-b))|."""
    a, b = _frac(a), _frac(b)
    if b >= 1:
        raise DomainError("requires b < 1")
    if _is_nonpositive_int(1 + a - b):
        raise DomainError("1+a-b must not be a nonpositive integer")
    if a <= 0 or 1 + a / 2 - b <= 0:
        raise DomainError("gamma arguments must stay positive")
    lhs = evaluate(HypSpec.of([a, b], [1 + a - b], -1)).value
    rhs = gamma_ratio([a / 2, 1 + a - b], [a, 1 + a / 2 - b]) / 2
    return abs(lhs - rhs)


def check_dougall_limit(a: Param, b: Param, c: Param) -> ExtReal:
    """Residual of the well-poised 4F3(-1) summation (Dougall limiting case)."""
    a, b, c = _frac(a), _frac(b), _frac(c)
    for v in (a / 2, 1 + a - b, 1 + a - c):
        if _is_nonpositive_int(v):
            raise DomainError("parameter degenerates a lower slot")
    if 2 + a - 2 * b - 2 * c <= 0:
        raise DomainError("requires 2 + a - 2b - 2c > 0")
    if 1 + a <= 0 or 1 + a - b <= 0 or 1 + a - c <= 0 or 1 + a - b - c <= 0:
        raise DomainError("gamma arguments must stay positive")
    spec = HypSpec.of([a, 1 + a / 2, b, c], [a / 2, 1 + a - b, 1 + a - c], -1)
    lhs = evaluate(spec).value
    rhs = gamma_ratio([1 + a - b, 1 + a - c], [1 + a, 1 + a - b - c])
    return abs(lhs - rhs)


def _poch_ratio(nums, dens, n: int) -> ExtReal:
    """prod (nums_i)_n / prod (dens_j)_n as an exact integer ratio, rounded once.

    An upper parameter 1 adds (1)_n = n!, which cancels the n! in the ratios.
    """
    num = den = 1
    for a, b in itertools.islice(_ratios((*nums, Fraction(1)), dens, 1), n):
        num *= a
        den *= b
    return ExtReal.from_fraction(Fraction(num, den))


def _nested_product_sum(a: Fraction, bs, cs, level: int, offset: int,
                        tol: float, base_cap: int) -> ExtReal:
    """sum over k_level..k_s of the telescoped Pochhammer product (RHS of the
    multi-sum identity), with k_1+...+k_{level-1} = offset already fixed."""
    s = len(bs) - 1
    if level > s:
        return ONE
    b_lo, c_lo = 1 + a - bs[level - 1], 1 + a - cs[level - 1]
    b_hi, c_hi = bs[level], cs[level]
    if level == s:
        pre = _poch_ratio((b_hi, c_hi), (b_lo, c_lo), offset)
        inner = evaluate(
            HypSpec.of(
                [1 + a - bs[s - 1] - cs[s - 1], b_hi + offset, c_hi + offset],
                [b_lo + offset, c_lo + offset],
                1,
            ),
            cap=base_cap,
        ).value
        return pre * inner
    total = ZERO
    small = 0
    rising = _frac(1 + a - bs[level - 1] - cs[level - 1])
    factor = _poch_ratio((b_hi, c_hi), (b_lo, c_lo), offset)
    k = 0
    while k < 400:
        kk = offset + k
        term = factor * _nested_product_sum(a, bs, cs, level + 1, kk, tol, base_cap)
        total = total + term
        if abs(float(term)) < tol:
            small += 1
            if small >= 3 and k >= 8:
                break
        else:
            small = 0
        factor = factor * ExtReal.from_fraction(
            (rising + k) * (b_hi + kk) * (c_hi + kk) / ((k + 1) * (b_lo + kk) * (c_lo + kk)))
        k += 1
    return total


def check_andrews_limit(s: int, a: Param, bs: Sequence[Param], cs: Sequence[Param]) -> ExtReal:
    """Residual of the 2s+4 F 2s+3 (-1) summation with s-fold nested-sum RHS.

    bs and cs hold the s+1 numerator-parameter pairs; the verification grid
    keeps the left side's convergence margin strictly positive.
    """
    if s < 0 or len(bs) != s + 1 or len(cs) != s + 1:
        raise DomainError("need s+1 parameters in each of bs and cs")
    a = _frac(a)
    bs = [_frac(b) for b in bs]
    cs = [_frac(c) for c in cs]
    upper = [a, 1 + a / 2]
    lower = [a / 2]
    for b, c in zip(bs, cs):
        upper += [b, c]
        lower += [1 + a - b, 1 + a - c]
    spec = HypSpec.of(upper, lower, -1)
    if classify(spec) is ConvClass.DIVERGENT:
        raise DomainError("left-hand side not convergent on this parameter set")
    lhs = evaluate(spec).value
    pre = gamma_ratio([1 + a - bs[s], 1 + a - cs[s]], [1 + a, 1 + a - bs[s] - cs[s]])
    if s == 0:
        rhs = pre
    elif s == 1:
        rhs = pre * _nested_product_sum(a, bs, cs, 1, 0, 1e-16, base_cap=1600)
    else:
        # per-axis precision budget: the nested levels only need to beat the
        # stated 1e-8 tolerance, so the shifted inner sums run short
        rhs = pre * _nested_product_sum(a, bs, cs, 1, 0, 3e-12, base_cap=160)
    return abs(lhs - rhs)


def _core_series(x: Fraction, y: Fraction) -> ExtReal:
    """sum_{m>=1} (x)_m (-x)_m / (m (1+y)_m (1-y)_m), via the shifted 4F3."""
    if x == 0:
        return ZERO
    f = evaluate(HypSpec.of([1 + x, 1 - x, 1, 1], [2 + y, 2 - y, 2], 1)).value
    xv = ExtReal.from_fraction(x)
    yv = ExtReal.from_fraction(y)
    return -(xv * xv) / (ONE - yv * yv) * f


def check_odd_zeta_series(x: Param) -> ExtReal:
    """Residual of the digamma-derivative identity behind the fixed-weight sums:

    sum_{m>=1} (x)_m (-x)_m / (m (1+x)_m (1-x)_m) + sum_{r>=1} zeta(2r+1) x^(2r)

    The first series is summed through the generic +1 evaluator (it is a
    balanced 4F3 after the index shift m = n+1); the second from the zeta
    table; both truncations are independent.
    """
    xf = _frac(x)
    if abs(xf) >= Fraction(1, 2):
        raise DomainError("requires |x| < 1/2")
    if xf == 0:
        return ZERO
    series1 = _core_series(xf, xf)
    xv = ExtReal.from_fraction(xf)
    x2 = xv * xv
    series2 = ZERO
    xpow = x2
    r = 1
    while abs(float(xpow)) > 1e-40 and r <= 29:
        series2 = series2 + zeta(2 * r + 1) * xpow
        xpow = xpow * x2
        r += 1
    return abs(series1 + series2)
