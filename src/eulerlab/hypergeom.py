"""Pochhammer algebra and evaluation/verification of hypergeometric sums at
the unit arguments +1 and -1.

Two evaluation backends: exact rational arithmetic for terminating series
(the Pfaff-Saalschutz sum and the Pochhammer-ratio expansion that follows
from it are checked to *exactly* zero), and
double-double numerics otherwise.  Series at +1 decay algebraically, so after
a direct partial sum the remainder is completed analytically from the term
asymptotics t(n) ~ S n^-p exp(sum d_k n^-k), whose exponents and coefficients
come from Bernoulli polynomials; series at -1 are accelerated with the
iterated-averaging Euler transform.
"""
from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Tuple, Union

from .hpreal import (
    DomainError,
    ExtReal,
    ONE,
    ZERO,
    bernoulli,
    bernoulli_poly,
    const_pi,
    em_coefficient,
    euler_average,
    exp_dd,
    ln_dd,
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


def pochhammer(x: Union[Param, ExtReal], n: int):
    """Rising factorial (x)_n = x (x+1) ... (x+n-1); exact for rational x."""
    if n < 0:
        raise DomainError("pochhammer requires n >= 0")
    if isinstance(x, (ExtReal, float)):
        acc = ONE
        v = ExtReal.from_real(x)
        for i in range(n):
            acc = acc * (v + i)
        return acc
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

def _terms(upper, lower, argument: int, one):
    """t_1, t_2, ... of sum_n t_n with t_0 = one and
    t_{n+1} = argument * t_n * prod(u+n) / ((n+1) prod(l+n)).

    The parameters and `one` are all Fractions (exact) or all ExtReals.
    """
    term = one
    for n in itertools.count():
        num = one
        for u in upper:
            num = num * (u + n)
        den = n + 1
        for l in lower:
            den = den * (l + n)
        term = term * num / den
        if argument < 0:
            term = -term
        yield term


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
    terms = _terms(spec.upper, spec.lower, spec.argument, Fraction(1))
    return sum(itertools.islice(terms, n_stop), Fraction(1))


# ---------------------------------------------------------------------------
# Term asymptotics at +1: t(n) ~ S * n^-p * exp(sum_k d_k n^-k)
# ---------------------------------------------------------------------------

def _exp_series(d: Sequence[ExtReal]) -> list:
    """Power-series exponential: coefficients of exp(sum d_k z^k), e_0 = 1."""
    jmax = len(d)
    e = [ONE] + [ZERO] * jmax
    for m in range(1, jmax + 1):
        acc = ZERO
        for k in range(1, m + 1):
            acc = acc + d[k - 1] * k * e[m - k]
        e[m] = acc / m
    return e


def _power_tail_dd(q: ExtReal, n: int) -> ExtReal:
    """sum_{m>n} m^-q in double-double, real q > 1."""
    ln_n = ln_dd(n)
    npq = exp_dd(-q * ln_n)  # n^-q
    total = npq * n / (q - ONE) - npq / 2
    rising = q
    npow = npq / n
    for j in (1, 2, 3, 4):
        total = total + ExtReal.from_fraction(em_coefficient(j)) * rising * npow
        rising = rising * (q + (2 * j - 1)) * (q + 2 * j)
        npow = npow / (n * n)
    return total


_ASYMP_ORDER = 10
# relative size of three successive terms at +1 that ends the direct sum early
_PLUS_ONE_TOL = 1e-34


def _plus_one_value(spec: HypSpec, cap: int) -> SeriesResult:
    upper = [ExtReal.from_fraction(u) for u in spec.upper]
    lower = [ExtReal.from_fraction(l) for l in spec.lower]
    total = ONE
    small = 0
    n_target = max(128, min(cap, 3000))
    for n, term in zip(range(1, n_target + 1), _terms(upper, lower, 1, ONE)):
        total = total + term
        if abs(float(term)) < _PLUS_ONE_TOL * max(1.0, abs(float(total))):
            small += 1
            if small >= 3 and n >= 128:
                break
        else:
            small = 0
    # analytic completion of the remainder from the term asymptotics; one
    # extra expansion coefficient prices the first omitted order
    order = _ASYMP_ORDER if n_target > 512 else 6
    p = ONE - sum(spec.upper) + sum(spec.lower)
    d = []
    for k in range(1, order + 2):
        acc = ZERO
        for u in spec.upper:
            acc = acc + bernoulli_poly(k + 1, ExtReal.from_fraction(u))
        acc = acc - bernoulli_poly(k + 1, ONE)
        for l in spec.lower:
            acc = acc - bernoulli_poly(k + 1, ExtReal.from_fraction(l))
        sign = 1 if k % 2 else -1
        d.append(acc * sign / (k * (k + 1)))
    e = _exp_series(d)
    ln_n = ln_dd(n)
    en = ZERO
    npow = ONE
    for j in range(order + 1):
        en = en + e[j] * npow
        npow = npow / n
    scale = term * exp_dd(p * ln_n) / en  # S = t(n) n^p / E(n)
    tail = ZERO
    for j in range(order + 1):
        tail = tail + e[j] * _power_tail_dd(p + j, n)
    tail = tail * scale
    omitted = (
        abs(float(scale)) * (abs(float(e[order + 1])) + 1.0)
        * float(n) ** (-float(p) - order) / (float(p) + order)
    )
    est = 3.0 * omitted + abs(float(total)) * 1e-30
    return SeriesResult(value=total + tail, terms_used=n, tail_estimate=ExtReal(est))


def _minus_one_value(spec: HypSpec, cap: int) -> SeriesResult:
    upper = [ExtReal.from_fraction(u) for u in spec.upper]
    lower = [ExtReal.from_fraction(l) for l in spec.lower]
    n_target = max(300, min(cap, 1200))
    total = ONE
    partials = [total]
    for term in itertools.islice(_terms(upper, lower, -1, ONE), n_target):
        total = total + term
        partials.append(total)
    window = min(64, len(partials))
    value, est = euler_average(partials[-window:], 16)
    floor = ExtReal(abs(float(value)) * 1e-30 + 1e-33)
    return SeriesResult(value=value, terms_used=n_target, tail_estimate=est + floor)


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

_STIRLING_SHIFT = 20.0


@lru_cache(maxsize=None)
def _ln_sqrt_2pi() -> ExtReal:
    return ln_dd(const_pi() * 2) / 2


def ln_gamma(x: Union[Param, ExtReal]) -> ExtReal:
    """log Gamma(x) for 0 < x <= 1e4: shift to x >= 20, then Stirling to B_30."""
    z = ExtReal.from_real(x)
    if float(z) <= 0.0:
        raise DomainError("ln_gamma requires a positive argument")
    if float(z) > 1e4:
        raise DomainError("ln_gamma argument capped at 1e4")
    shift = ZERO
    while float(z) < _STIRLING_SHIFT:
        shift = shift + ln_dd(z)
        z = z + 1
    ln_z = ln_dd(z)
    total = (z - ExtReal(0.5)) * ln_z - z + _ln_sqrt_2pi()
    zpow = ONE / z
    z2 = z * z
    for j in range(1, 16):
        coeff = bernoulli(2 * j) / Fraction((2 * j) * (2 * j - 1))
        total = total + ExtReal.from_fraction(coeff) * zpow
        zpow = zpow / z2
    return total - shift


def gamma_ratio(numerators: Sequence[Param], denominators: Sequence[Param]) -> ExtReal:
    """prod Gamma(numerators) / prod Gamma(denominators), all arguments > 0."""
    acc = ZERO
    for v in numerators:
        acc = acc + ln_gamma(v)
    for v in denominators:
        acc = acc - ln_gamma(v)
    return exp_dd(acc)


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
    rhs = Fraction(0)
    for r in range(n + 1):
        dpart = (
            Fraction(math.factorial(r))
            * pochhammer(1 + a - b, r)
            * pochhammer(1 + a - c, r)
        )
        if dpart == 0:
            raise DomainError("right-hand side degenerates")
        rhs += (
            pochhammer(a + n, r)
            * pochhammer(1 + a - b - c, r)
            * pochhammer(-n, r)
            / dpart
        )
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


def _poch_ratio_dd(nums, dens, n: int) -> ExtReal:
    """prod (nums_i)_n / prod (dens_j)_n in double-double."""
    acc = ONE
    for i in range(n):
        for u in nums:
            acc = acc * (ExtReal.from_fraction(u) + i)
        for l in dens:
            acc = acc / (ExtReal.from_fraction(l) + i)
    return acc


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
        pre = _poch_ratio_dd((b_hi, c_hi), (b_lo, c_lo), offset)
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
    factor = _poch_ratio_dd((b_hi, c_hi), (b_lo, c_lo), offset)
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
        factor = (
            factor
            * ExtReal.from_fraction(rising + k) / (k + 1)
            * (ExtReal.from_fraction(b_hi) + kk) * (ExtReal.from_fraction(c_hi) + kk)
            / ((ExtReal.from_fraction(b_lo) + kk) * (ExtReal.from_fraction(c_lo) + kk))
        )
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
