"""Pochhammer algebra and evaluation/verification of hypergeometric sums at
the unit arguments +1 and -1.

One integer term ratio t_{n+1} = t_n A(n) / B(n) serves every series.
Terminating series are summed exactly, in integers over one denominator (the
two sides of the Pfaff-Saalschutz sum and of the Pochhammer-ratio expansion
that follows from it are exact rationals).  Convergent series at +1
(algebraic decay) and at -1 (alternating) alike go through hpreal.levin_sum,
the Levin u-transform on the exact terms, rounded once to ExtReal.  So does
the s-fold sum on the right of the Andrews limit, as one series of exact
diagonals (the terms with k_1+...+k_s = n, summed for each n, in integers
over one denominator per level).  Pochhammer symbols are one integer rising product
over one denominator; a Fraction is built only where a value leaves a loop.
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
    ZERO,
    exp_fixed,
    fixed_rational,
    from_fixed,
    levin_sum,
    ln_gamma_fixed,
)
from .zeta_core import SeriesResult, ZetaPoly, zeta_reg

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


def _rising(x: Fraction, n: int) -> Tuple[int, int]:
    """(x)_n as integers (num, den): prod (p + i q) / q^n for x = p/q."""
    p, q = x.numerator, x.denominator
    return math.prod(p + i * q for i in range(n)), q ** n


def _poch_quotient(upper, lower, n: int) -> Tuple[int, int]:
    """prod (u)_n / prod (l)_n as integers (num, den); den is 0 when some (l)_n is."""
    num = den = 1
    for u in upper:
        p, q = _rising(u, n)
        num, den = num * p, den * q
    for l in lower:
        p, q = _rising(l, n)
        num, den = num * q, den * p
    return num, den


def pochhammer(x: Param, n: int) -> Fraction:
    """Rising factorial (x)_n = x (x+1) ... (x+n-1), exact."""
    if n < 0:
        raise DomainError("pochhammer requires n >= 0")
    return Fraction(*_rising(_frac(x), n))


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


# Longest terminating series summed exactly.  The integer sum's cost grows
# with the square of its length: at 1000 terms a 2F1 with small rational
# parameters takes ~0.003 s and one with 16-digit decimal parameters ~0.05 s;
# at 2000 terms the latter takes ~0.2 s (2 vCPUs).
TERMINATING_CAP = 1000
# Largest length times total bit length of the parameters' numerators and
# denominators: the cost per term grows with the parameters' size.  A 2F1
# with 16-digit decimal (or float) parameters at 1000 terms is ~200 000 and
# takes ~0.05 s; one with 50-digit parameters at 600 terms is ~400 000 and
# would take ~0.13 s.  Both caps bound the time and memory of one request.
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
    p = q = s = 1  # the term p / q and the partial sum s / q, as in levin_sum
    for a, b in itertools.islice(_ratios(spec.upper, spec.lower, spec.argument), n_stop):
        p, q = p * a, q * b
        s = s * b + p
    return Fraction(s, q)


# ---------------------------------------------------------------------------
# Non-terminating sums: the Levin transform
# ---------------------------------------------------------------------------

def _fixed_params(spec: HypSpec):
    """The parameters of a non-terminating sum, rounded by hpreal.fixed_rational
    so that each term costs a bounded amount."""
    upper = [fixed_rational(u) for u in spec.upper]
    lower = [fixed_rational(l) for l in spec.lower]
    if any(_is_nonpositive_int(l) for l in lower):
        raise DomainError("a lower parameter rounds to a nonpositive integer")
    return upper, lower


def evaluate(spec: HypSpec) -> SeriesResult:
    """Evaluate a hypergeometric sum at its unit argument.

    Terminating series (at most TERMINATING_CAP terms, and at most
    TERMINATING_SIZE_CAP terms x parameter bits) are summed exactly in
    rationals and converted.  Convergent series at +1 and -1 go through the
    Levin transform (hpreal.levin_sum) on their exact terms.  Its model needs
    terms past their last sign change, so for a negative parameter p it
    starts at index floor(-p) + 1.
    """
    cls = classify(spec)
    if cls is ConvClass.DIVERGENT:
        raise DomainError("series diverges at its argument")
    if cls is ConvClass.TERMINATING:
        exact = _terminating_sum(spec)
        return SeriesResult(
            value=ExtReal.from_fraction(exact), terms_used=0, tail_estimate=ZERO
        )
    upper, lower = _fixed_params(spec)
    start = max([0] + [math.floor(-p) + 1 for p in (*upper, *lower) if p < 0])
    total, est, n = levin_sum(_ratios(upper, lower, spec.argument), start)
    return SeriesResult(value=ExtReal.from_fraction(total), terms_used=n, tail_estimate=ExtReal(est))


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
# Identity checks: each returns the two sides of its identity
# ---------------------------------------------------------------------------

def check_gauss(a: Param, b: Param, c: Param) -> Tuple[ExtReal, ExtReal]:
    """The two sides of 2F1(a,b;c;1) = Gamma(c)Gamma(c-a-b)/(Gamma(c-a)Gamma(c-b))."""
    a, b, c = _frac(a), _frac(b), _frac(c)
    if c - a - b <= 0:
        raise DomainError("Gauss summation requires c - a - b > 0")
    if _is_nonpositive_int(c):
        raise DomainError("c must not be a nonpositive integer")
    lhs = evaluate(HypSpec.of([a, b], [c], 1)).value
    return lhs, gamma_ratio([c, c - a - b], [c - a, c - b])


def check_saalschutz(a: Param, b: Param, c: Param, n: int) -> Tuple[Fraction, Fraction]:
    """The two exact sides of the balanced terminating 3F2 summation (Pfaff-Saalschutz):
    3F2(a, b, -n; c, 1+a+b-c-n; 1) = (c-a)_n (c-b)_n / ((c)_n (c-a-b)_n)."""
    a, b, c = _frac(a), _frac(b), _frac(c)
    if n < 0:
        raise DomainError("n must be >= 0")
    d = math.lcm(a.denominator, b.denominator, c.denominator)  # the shifts as integers over d
    a_d, b_d, c_d = (x.numerator * (d // x.denominator) for x in (a, b, c))
    spec = HypSpec.of([a, b, -n], [c, Fraction(d + a_d + b_d - c_d - n * d, d)], 1)
    lhs = evaluate_terminating_exact(spec)
    num, den = _poch_quotient([Fraction(c_d - a_d, d), Fraction(c_d - b_d, d)],
                              [c, Fraction(c_d - a_d - b_d, d)], n)
    if den == 0:
        raise DomainError("right-hand side degenerates")
    return lhs, Fraction(num, den)


def check_poch_ratio(a: Param, b: Param, c: Param, n: int) -> Tuple[Fraction, Fraction]:
    """The two exact sides of the Pochhammer-ratio expansion:

    (b)_n (c)_n / ((1+a-b)_n (1+a-c)_n)
      = sum_{r<=n} (a+n)_r (1+a-b-c)_r (-n)_r / (r! (1+a-b)_r (1+a-c)_r)
    """
    a, b, c = _frac(a), _frac(b), _frac(c)
    if n < 0:
        raise DomainError("n must be >= 0")
    d = math.lcm(a.denominator, b.denominator, c.denominator)  # the shifts as integers over d
    a_d, b_d, c_d = (x.numerator * (d // x.denominator) for x in (a, b, c))
    lower = [Fraction(d + a_d - b_d, d), Fraction(d + a_d - c_d, d)]  # 1+a-b, 1+a-c
    num, den = _poch_quotient([b, c], lower, n)
    if den == 0:
        raise DomainError("left-hand side degenerates")
    # a zero lower Pochhammer symbol on the right needs 1+a-b or 1+a-c in
    # {0, -1, ..., 1-n}, which already zeroes den
    rhs = evaluate_terminating_exact(
        HypSpec.of([Fraction(a_d + n * d, d), Fraction(d + a_d - b_d - c_d, d), -n], lower, 1))
    return Fraction(num, den), rhs


def check_kummer_type(a: Param, b: Param) -> Tuple[ExtReal, ExtReal]:
    """The two sides of 2F1(a,b;1+a-b;-1) = (1/2) G(a/2)G(1+a-b) / (G(a)G(1+a/2-b))."""
    a, b = _frac(a), _frac(b)
    if b >= 1:
        raise DomainError("requires b < 1")
    if _is_nonpositive_int(1 + a - b):
        raise DomainError("1+a-b must not be a nonpositive integer")
    if a <= 0 or 1 + a / 2 - b <= 0:
        raise DomainError("gamma arguments must stay positive")
    lhs = evaluate(HypSpec.of([a, b], [1 + a - b], -1)).value
    return lhs, gamma_ratio([a / 2, 1 + a - b], [a, 1 + a / 2 - b]) / 2


def check_dougall_limit(a: Param, b: Param, c: Param) -> Tuple[ExtReal, ExtReal]:
    """The two sides of the well-poised 4F3(-1) summation (Dougall limiting case):
    the Andrews limit at s = 0, after its own domain checks."""
    a, b, c = _frac(a), _frac(b), _frac(c)
    for v in (a / 2, 1 + a - b, 1 + a - c):
        if _is_nonpositive_int(v):
            raise DomainError("parameter degenerates a lower slot")
    if 2 + a - 2 * b - 2 * c <= 0:
        raise DomainError("requires 2 + a - 2b - 2c > 0")
    if 1 + a <= 0 or 1 + a - b <= 0 or 1 + a - c <= 0 or 1 + a - b - c <= 0:
        raise DomainError("gamma arguments must stay positive")
    return check_andrews_limit(0, a, (b,), (c,))


def _diagonals(a: Fraction, bs, cs):
    """D(n) = sum over k_1+...+k_s = n of prod_l (rho_l)_(k_l) / k_l! G_l(k_1+...+k_l),
    n = 0, 1, ..., in exact rationals: the s-fold sum on the right of the
    Andrews limit taken along its diagonals, with rho_l = 1+a-b_(l-1)-c_(l-1)
    and G_l(n) = (b_l)_n (c_l)_n / ((1+a-b_(l-1))_n (1+a-c_(l-1))_n).  Level
    l's diagonals f_l(n) = G_l(n) sum_j f_(l-1)(j) (rho_l)_(n-j) / (n-j)! are
    the convolution of level l-1's with the rising factor, so D(n) = f_s(n).

    Each level keeps its rising factors, the numerator of G_l(n) and its
    diagonals as integers over one denominator, a product over the steps so
    far: step n multiplies the stored integers by that step's factor, and only
    D(n) becomes a Fraction.  The upper parameter 1 in G_l's ratios cancels
    their n!: both integers of step n carry the factor n, divided out exactly."""
    levels = [(_ratios([1 + a - b0 - c0], [], 1), [1],
               _ratios([b1, c1, 1], [1 + a - b0, 1 + a - c0], 1), [1], [])
              for b0, c0, b1, c1 in zip(bs, cs, bs[1:], cs[1:])]
    den = 1
    for n in itertools.count():
        prev, step = [1], 1  # level 0: 1 at n = 0, then 0, over the denominator 1
        for rho_ratios, rising, g_ratios, g, f in levels:
            if n:
                num, rho_den = next(rho_ratios)
                rising[:] = [x * rho_den for x in rising] + [rising[-1] * num]
                num, g_den = next(g_ratios)
                g[0] *= num // n
                step *= rho_den * (g_den // n)
                f[:] = [x * step for x in f]
            f.append(g[0] * sum(x * y for x, y in zip(prev, reversed(rising))))
            prev = f
        den *= step
        yield Fraction(prev[-1], den)


def check_andrews_limit(s: int, a: Param, bs: Sequence[Param],
                        cs: Sequence[Param]) -> Tuple[ExtReal, ExtReal]:
    """The two sides of the 2s+4 F 2s+3 (-1) summation with s-fold nested-sum RHS.

    bs and cs hold the s+1 numerator-parameter pairs; the verification grid
    keeps the left side's convergence margin strictly positive.  The right
    side is a gamma ratio times, for s >= 1, one Levin sum of the ratios of
    the exact diagonals D(n+1) / D(n) (_diagonals).
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
    if not s:
        return lhs, pre
    ratios = (d1 / d0 for d0, d1 in itertools.pairwise(_diagonals(a, bs, cs)))
    total, _, _ = levin_sum((r.numerator, r.denominator) for r in ratios)
    return lhs, pre * ExtReal.from_fraction(total)


def _core_series(x: Fraction, y: Fraction) -> ExtReal:
    """sum_{m>=1} (x)_m (-x)_m / (m (1+y)_m (1-y)_m), via the shifted 4F3."""
    if x == 0:
        return ZERO
    f = evaluate(HypSpec.of([1 + x, 1 - x, 1, 1], [2 + y, 2 - y, 2], 1)).value
    return ExtReal.from_fraction(-x * x / (1 - y * y)) * f


def _odd_zeta_series(x: Fraction) -> ExtReal:
    """sum_{r>=1} zeta(2r+1) x^(2r) for |x| < 1/2, as x^2/(1-x^2) +
    sum_{r<=29} (zeta(2r+1) - 1) x^(2r): one exact ring element, the
    rationals folded into x^60/(1-x^2), rounded once.  The omitted terms
    fall like (x/2)^(2r)/2, below 1e-42 at r = 30."""
    x2 = x * x
    return ZetaPoly.combination([(x2 ** r, zeta_reg(2 * r + 1)) for r in range(1, 30)]
                                + [(1, x2 ** 30 / (1 - x2))]).finite


def check_odd_zeta_series(x: Param) -> Tuple[ExtReal, ExtReal]:
    """The two sides of the digamma-derivative identity behind the fixed-weight sums:

    sum_{m>=1} (x)_m (-x)_m / (m (1+x)_m (1-x)_m) = -sum_{r>=1} zeta(2r+1) x^(2r)

    The first series is summed through the generic +1 evaluator (it is a
    balanced 4F3 after the index shift m = n+1); the second in the exact
    ring (_odd_zeta_series); both truncations are independent.
    """
    xf = _frac(x)
    if abs(xf) >= Fraction(1, 2):
        raise DomainError("requires |x| < 1/2")
    if xf == 0:
        return ZERO, ZERO
    return _core_series(xf, xf), -_odd_zeta_series(xf)
