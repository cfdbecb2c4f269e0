"""The height-one family H(a,b) / H*(a,b): direct nested summation, the
binomial closed forms, the double-sum route, and the fixed-weight sum rules.

H(a,b) is the multiple zeta value with exponent tuple (2,...,2,3,2,...,2) --
a twos inside (before the 3, reading inner to outer), b twos outside; the
starred variant relaxes the strict inequalities.  Direct evaluation walks
the summation range with the nested engine of euler_sums, whose tail is
built level by level from each level's remainder expansion.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .hpreal import DomainError, ExtReal, ONE, ZERO, binom, const_pi, sinc_pi
from .zeta_core import SeriesResult, zeta, zeta_bar
from .euler_sums import (
    DEFAULT_N_MAX,
    N_MAX_CAP,
    DoubleIndex,
    _nested_direct,
    closed_bar_s,
    double_direct,
)
from .hypergeom import _core_series

__all__ = [
    "HIndex",
    "h_single",
    "h_direct",
    "mzv_direct",
    "h_closed",
    "hstar_closed",
    "hstar_pilehrood",
    "hstar_closed_via_double",
    "sum_identities",
    "zeta_bar_odd_from_hstar",
    "zeta_from_hstar",
    "eval_F",
    "eval_Fstar",
]

_DIRECT_DEPTH_CAP = 9


@dataclass(frozen=True)
class HIndex:
    """Index (a, b, star) of H(a,b) or H*(a,b); direct evaluation needs a+b <= 8."""

    a: int
    b: int
    star: bool = False

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise DomainError("H indices must be nonnegative")

    @property
    def exponents(self) -> Tuple[int, ...]:
        return (2,) * self.a + (3,) + (2,) * self.b


def h_single(a: int, star: bool = False) -> ExtReal:
    """H(a) = pi^(2a)/(2a+1)! and H*(a) = -2 zeta(2a-bar); H(0) = H*(0) = 1."""
    if a < 0 or a > 20:
        raise DomainError("h_single requires 0 <= a <= 20")
    if a == 0:
        return ONE
    if star:
        return -2 * zeta_bar(2 * a)
    return const_pi() ** (2 * a) / ExtReal.from_fraction(Fraction(math.factorial(2 * a + 1)))


# ---------------------------------------------------------------------------
# Direct nested summation
# ---------------------------------------------------------------------------

def mzv_direct(exponents: Sequence[int], star: bool = False,
               n_max: int = DEFAULT_N_MAX) -> SeriesResult:
    """Direct multiple zeta (star) value for an exponent tuple, inner to outer,
    by euler_sums' nested engine (double_direct is its depth-2 case): the
    tail is built level by level, cross terms included, and tail_estimate is
    the first omitted order plus float64 noise.  All exponents must be >= 2."""
    exps = tuple(int(e) for e in exponents)
    d = len(exps)
    if d == 0 or d > _DIRECT_DEPTH_CAP:
        raise DomainError(f"direct summation supports depth 1..{_DIRECT_DEPTH_CAP}")
    if any(e < 2 for e in exps):
        raise DomainError("direct nested summation requires all exponents >= 2")
    if not 100 <= n_max <= N_MAX_CAP:
        raise DomainError(f"mzv_direct requires 100 <= n_max <= {N_MAX_CAP}")
    value, est = _nested_direct(exps, (False,) * d, star, n_max)
    return SeriesResult(value=value, terms_used=n_max, tail_estimate=est)


def h_direct(idx: HIndex, n_max: int = DEFAULT_N_MAX) -> SeriesResult:
    """H(a,b) or H*(a,b) by direct nested summation; depth a+b+1 <= 9."""
    if idx.a + idx.b > 8:
        raise DomainError("direct evaluation capped at a+b <= 8")
    return mzv_direct(idx.exponents, star=idx.star, n_max=n_max)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def _h_closed(a: int, b: int, star: bool) -> ExtReal:
    """sum_{r<=K} sign_r {c_r zeta(2r+1) + C(2r,2b+1) zeta(2r+1-bar)} H(K-r),
    K = a+b+1: c_r = C(2r,2a+2), sign_r = (-1)^r for H; c_r = C(2r,2a) -
    delta_{r,a}, sign_r = 1 and H* in place of H for H*."""
    k = a + b + 1
    if k > 20:
        raise DomainError("closed forms capped at K = 20")
    total = ZERO
    for r in range(1, k + 1):
        c_plain = (binom(2 * r, 2 * a) - (r == a)) if star else binom(2 * r, 2 * a + 2)
        coeff = c_plain * zeta(2 * r + 1) + binom(2 * r, 2 * b + 1) * zeta_bar(2 * r + 1)
        term = coeff * h_single(k - r, star)
        total = total - term if r % 2 and not star else total + term
    return total


def h_closed(a: int, b: int) -> ExtReal:
    """H(a,b) = 2 sum_{r<=K} (-1)^r [C(2r,2a+2) zeta(2r+1)
    + C(2r,2b+1) zeta(2r+1-bar)] H(K-r),  K = a+b+1."""
    return 2 * _h_closed(a, b, False)


def hstar_closed(a: int, b: int) -> ExtReal:
    """H*(a,b) = -2 sum_{r<=K} {[C(2r,2a) - delta_{r,a}] zeta(2r+1)
    + C(2r,2b+1) zeta(2r+1-bar)} H*(K-r)."""
    return -2 * _h_closed(a, b, True)


def hstar_pilehrood(a: int, b: int, n_max: int = DEFAULT_N_MAX) -> ExtReal:
    """H*(a,b) = -4 zeta(2a+1, 2b+2-bar) - 2 zeta(2a+2b+3-bar), the double sum
    taken directly."""
    if a < 0 or b < 0:
        raise DomainError("indices must be nonnegative")
    dd = double_direct(DoubleIndex(2 * a + 1, 2 * b + 2, False, True), n_max).value
    return -4 * dd - 2 * zeta_bar(2 * a + 2 * b + 3)


def hstar_closed_via_double(a: int, b: int) -> ExtReal:
    """Same identity as hstar_pilehrood but with the double sum from its own
    closed form: a pure closed-form re-derivation of H*(a,b)."""
    dd = closed_bar_s(2 * a + 1, 2 * b + 2).finite
    return -4 * dd - 2 * zeta_bar(2 * a + 2 * b + 3)


# ---------------------------------------------------------------------------
# Fixed-weight sum rules
# ---------------------------------------------------------------------------

def sum_identities(k: int) -> Tuple[ExtReal, ExtReal]:
    """Residuals of the two fixed-weight sum identities at K = k:

    sum_{a+b=K-1} H(a,b)  = sum_r (-1)^(r-1) H(K-r) zeta(2r+1)
    sum_{a+b=K-1} H*(a,b) = sum_r H*(K-r) zeta(2r+1)
    """
    if not 1 <= k <= 6:
        raise DomainError("sum identities verified for 1 <= K <= 6")
    lhs_h = ZERO
    lhs_hs = ZERO
    for a in range(k):
        b = k - 1 - a
        lhs_h = lhs_h + h_closed(a, b)
        lhs_hs = lhs_hs + hstar_closed(a, b)
    rhs_h = ZERO
    rhs_hs = ZERO
    for r in range(1, k + 1):
        term = h_single(k - r) * zeta(2 * r + 1)
        rhs_h = rhs_h + term if r % 2 else rhs_h - term
        rhs_hs = rhs_hs + h_single(k - r, star=True) * zeta(2 * r + 1)
    return (lhs_h - rhs_h, lhs_hs - rhs_hs)


def _weighted_hstar(k: int, r: Optional[int] = None) -> ExtReal:
    """sum_{a+b=K-1} (1 + delta_{a,0}/2 - K delta_{a,r}) H*(a,b), zero weights skipped."""
    total = ZERO
    for a in range(k):
        w = Fraction(1) + (Fraction(1, 2) if a == 0 else 0) - (k if a == r else 0)
        if w:
            total = total + ExtReal.from_fraction(w) * hstar_closed(a, k - 1 - a)
    return total


def zeta_bar_odd_from_hstar(k: int) -> ExtReal:
    """zeta(2K+1-bar) = -(1/2K) sum_{a+b=K-1} (1 + delta_{a,0}/2) H*(a,b)."""
    if not 1 <= k <= 6:
        raise DomainError("verified for 1 <= K <= 6")
    return -_weighted_hstar(k) / (2 * k)


def zeta_from_hstar(r: int, s: int) -> ExtReal:
    """zeta(2r+1, 2s-bar) = (1/4K) sum_{a+b=K-1}
    (1 + delta_{a,0}/2 - K delta_{a,r}) H*(a,b),  K = r+s."""
    if r < 0 or s < 1:
        raise DomainError("requires r >= 0 and s >= 1")
    k = r + s
    if k > 6:
        raise DomainError("verified for K <= 6")
    return _weighted_hstar(k, r) / (4 * k)


# ---------------------------------------------------------------------------
# Generating functions F(x,y), F*(x,y)
# ---------------------------------------------------------------------------

def _check_box(x: Fraction, y: Fraction) -> None:
    if abs(x) > Fraction(1, 2) or abs(y) > Fraction(1, 2):
        raise DomainError("generating functions evaluated for |x|, |y| <= 1/2 only")


def eval_F(x, y) -> ExtReal:
    """F(x,y) = sum (-1)^(a+b+1) H(a,b) x^(2a+2) y^(2b), via the derivative
    representation (sin(pi y)/(pi y)) * core series."""
    xf, yf = Fraction(x), Fraction(y)
    _check_box(xf, yf)
    if xf == 0:
        return ZERO
    return sinc_pi(ExtReal.from_fraction(yf)) * _core_series(xf, yf)


def eval_Fstar(x, y) -> ExtReal:
    """F*(x,y) = sum H*(a,b) x^(2a) y^(2b+2) = -(pi y / sin pi y) * core(y; x)."""
    xf, yf = Fraction(x), Fraction(y)
    _check_box(xf, yf)
    if yf == 0:
        return ZERO
    return -_core_series(yf, xf) / sinc_pi(ExtReal.from_fraction(yf))
