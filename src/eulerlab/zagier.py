"""The height-one family H(a,b) / H*(a,b): direct nested summation, the
binomial closed forms, the double-sum route, and the fixed-weight sum rules.

H(a,b) is the multiple zeta value with exponent tuple (2,...,2,3,2,...,2) --
a twos inside (before the 3, reading inner to outer), b twos outside; the
starred variant relaxes the strict inequalities.  Direct evaluation walks
the summation range with the nested engine of euler_sums, whose tail is
built level by level from each level's remainder expansion.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Tuple

from .hpreal import DomainError, ExtReal, ZERO, binom, sinc_pi
from .zeta_core import SeriesResult, ZetaPoly, zeta_bar, zeta_reg
from .euler_sums import DEFAULT_N_MAX, DoubleIndex, _direct, closed_bar_s, double_direct
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
    """Index (a, b, star) of H(a,b) or H*(a,b); direct evaluation needs depth
    a+b+1 <= _DIRECT_DEPTH_CAP."""

    a: int
    b: int
    star: bool = False

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise DomainError("H indices must be nonnegative")

    @property
    def exponents(self) -> Tuple[int, ...]:
        return (2,) * self.a + (3,) + (2,) * self.b

    @property
    def nested(self) -> tuple:
        """(exponents, bars, star) of this sum for euler_sums' nested engine."""
        if self.a + self.b >= _DIRECT_DEPTH_CAP:
            raise DomainError(f"direct evaluation capped at a+b <= {_DIRECT_DEPTH_CAP - 1}")
        return self.exponents, (False,) * (self.a + self.b + 1), self.star


@lru_cache(maxsize=None)
def _h_single(a: int, star: bool) -> ZetaPoly:
    if a < 0 or a > 20:
        raise DomainError("h_single requires 0 <= a <= 20")
    if a == 0:
        return ZetaPoly.of(1)
    if star:
        return -2 * zeta_reg(2 * a, True)
    return _h_single(a - 1, False) * zeta_reg(2) * Fraction(3, a * (2 * a + 1))  # pi^2 = 6 zeta(2)


def h_single(a: int, star: bool = False) -> ExtReal:
    """H(a) = pi^(2a)/(2a+1)! and H*(a) = -2 zeta(2a-bar); H(0) = H*(0) = 1."""
    return _h_single(a, star).finite


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
    return _direct((exps, (False,) * d, star), n_max)


def h_direct(idx: HIndex, n_max: int = DEFAULT_N_MAX) -> SeriesResult:
    """H(a,b) or H*(a,b) by direct nested summation; depth a+b+1 <= _DIRECT_DEPTH_CAP."""
    return _direct(idx.nested, n_max)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _h(a: int, b: int, star: bool) -> ZetaPoly:
    """H(a,b) = 2 sum_{r<=K} (-1)^r [C(2r,2a+2) zeta(2r+1)
    + C(2r,2b+1) zeta(2r+1-bar)] H(K-r),  K = a+b+1;
    H*(a,b) = -2 sum_{r<=K} {[C(2r,2a) - delta_{r,a}] zeta(2r+1)
    + C(2r,2b+1) zeta(2r+1-bar)} H*(K-r), a linear form over the products
    _zeta_times_h shares; a repeat returns it with its finite part rounded."""
    k = a + b + 1
    if k > 20:
        raise DomainError("closed forms capped at K = 20")
    pairs = []
    for r in range(1, k + 1):
        c_plain = (binom(2 * r, 2 * a) - (r == a)) if star else binom(2 * r, 2 * a + 2)
        sign = -2 if star or r % 2 else 2
        for c, bar in ((c_plain, False), (binom(2 * r, 2 * b + 1), True)):
            if c:
                pairs.append((sign * c, _zeta_times_h(2 * r + 1, bar, k - r, star)))
    return ZetaPoly.combination(pairs)


@lru_cache(maxsize=None)
def _zeta_times_h(w: int, bar: bool, n: int, star: bool) -> ZetaPoly:
    """zeta(w; bar) H(n), or H*(n) if star, shared by every closed form of K = n + (w-1)/2."""
    return zeta_reg(w, bar) * _h_single(n, star)


def h_closed(a: int, b: int) -> ExtReal:
    """H(a,b) from its binomial closed form (see _h)."""
    return _h(a, b, False).finite


def hstar_closed(a: int, b: int) -> ExtReal:
    """H*(a,b) from its binomial closed form (see _h)."""
    return _h(a, b, True).finite


def _pilehrood_index(a: int, b: int) -> DoubleIndex:
    """zeta(2a+1, 2b+2-bar), the double sum of hstar_pilehrood."""
    return DoubleIndex(2 * a + 1, 2 * b + 2, False, True)


def hstar_pilehrood(a: int, b: int, n_max: int = DEFAULT_N_MAX) -> ExtReal:
    """H*(a,b) = -4 zeta(2a+1, 2b+2-bar) - 2 zeta(2a+2b+3-bar), the double sum
    taken directly."""
    if a < 0 or b < 0:
        raise DomainError("indices must be nonnegative")
    dd = double_direct(_pilehrood_index(a, b), n_max).value
    return -4 * dd - 2 * zeta_bar(2 * a + 2 * b + 3)


def hstar_closed_via_double(a: int, b: int) -> ExtReal:
    """Same identity as hstar_pilehrood but with the double sum from its own
    closed form: a pure closed-form re-derivation of H*(a,b)."""
    return (-4 * closed_bar_s(2 * a + 1, 2 * b + 2) - 2 * zeta_reg(2 * a + 2 * b + 3, True)).finite


# ---------------------------------------------------------------------------
# Fixed-weight sum rules
# ---------------------------------------------------------------------------

def sum_identities(k: int) -> Tuple[Tuple[ZetaPoly, ZetaPoly], Tuple[ZetaPoly, ZetaPoly]]:
    """The two sides, (lhs, rhs), of each fixed-weight sum identity at K = k,
    as ring elements, H's first:

    sum_{a+b=K-1} H(a,b)  = sum_r (-1)^(r-1) H(K-r) zeta(2r+1)
    sum_{a+b=K-1} H*(a,b) = sum_r H*(K-r) zeta(2r+1)
    """
    if k < 1:
        raise DomainError("sum identities require K >= 1")
    return tuple((ZetaPoly.sum(_h(a, k - 1 - a, star) for a in range(k)),
                  ZetaPoly.combination((1 if star else (-1) ** (r - 1), _zeta_times_h(2 * r + 1, False, k - r, star))
                                       for r in range(1, k + 1))) for star in (False, True))


def _weighted_hstar(k: int, scale: Fraction, r: Optional[int] = None) -> ZetaPoly:
    """scale * sum_{a+b=K-1} (1 + delta_{a,0}/2 - K delta_{a,r}) H*(a,b)."""
    return ZetaPoly.combination((scale * (1 + (Fraction(1, 2) if a == 0 else 0) - (k if a == r else 0)),
                                 _h(a, k - 1 - a, True)) for a in range(k))


def zeta_bar_odd_from_hstar(k: int) -> ExtReal:
    """zeta(2K+1-bar) = -(1/2K) sum_{a+b=K-1} (1 + delta_{a,0}/2) H*(a,b)."""
    if k < 1:
        raise DomainError("requires K >= 1")
    return _weighted_hstar(k, Fraction(-1, 2 * k)).finite


def zeta_from_hstar(r: int, s: int) -> ExtReal:
    """zeta(2r+1, 2s-bar) = (1/4K) sum_{a+b=K-1}
    (1 + delta_{a,0}/2 - K delta_{a,r}) H*(a,b),  K = r+s."""
    if r < 0 or s < 1:
        raise DomainError("requires r >= 0 and s >= 1")
    k = r + s
    return _weighted_hstar(k, Fraction(1, 4 * k), r).finite


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
    return sinc_pi(yf) * _core_series(xf, yf)


def eval_Fstar(x, y) -> ExtReal:
    """F*(x,y) = sum H*(a,b) x^(2a) y^(2b+2) = -(pi y / sin pi y) * core(y; x)."""
    xf, yf = Fraction(x), Fraction(y)
    _check_box(xf, yf)
    if yf == 0:
        return ZERO
    return -_core_series(yf, xf) / sinc_pi(yf)
