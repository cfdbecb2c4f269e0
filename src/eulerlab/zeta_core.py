"""Single zeta values zeta(k), alternating zeta values zeta(k-bar), and the
regularized conventions zeta(0) = zeta(0-bar) = -1/2, zeta(1) = T,
zeta(1-bar) = -ln 2.

zeta(k) is an Euler-Maclaurin sum in double-double; the direct alternating
series zeta_bar_direct, a cross-check independent of the reflection formula,
runs in fixed point with hpreal's Euler averaging.

The divergent weight-1 value is carried symbolically: a RegValue is an element
of the ring R + R*T, where T stands for the regularized zeta(1).  Every
convergent quantity embeds with tcoef exactly zero.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .hpreal import (
    FIXED_ONE,
    DomainError,
    ExtReal,
    ONE,
    ZERO,
    const_ln2,
    em_coefficient,
    euler_average_fixed,
    from_fixed,
    to_decimal,
)

__all__ = [
    "WEIGHT_CAP",
    "RegValue",
    "SeriesResult",
    "zeta",
    "zeta_bar",
    "zeta_reg",
    "zeta_bar_direct",
]

WEIGHT_CAP = 60


@dataclass(frozen=True)
class SeriesResult:
    """Value of a truncated series plus bookkeeping of the truncation."""

    value: ExtReal
    terms_used: int
    tail_estimate: ExtReal

    def __post_init__(self):
        if float(self.tail_estimate) < 0.0:
            raise DomainError("tail_estimate must be nonnegative")


@dataclass(frozen=True)
class RegValue:
    """finite + tcoef * T, with T the symbolic divergent zeta(1).

    Products of two genuinely divergent values (T*T) never occur in any
    in-scope relation and are rejected outright.
    """

    finite: ExtReal
    tcoef: ExtReal

    @property
    def is_convergent(self) -> bool:
        return float(self.tcoef) == 0.0

    def __add__(self, other: "RegValue") -> "RegValue":
        return RegValue(self.finite + other.finite, self.tcoef + other.tcoef)

    def __sub__(self, other: "RegValue") -> "RegValue":
        return RegValue(self.finite - other.finite, self.tcoef - other.tcoef)

    def __neg__(self) -> "RegValue":
        return RegValue(-self.finite, -self.tcoef)

    def __mul__(self, other):
        if isinstance(other, RegValue):
            if float(self.tcoef) != 0.0 and float(other.tcoef) != 0.0:
                raise DomainError("T*T is not defined in the regularized ring")
            return RegValue(
                self.finite * other.finite,
                self.finite * other.tcoef + self.tcoef * other.finite,
            )
        return RegValue(self.finite * other, self.tcoef * other)

    __rmul__ = __mul__

    def __str__(self) -> str:
        if self.is_convergent:
            return to_decimal(self.finite)
        return f"{to_decimal(self.finite)} + ({to_decimal(self.tcoef)})*T"


# ---------------------------------------------------------------------------
# Euler-Maclaurin evaluation of zeta(k)
# ---------------------------------------------------------------------------

_EM_N, _EM_M = 40, 20


@lru_cache(maxsize=None)
def zeta(k: int) -> ExtReal:
    """zeta(k) for integer k in [2, 60], >= 30 correct digits:
    sum_{n<N} n^-k + N^(1-k)/(k-1) + N^-k/2 + Bernoulli corrections.

    With (N, M) = (40, 20) the first omitted correction is far below 1e-32
    for every k in [2, 60].
    """
    if k < 2:
        raise DomainError("zeta requires k >= 2; use zeta_reg for k in {0, 1}")
    if k > WEIGHT_CAP:
        raise DomainError(f"zeta weight must be <= {WEIGHT_CAP}")
    n = _EM_N
    total = ZERO
    for j in range(1, n):
        total = total + ONE / ExtReal.from_real(j ** k)
    nk = ExtReal.from_real(n) ** (-k)
    total = total + ExtReal.from_real(n) * nk / (k - 1) + nk / 2
    # + sum_j B_2j/(2j)! (k)_{2j-1} N^{1-k-2j}
    rising = k  # (k)_1
    npow = nk / n  # N^(-k-1)
    for j in range(1, _EM_M + 1):
        total = total + ExtReal.from_fraction(em_coefficient(j)) * rising * npow
        rising *= (k + 2 * j - 1) * (k + 2 * j)
        npow = npow / (n * n)
    return total


@lru_cache(maxsize=None)
def zeta_bar(k: int) -> ExtReal:
    """zeta(k-bar) = -(1 - 2^(1-k)) zeta(k) for k >= 2; -ln 2 at k = 1.

    The k = 1 value is the sum of the defining series sum (-1)^m/m and the
    k -> 1 limit of the reflection formula.
    """
    if k < 1 or k > WEIGHT_CAP:
        raise DomainError("zeta_bar requires 1 <= k <= 60; use zeta_reg for k = 0")
    if k == 1:
        return -const_ln2()
    return -(ONE - ExtReal(2.0 ** (1 - k))) * zeta(k)


def zeta_reg(k: int, bar: bool = False) -> RegValue:
    """Regularized zeta(k), or zeta(k-bar) if bar, at any weight in [0, 60].

    weight 0 -> -1/2 for both bar values; weight 1 -> the pure symbol T
    (unbarred) or -ln 2 (barred); weight >= 2 embeds the convergent value.
    """
    if not 0 <= k <= WEIGHT_CAP:
        raise DomainError(f"zeta weight must be in [0, {WEIGHT_CAP}]")
    if k == 0:
        return RegValue(ExtReal(-0.5), ZERO)
    if k == 1:
        if bar:
            return RegValue(-const_ln2(), ZERO)
        return RegValue(ZERO, ONE)
    return RegValue(zeta_bar(k) if bar else zeta(k), ZERO)


# ---------------------------------------------------------------------------
# Direct alternating series, used as a cross-check oracle for zeta_bar
# ---------------------------------------------------------------------------

def zeta_bar_direct(k: int) -> SeriesResult:
    """Euler-transform-accelerated partial sum of sum_{m>=1} (-1)^m m^-k.

    Independent of the reflection formula: the first 64 partial sums in fixed
    point, then 32 rounds of iterated forward-difference averaging.
    """
    if k < 1 or k > WEIGHT_CAP:
        raise DomainError(f"zeta_bar_direct requires 1 <= k <= {WEIGHT_CAP}")
    partials = []
    total = 0
    for m in range(1, 65):
        term = FIXED_ONE // m ** k
        total += -term if m % 2 else term
        partials.append(total)
    fixed, change = euler_average_fixed(partials, 32)
    value = from_fixed(fixed)
    floor = ExtReal(abs(float(value)) * 2.0 ** -100 + 1e-32)
    return SeriesResult(value=value, terms_used=64, tail_estimate=from_fixed(change) + floor)
