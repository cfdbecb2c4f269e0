"""Single zeta values zeta(k), alternating zeta values zeta(k-bar), the
regularized conventions zeta(0) = zeta(0-bar) = -1/2, zeta(1) = T,
zeta(1-bar) = -ln 2, and the exact ring ZetaPoly of closed forms.

A ZetaPoly has rational coefficients on monomials in pi, ln 2, T and the odd
zeta values: zeta(2n) enters as a Bernoulli rational times pi^2n and
zeta(k-bar) as -(1 - 2^(1-k)) zeta(k), so identities among closed forms
cancel exactly; a sum stays a linear form over shared elements, each
evaluated once.  zeta(k) and zeta_bar(k) cache their rounded values.  The
direct alternating series zeta_bar_direct, a cross-check independent of the
reflection formula, is summed by hpreal's Levin transform on its exact terms.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .hpreal import DomainError, ExtReal, _round, bernoulli, em_remainder, levin_sum, pi_ln2_fixed

__all__ = ["WEIGHT_CAP", "ZetaPoly", "SeriesResult", "zeta", "zeta_bar", "zeta_reg",
           "zeta_bar_direct"]

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


# Ring elements are evaluated at 2^-_BITS: closed forms cancel at most ~2^58
# (double sums, k <= 39) and ~2^139 (H and H*, K <= 20) of their terms' size,
# which leaves at least 180 bits for the one rounding to ExtReal.
_BITS = 320

# A monomial is the sorted tuple of its generators, repeated by power: an odd
# w >= 3 stands for zeta(w), _T for the regularized zeta(1), _PI and _LN2 for
# pi and ln 2; () is 1.
_PI, _LN2, _T = -1, 0, 1

_DEPTH = 64  # deepest nesting of linear forms (the library's is at most 3)


def _ratio_sum(parts: list) -> tuple:
    """sum n / d over (n, d) pairs as (num, den), den the lcm of the d."""
    if len(parts) == 1:
        return parts[0]
    den = math.lcm(*(d for _, d in parts))
    return sum(n * (den // d) for n, d in parts), den


@lru_cache(maxsize=None)
def _generator(g: int) -> int:
    """The generator g times 2^_BITS: pi and ln 2 from hpreal.pi_ln2_fixed,
    zeta(w) by Euler-Maclaurin at N = 2^8 (so N^-w is a shift) with 16 guard
    bits, sum_{m<N} m^-w + N^(1-w)/(w-1) plus hpreal.em_remainder's terms
    c N^-p, up to the first below the unit (25 corrections at w = 3)."""
    if g in (_PI, _LN2):
        return pi_ln2_fixed(_BITS)[g == _LN2]
    one = 1 << (_BITS + 16)
    total = sum(one // m ** g for m in range(1, 256)) + (one >> 8 * g - 8) // (g - 1)
    for c, p in em_remainder(g):
        term = one * c.numerator // c.denominator >> 8 * p
        if term in (0, -1):
            return total >> 16
        total += term


@lru_cache(maxsize=None)
def _monomial(mono: tuple) -> tuple:
    """(the power of T in a monomial, the product of its other generators times 2^_BITS)."""
    value = 1 << _BITS
    for g in mono:
        if g != _T:
            value = value * _generator(g) >> _BITS
    return mono.count(_T), value


class ZetaPoly:
    """Exact element of Q[pi, ln 2, zeta(3), zeta(5), ..., T], read-only
    since cached elements are shared: a leaf, given by its `terms`
    (monomials -> nonzero Fractions), or a linear form of (weight, element)
    pairs from `combination`, whose terms are collected only when `terms`,
    `*` or `==` asks.  Ints, Fractions and ExtReals (as the exact dyadic
    rationals they hold) combine with it as constants.

    `finite` (T := 0) and `tcoef` (the coefficient of T) are linear: the
    exact sum of c_m v_m, v_m a monomial's value at 2^-320, is a leaf's sum
    over its terms or a linear form's over its children's exact parts (each
    keeps both, once known), whatever the order or nesting, and is rounded
    once, by hpreal._round, to the nearest ExtReal.  T*T is rejected."""

    __slots__ = ("_terms", "_weights", "_elements", "_depth", "_num", "_den", "_tpart", "_finite")

    def __init__(self, terms=()):
        self._terms = {m: c for m, c in dict(terms).items() if c}
        self._weights, self._elements, self._depth = None, None, 0  # a leaf
        self._num = self._den = self._tpart = self._finite = None  # exact and rounded parts, once known

    @staticmethod
    def of(x) -> "ZetaPoly":
        """x if it is a ring element, else the constant x."""
        if isinstance(x, ZetaPoly):
            return x
        return ZetaPoly({(): x.to_fraction() if isinstance(x, ExtReal) else Fraction(x)})

    @staticmethod
    def combination(pairs) -> "ZetaPoly":
        """sum w * e over (weight, element) pairs, the weights ints or
        Fractions and the elements ring elements or constants, kept as a
        linear form; one nested more than _DEPTH deep is collected into a
        leaf, so that no evaluation recurses deeper."""
        kept = [(w, ZetaPoly.of(e)) for w, e in pairs if w]
        element = object.__new__(ZetaPoly)
        element._weights, element._elements = zip(*kept) if kept else ((), ())
        element._depth = 1 + max([e._depth for e in element._elements], default=0)
        element._terms = element._num = element._den = element._tpart = element._finite = None
        return ZetaPoly(element.terms) if element._depth > _DEPTH else element

    @staticmethod
    def finites(rows) -> list:
        """[combination(zip(weights, elements)).finite for each (weights,
        elements) row], bit for bit, for int weights: each distinct element's
        exact finite part is scaled once to one common denominator, so a row is
        one integer dot product, rounded once."""
        distinct = {id(e): e for _, elements in rows for e in elements}
        parts = {key: e._scaled_part(0) for key, e in distinct.items()}
        den = math.lcm(*(d for _, d in parts.values()))
        scaled = {key: n * (den // d) for key, (n, d) in parts.items()}
        den <<= _BITS
        return [_round(sum(map(operator.mul, weights, map(scaled.__getitem__, map(id, elements)))), den)
                for weights, elements in rows]

    @staticmethod
    def sum(elements) -> "ZetaPoly":
        """The sum of ring elements and constants: combination with weight 1."""
        return ZetaPoly.combination((1, e) for e in elements)

    @property
    def terms(self) -> MappingProxyType:
        """Monomials -> nonzero Fractions; a linear form collects each
        monomial's integer numerators over one denominator on first use."""
        if self._terms is None:
            acc: dict = {}  # monomial -> its (numerator, denominator) pairs
            for w, e in zip(self._weights, self._elements):
                for m, c in e.terms.items():
                    acc.setdefault(m, []).append((w.numerator * c.numerator, w.denominator * c.denominator))
            self._terms = {m: c for m, parts in acc.items() for c in (Fraction(*_ratio_sum(parts)),) if c}
        return MappingProxyType(self._terms)

    def _exact_part(self, t_degree: int) -> tuple:
        """(num, den): num / den is exactly the part of T-degree t_degree."""
        num, den = self._scaled_part(t_degree)
        return num, den << _BITS

    def _scaled_part(self, t_degree: int) -> tuple:
        """(num, den): num / den is exactly the part of T-degree t_degree times 2^_BITS."""
        if t_degree == 0 and self._den:
            return self._num, self._den
        if t_degree and self._tpart:
            return self._tpart
        if self._elements is None:
            part = _ratio_sum([(c.numerator * v, c.denominator) for m, c in self._terms.items()
                               for t, v in (_monomial(m),) if t == t_degree])
        else:
            part = _ratio_sum([(w.numerator * n, w.denominator * d)
                               for w, e in zip(self._weights, self._elements)
                               for n, d in (e._scaled_part(t_degree),) if n])
        if t_degree == 0:
            self._num, self._den = part
        else:
            self._tpart = part
        return part

    @property
    def finite(self) -> ExtReal:
        if self._finite is None:
            self._finite = _round(*self._exact_part(0))
        return self._finite

    @property
    def tcoef(self) -> ExtReal:
        return _round(*self._exact_part(1))

    def __add__(self, other) -> "ZetaPoly":
        return ZetaPoly.sum((self, other))

    def __neg__(self) -> "ZetaPoly":
        return self * -1

    def __sub__(self, other) -> "ZetaPoly":
        return ZetaPoly.combination(((1, self), (-1, other)))

    def __mul__(self, other) -> "ZetaPoly":
        if isinstance(other, (int, Fraction)):
            return ZetaPoly.combination(((other, self),))
        terms: dict = {}
        for m2, c2 in ZetaPoly.of(other).terms.items():
            for m1, c1 in self.terms.items():
                m = tuple(sorted(m1 + m2)) if m2 else m1
                if m.count(_T) > 1:
                    raise DomainError("T*T is not defined in the regularized ring")
                terms[m] = terms[m] + c1 * c2 if m in terms else c1 * c2
        return ZetaPoly(terms)

    __radd__, __rmul__ = __add__, __mul__

    def __eq__(self, other) -> bool:
        known = isinstance(other, (ZetaPoly, int, Fraction, ExtReal))
        return self.terms == ZetaPoly.of(other).terms if known else NotImplemented

    __hash__ = None


def _single(k: int, bar: bool) -> dict:
    """Terms of zeta(k), k >= 2, or zeta(k-bar), k >= 1, with
    zeta(2n) = (-1)^(n+1) B_2n 2^(2n-1) / (2n)! pi^2n."""
    if bar and k == 1:
        return {(_LN2,): Fraction(-1)}
    scale = Fraction(1, 1 << (k - 1)) - 1 if bar else Fraction(1)
    if k % 2:
        return {(k,): scale}
    return {(_PI,) * k: scale * (-1) ** (k // 2 + 1) * bernoulli(k) * (1 << (k - 1)) / math.factorial(k)}


@lru_cache(maxsize=None)
def zeta(k: int) -> ExtReal:
    """zeta(k) for integer k in [2, 60], the double-double nearest it."""
    if not 2 <= k <= WEIGHT_CAP:
        raise DomainError(f"zeta requires 2 <= k <= {WEIGHT_CAP}; use zeta_reg for k in {{0, 1}}")
    return ZetaPoly(_single(k, False)).finite


@lru_cache(maxsize=None)
def zeta_bar(k: int) -> ExtReal:
    """zeta(k-bar) = -(1 - 2^(1-k)) zeta(k) for k >= 2; -ln 2 at k = 1, the
    sum of sum (-1)^m/m and the k -> 1 limit of the reflection formula."""
    if k < 1 or k > WEIGHT_CAP:
        raise DomainError("zeta_bar requires 1 <= k <= 60; use zeta_reg for k = 0")
    return ZetaPoly(_single(k, True)).finite


@lru_cache(maxsize=None)
def zeta_reg(k: int, bar: bool = False) -> ZetaPoly:
    """Regularized zeta(k), or zeta(k-bar) if bar, for k in [0, 60]: -1/2 at
    k = 0, T or -ln 2 at k = 1, else an element whose finite part is zeta(k)
    or zeta_bar(k) from their caches, so it is rounded only once; one shared
    element per (k, bar)."""
    if not 0 <= k <= WEIGHT_CAP:
        raise DomainError(f"zeta weight must be in [0, {WEIGHT_CAP}]")
    if k == 0:
        return ZetaPoly({(): Fraction(-1, 2)})
    if k == 1 and not bar:
        return ZetaPoly({(_T,): Fraction(1)})
    element = ZetaPoly(_single(k, bar))
    element._finite = zeta_bar(k) if bar else zeta(k)
    return element


def zeta_bar_direct(k: int) -> SeriesResult:
    """sum_{m>=1} (-1)^m m^-k by the Levin transform (hpreal.levin_sum) of
    its exact terms, independent of the reflection formula."""
    if k < 1 or k > WEIGHT_CAP:
        raise DomainError(f"zeta_bar_direct requires 1 <= k <= {WEIGHT_CAP}")
    total, est, n = levin_sum((-(m ** k), (m + 1) ** k) for m in itertools.count(1))
    return SeriesResult(value=-ExtReal.from_fraction(total), terms_used=n, tail_estimate=ExtReal(est))
