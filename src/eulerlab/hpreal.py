"""Double-double arithmetic kernel, mathematical constants, Bernoulli numbers
and exact binomial coefficients.

An ExtReal is the unevaluated sum of two machine doubles (hi, lo) kept in
canonical form (|lo| <= ulp(hi)/2), giving roughly 31-32 significant decimal
digits.  All operations here are pure; values are immutable after
construction, so everything in this module is safe to share across threads.

Hot loops (exp, ln, log-gamma, Bernoulli polynomials, sinc, the Euler
averaging of alternating series, hypergeometric sums) run in fixed point: an
int N stands for N * 2^-FIXED_BITS.  ExtReal stays the public value type;
`to_fixed` and `from_fixed` convert at the boundary.  pi and ln 2 are exact
rational series, rounded once to ExtReal and once to fixed point.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

__all__ = [
    "DomainError",
    "ExtReal",
    "const_pi",
    "const_ln2",
    "const_gamma_f64",
    "bernoulli",
    "bernoulli_first",
    "bernoulli_poly",
    "em_coefficient",
    "binom",
    "exp_dd",
    "ln_dd",
    "sinc_pi",
    "to_decimal",
    "parse_decimal",
]


class DomainError(ValueError):
    """An argument is outside the domain an operation is specified for."""


# ---------------------------------------------------------------------------
# Error-free transformations
# ---------------------------------------------------------------------------

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker split constant


def _two_sum(a: float, b: float):
    """(s, e) with s = fl(a+b) and s + e == a + b exactly."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_two_sum(a: float, b: float):
    """Like _two_sum but requires |a| >= |b|."""
    s = a + b
    return s, b - (s - a)


def _two_prod(a: float, b: float):
    """(p, e) with p = fl(a*b) and p + e == a * b exactly (Dekker split)."""
    p = a * b
    c = _SPLITTER * a
    ahi = c - (c - a)
    alo = a - ahi
    c = _SPLITTER * b
    bhi = c - (c - b)
    blo = b - bhi
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


Real = Union["ExtReal", int, float, Fraction]


class ExtReal:
    """Immutable double-double real: value == hi + lo, canonical form."""

    __slots__ = ("hi", "lo")

    def __init__(self, hi: float = 0.0, lo: float = 0.0):
        h, l = _two_sum(float(hi), float(lo))
        if not math.isfinite(h):
            raise DomainError(f"ExtReal needs finite parts, got {hi!r}, {lo!r}")
        object.__setattr__(self, "hi", h)
        object.__setattr__(self, "lo", l)

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("ExtReal is immutable")

    # -- construction -------------------------------------------------------
    @staticmethod
    def from_fraction(f: Fraction) -> "ExtReal":
        hi = _double(f)
        lo = float(f - Fraction(hi))
        return _mk(*_quick_two_sum(hi, lo))

    @staticmethod
    def from_real(x: Real) -> "ExtReal":
        if isinstance(x, ExtReal):
            return x
        if isinstance(x, Fraction):
            return ExtReal.from_fraction(x)
        if isinstance(x, int):
            if abs(x) <= 1 << 53:
                return _mk(float(x), 0.0)
            return ExtReal.from_fraction(Fraction(x))
        return _mk(float(x), 0.0)

    # -- conversions ---------------------------------------------------------
    def to_fraction(self) -> Fraction:
        return Fraction(self.hi) + Fraction(self.lo)

    def __float__(self) -> float:
        return self.hi + self.lo

    def __repr__(self) -> str:
        return f"ExtReal({self.hi!r}, {self.lo!r})"

    def __str__(self) -> str:
        return to_decimal(self, 32)

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other: Real) -> "ExtReal":
        o = ExtReal.from_real(other)
        s, e = _two_sum(self.hi, o.hi)
        t, f = _two_sum(self.lo, o.lo)
        e += t
        s, e = _quick_two_sum(s, e)
        e += f
        return _mk(*_quick_two_sum(s, e))

    __radd__ = __add__

    def __neg__(self) -> "ExtReal":
        return _mk(-self.hi, -self.lo)

    def __sub__(self, other: Real) -> "ExtReal":
        return self.__add__(-ExtReal.from_real(other))

    def __rsub__(self, other: Real) -> "ExtReal":
        return ExtReal.from_real(other).__sub__(self)

    def __mul__(self, other: Real) -> "ExtReal":
        o = ExtReal.from_real(other)
        p, e = _two_prod(self.hi, o.hi)
        e += self.hi * o.lo + self.lo * o.hi + self.lo * o.lo
        return _mk(*_quick_two_sum(p, e))

    __rmul__ = __mul__

    def __truediv__(self, other: Real) -> "ExtReal":
        o = ExtReal.from_real(other)
        if o.hi == 0.0 and o.lo == 0.0:
            raise DomainError("division by zero")
        q1 = self.hi / o.hi
        r = self - o * q1
        q2 = r.hi / o.hi
        r = r - o * q2
        q3 = r.hi / o.hi
        s, e = _quick_two_sum(q1, q2)
        t, f = _two_sum(e, q3)
        s, e = _quick_two_sum(s, t)
        return _mk(*_quick_two_sum(s, e + f))

    def __rtruediv__(self, other: Real) -> "ExtReal":
        return ExtReal.from_real(other).__truediv__(self)

    def __pow__(self, n: int) -> "ExtReal":
        if not isinstance(n, int):
            raise DomainError("only integer powers are supported")
        if n < 0:
            return ONE / self.__pow__(-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __abs__(self) -> "ExtReal":
        return -self if self.hi < 0.0 or (self.hi == 0.0 and self.lo < 0.0) else self

    # canonical form makes lexicographic (hi, lo) comparison exact
    def _cmp(self, other: Real) -> int:
        o = ExtReal.from_real(other)
        if self.hi != o.hi:
            return -1 if self.hi < o.hi else 1
        if self.lo != o.lo:
            return -1 if self.lo < o.lo else 1
        return 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, (ExtReal, int, float, Fraction)):
            return NotImplemented
        return self._cmp(other) == 0

    def __lt__(self, other: Real) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: Real) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: Real) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: Real) -> bool:
        return self._cmp(other) >= 0

    def __hash__(self):
        return hash((self.hi, self.lo))


def _double(f: Fraction) -> float:
    try:
        return float(f)
    except OverflowError as exc:
        raise DomainError("rational value outside the double range") from exc


def _mk(hi: float, lo: float) -> ExtReal:
    """Trusted constructor: (hi, lo) already canonical."""
    obj = object.__new__(ExtReal)
    object.__setattr__(obj, "hi", hi)
    object.__setattr__(obj, "lo", lo)
    return obj


ZERO = _mk(0.0, 0.0)
ONE = _mk(1.0, 0.0)


# ---------------------------------------------------------------------------
# Decimal conversion (exact, deterministic)
# ---------------------------------------------------------------------------

def parse_decimal(text: str) -> Fraction:
    """Exact Fraction from a decimal string, optional exponent part."""
    t = text.strip().lower()
    exp = 0
    if "e" in t:
        t, e = t.split("e", 1)
        exp = int(e)
    if "." in t:
        ip, fp = t.split(".", 1)
        exp -= len(fp)
        t = ip + fp
    value = Fraction(int(t or "0"))
    return value * Fraction(10) ** exp


def to_decimal(x: Union[ExtReal, float, Fraction], digits: int = 30) -> str:
    """Round x to `digits` significant decimal digits (half-even), exactly.

    Fixed-point form for moderate exponents, scientific otherwise; output is
    a pure decimal string, deterministic across platforms.
    """
    if digits < 1:
        raise DomainError("digits must be >= 1")
    if isinstance(x, Fraction):
        f = x
    elif not math.isfinite(float(x)):
        raise DomainError(f"cannot print the non-finite value {x!r}")
    elif isinstance(x, ExtReal):
        f = x.to_fraction()
    else:
        f = Fraction(float(x))
    if f == 0:
        return "0." + "0" * (digits - 1) if digits > 1 else "0"
    sign = "-" if f < 0 else ""
    f = -f if f < 0 else f
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
# Constants
# ---------------------------------------------------------------------------

def machin_pi_fraction(digits: int = 45) -> Fraction:
    """pi via Machin's formula in exact rational arithmetic.

    pi/4 = 4 atan(1/5) - atan(1/239); each arctangent series is truncated
    once the next term drops below 10**-(digits+5), and the alternating-series
    bound makes the result correct to `digits` digits.
    """
    bound = Fraction(1, 10 ** (digits + 5))

    def atan_inv(q: int) -> Fraction:
        total = Fraction(0)
        k = 0
        while True:
            term = Fraction(1, (2 * k + 1) * q ** (2 * k + 1))
            if term < bound:
                break
            total += -term if k % 2 else term
            k += 1
        return total

    return 16 * atan_inv(5) - 4 * atan_inv(239)


def atanh_ln2_fraction(digits: int = 45) -> Fraction:
    """ln 2 = 2 atanh(1/3) in exact rational arithmetic, truncated with bound."""
    bound = Fraction(1, 10 ** (digits + 5))
    total = Fraction(0)
    k = 0
    while True:
        term = Fraction(2, (2 * k + 1) * 3 ** (2 * k + 1))
        if term < bound:
            break
        total += term
        k += 1
    return total


# 62 digits: within 1e-67, below the fixed-point unit 2^-200
_PI_ORACLE, _LN2_ORACLE = machin_pi_fraction(62), atanh_ln2_fraction(62)
_PI, _LN2 = ExtReal.from_fraction(_PI_ORACLE), ExtReal.from_fraction(_LN2_ORACLE)


def const_pi() -> ExtReal:
    """pi, correct to >= 32 significant digits."""
    return _PI


def const_ln2() -> ExtReal:
    """ln 2, correct to >= 32 significant digits."""
    return _LN2


def const_gamma_f64() -> float:
    """Euler-Mascheroni constant, correctly rounded to double (tail-correction
    plumbing); tests/oracles.py checks it against a decimal Euler-Maclaurin sum."""
    return 0.5772156649015329


# ---------------------------------------------------------------------------
# Bernoulli numbers and binomial coefficients
# ---------------------------------------------------------------------------

_BERNOULLI_CAP = 60


@lru_cache(maxsize=None)
def _bernoulli_list(n: int) -> tuple:
    """B_0..B_n (first kind, B_1 = -1/2) via sum_{j<=n} C(n+1,j) B_j = 0."""
    if n == 0:
        return (Fraction(1),)
    prev = _bernoulli_list(n - 1)
    total = sum(Fraction(math.comb(n + 1, j)) * prev[j] for j in range(n))
    return prev + (-total / (n + 1),)


def bernoulli_first(n: int) -> Fraction:
    """B_n with B_1 = -1/2 (internal: Stirling series, Bernoulli polynomials)."""
    if n < 0 or n > _BERNOULLI_CAP:
        raise DomainError(f"Bernoulli index {n} outside [0, {_BERNOULLI_CAP}]")
    return _bernoulli_list(_BERNOULLI_CAP)[n]


def bernoulli(n: int) -> Fraction:
    """Exact B_n for even n in [0, 60]; odd or out-of-range index is an error."""
    if n < 0 or n % 2 == 1 or n > _BERNOULLI_CAP:
        raise DomainError(f"bernoulli requires an even index in [0, {_BERNOULLI_CAP}], got {n}")
    return bernoulli_first(n)


@lru_cache(maxsize=None)
def em_coefficient(j: int) -> Fraction:
    """kappa_j = B_2j / (2j)!, the j-th Euler-Maclaurin coefficient."""
    return bernoulli(2 * j) / math.factorial(2 * j)


def bernoulli_poly(m: int, a: Real) -> ExtReal:
    """Bernoulli polynomial B_m(a), evaluated in fixed point."""
    return from_fixed(bernoulli_fixed(m, to_fixed(ExtReal.from_real(a))))


_BINOM_CAP = 64


def binom(n: int, k: int) -> int:
    """Exact C(n, k); 0 when k < 0 or k > n; n capped at 64."""
    if n < 0 or n > _BINOM_CAP:
        raise DomainError(f"binom requires 0 <= n <= {_BINOM_CAP}, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


# ---------------------------------------------------------------------------
# Fixed point: the int N stands for N * 2^-FIXED_BITS.  These functions are
# the package's hot-loop kernel; they stay out of __all__ (and so out of
# perfbench's per-call tracing).
# ---------------------------------------------------------------------------

FIXED_BITS = 200
FIXED_ONE = 1 << FIXED_BITS


def _exact(x: ExtReal):
    """(n, k) with x == n * 2^(k - FIXED_BITS) exactly."""
    try:
        (hn, hd), (ln, ld) = x.hi.as_integer_ratio(), x.lo.as_integer_ratio()
    except (OverflowError, ValueError) as exc:
        raise DomainError(f"cannot convert the non-finite value {x!r} to fixed point") from exc
    d = max(hd, ld)  # both powers of two
    return hn * (d // hd) + ln * (d // ld), FIXED_BITS + 1 - d.bit_length()


def fixed_rational(x: Fraction) -> Fraction:
    """x itself if its numerator and denominator fit in FIXED_BITS bits, else
    x rounded to FIXED_BITS significant bits, so that exact sums over it cost
    a bounded amount per term: 0 below the normal doubles, DomainError above
    the double range."""
    if max(x.numerator.bit_length(), x.denominator.bit_length()) <= FIXED_BITS:
        return x
    f = _double(x)
    if abs(f) < 2.0 ** -1022:
        return Fraction(0)
    s = max(FIXED_BITS - math.frexp(f)[1], 0)
    return Fraction((x.numerator << s) // x.denominator, 1 << s)


def to_fixed(x: Union[ExtReal, Fraction, int]) -> int:
    """floor(x * 2^FIXED_BITS) of an ExtReal or an exact rational."""
    if not isinstance(x, ExtReal):
        x = Fraction(x)
        _double(x)  # DomainError beyond the double range
        return (x.numerator << FIXED_BITS) // x.denominator
    n, k = _exact(x)
    return n << k if k >= 0 else n >> -k


def from_fixed(n: int, k: int = 0) -> ExtReal:
    """The ExtReal nearest n * 2^(k - FIXED_BITS) (the low bits beyond 110 are cut)."""
    shift = max(n.bit_length() - 110, 0)
    m = n >> shift
    hi = float(m)
    try:
        return _mk(math.ldexp(hi, shift + k - FIXED_BITS),
                   math.ldexp(float(m - int(hi)), shift + k - FIXED_BITS))
    except OverflowError as exc:
        raise DomainError("fixed-point value outside the double range") from exc


def fixed_mul(a: int, b: int) -> int:
    return a * b >> FIXED_BITS


def fixed_div(a: int, b: int) -> int:
    return (a << FIXED_BITS) // b


_PI_FIXED, _LN2_FIXED = to_fixed(_PI_ORACLE), to_fixed(_LN2_ORACLE)


def exp_fixed(x: int):
    """(s, k) with exp(x 2^-P) = s 2^(k-P), P = FIXED_BITS, s in [1, 2) 2^P:
    x = k ln 2 + r, 0 <= r < ln 2, the Taylor series of exp(r / 2^12) until
    the term is 0, squared back 12 times."""
    k = x // _LN2_FIXED
    r = x - k * _LN2_FIXED
    term = s = FIXED_ONE
    i = 1
    while term:
        term = (term * r >> (FIXED_BITS + 12)) // i
        s += term
        i += 1
    for _ in range(12):
        s = s * s >> FIXED_BITS
    return s, k


def ln_fixed(n: int, k: int = 0) -> int:
    """ln(n 2^(k-P)) 2^P for n > 0, P = FIXED_BITS: n = m 2^e with m in
    [1, 2) 2^P, and two Newton steps y += m exp(-y) - 1 take the double log
    of m to the full P bits."""
    e = n.bit_length() - 1 - FIXED_BITS
    m = n >> e if e >= 0 else n << -e
    y = int(math.log(m / FIXED_ONE) * 2.0 ** 53) << (FIXED_BITS - 53)
    for _ in range(2):
        s, j = exp_fixed(-y)
        y += (m * s >> (FIXED_BITS - j)) - FIXED_ONE
    return y + (e + k) * _LN2_FIXED


_HALF_LN_2PI = ln_fixed(2 * _PI_FIXED) >> 1


@lru_cache(maxsize=None)
def _bernoulli_row(m: int) -> tuple:
    return tuple(to_fixed(math.comb(m, i) * bernoulli_first(i)) for i in range(m + 1))


def bernoulli_fixed(m: int, x: int) -> int:
    """B_m(x) = sum C(m,i) B_i x^(m-i) for fixed-point x, by Horner's rule with
    the exact coefficients rounded once."""
    acc = 0
    for c in _bernoulli_row(m):
        acc = (acc * x >> FIXED_BITS) + c
    return acc


_STIRLING_SHIFT = 20


def ln_gamma_fixed(x: Real) -> int:
    """ln Gamma(x) for 0 < x <= 1e4, x taken exactly: shift to x + s >= 20,
    then Stirling to B_34.  The shift product x (x+1) ... (x+s-1) = prod / q^s
    (x = p/q) is exact, so one ln of it replaces s logarithms."""
    if not x > 0:  # also rejects nan
        raise DomainError("ln_gamma requires a positive argument")
    if x > 10 ** 4:
        raise DomainError("ln_gamma argument capped at 1e4")
    x = fixed_rational(x.to_fraction() if isinstance(x, ExtReal) else Fraction(x))
    p, q = x.numerator, x.denominator
    prod, s = 1, 0
    while p + s * q < _STIRLING_SHIFT * q:
        prod *= p + s * q
        s += 1
    k = prod.bit_length() - (q ** s).bit_length()  # prod / q^s = n 2^(k-P), n ~ 2^P
    shift = ln_fixed((prod << (FIXED_BITS - k)) // q ** s, k)
    w = to_fixed(x + s)
    total = fixed_mul(w - (FIXED_ONE >> 1), ln_fixed(w)) - w + _HALF_LN_2PI
    wpow = fixed_div(FIXED_ONE, w)
    w2 = fixed_mul(wpow, wpow)
    for j in range(1, 18):
        total += fixed_mul(to_fixed(bernoulli(2 * j) / Fraction(2 * j * (2 * j - 1))), wpow)
        wpow = fixed_mul(wpow, w2)
    return total - shift


def euler_average_fixed(partials: Sequence[int], rounds: int):
    """Euler transform of fixed-point alternating-series partial sums: `rounds`
    rounds of floored adjacent means; returns (value, |change in the last
    round|), the change a heuristic error estimate."""
    v = list(partials)
    for _ in range(rounds):
        last = v[-1]
        v = [(x + y) >> 1 for x, y in zip(v, v[1:])]
    return v[-1], abs(v[-1] - last)


# ---------------------------------------------------------------------------
# Elementary functions
# ---------------------------------------------------------------------------

def exp_dd(x: Real) -> ExtReal:
    """exp(x) for |x| <= 700: ~31 correct digits for results above ~1e-291;
    below that the low double is subnormal and the relative error grows, to
    ~3e-22 at x = -700."""
    v = ExtReal.from_real(x)
    if not abs(v.hi) <= 700.0:  # also rejects nan from an overflowed caller
        raise DomainError("exp_dd argument out of range")
    return from_fixed(*exp_fixed(to_fixed(v)))


def ln_dd(x: Real) -> ExtReal:
    """ln(x) for x > 0, ~31 correct digits."""
    v = ExtReal.from_real(x)
    if v.hi <= 0.0:
        raise DomainError("ln_dd requires a positive argument")
    d = v - ONE
    if abs(d.hi) < 2.0 ** -40:  # ln(1 + d) = d - d^2/2 + d^3/3, relative, not 2^-200 absolute
        return d - d * d * (0.5 - d / 3)
    return from_fixed(ln_fixed(*_exact(v)))


def sinc_pi(y: Real) -> ExtReal:
    """sin(pi y) / (pi y) for |y| <= 1/2, continuous at 0: the Taylor series of
    sin z / z, z = pi |y|, in fixed point from the exact argument."""
    f = abs(y.to_fraction() if isinstance(y, ExtReal) else Fraction(y))
    if f > Fraction(1, 2):
        raise DomainError("sinc_pi requires |y| <= 1/2")
    z = _PI_FIXED * f.numerator // f.denominator
    z2 = z * z >> FIXED_BITS
    s = term = FIXED_ONE
    n = 1
    while term:  # each term is floored while still nonnegative, so it reaches 0
        term = (term * z2 >> FIXED_BITS) // (2 * n * (2 * n + 1))
        s += -term if n % 2 else term
        n += 1
    return from_fixed(s)
