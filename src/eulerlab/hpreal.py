"""Double-double arithmetic kernel, mathematical constants, Bernoulli numbers
and exact binomial coefficients.

An ExtReal is the unevaluated sum of two machine doubles (hi, lo) kept in
canonical form (|lo| <= ulp(hi)/2), giving roughly 31-32 significant decimal
digits.  Its operations are correctly rounded: +, -, *, / and integer **
take the exact value of their operands, compute the exact result (math.fsum
over the four parts for + and -, integer ratios for the rest) and round it
once to the nearest double-double; a result beyond the double range raises
DomainError.  That is the one rule by which any exact value becomes an
ExtReal: `_round` for an integer ratio (`from_fixed` and the ring's parts
too), `_sum`, its fast path, for a sum of doubles.  All operations here are
pure; values are immutable after construction, so everything in this module
is safe to share across threads.

Hot loops (exp, ln, log-gamma, sinc) run in fixed
point: an int N stands for N * 2^-FIXED_BITS.  ExtReal stays the public value
type; `to_fixed` and `from_fixed` convert at the boundary.  pi and ln 2 are
one integer series at 2^-320, rounded to ExtReal and shifted to fixed point.
Slowly convergent and alternating series (hypergeometric sums at +1 and -1,
the direct alternating zeta series) go through one accelerator,
`levin_sum`, the Levin u-transform in exact integers.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Tuple, Union

__all__ = [
    "DomainError",
    "ExtReal",
    "const_pi",
    "const_ln2",
    "const_gamma_f64",
    "bernoulli",
    "bernoulli_first",
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


Real = Union["ExtReal", int, float, Fraction]

# Largest |n| that ExtReal ** n takes: its exact power of a double-double
# stays below ~1.1 million bits.
_POW_CAP = 1 << 10


class ExtReal:
    """Immutable double-double real: value == hi + lo, canonical form.  Every
    operation returns the double-double nearest its exact result."""

    __slots__ = ("hi", "lo")

    def __init__(self, hi: float = 0.0, lo: float = 0.0):
        h, l = float(hi), float(lo)
        if not (math.isfinite(h) and math.isfinite(l)):
            raise DomainError(f"ExtReal needs finite parts, got {hi!r}, {lo!r}")
        if l:
            h, l = _sum((h, l))
        object.__setattr__(self, "hi", h)
        object.__setattr__(self, "lo", l)

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("ExtReal is immutable")

    # -- construction -------------------------------------------------------
    @staticmethod
    def from_fraction(f: Fraction) -> "ExtReal":
        return _round(f.numerator, f.denominator)

    @staticmethod
    def from_real(x: Real) -> "ExtReal":
        if isinstance(x, ExtReal):
            return x
        if isinstance(x, (int, Fraction)):
            return _round(x.numerator, x.denominator)
        return ExtReal(x)

    # -- conversions ---------------------------------------------------------
    def to_fraction(self) -> Fraction:
        return Fraction(*_ratio(self))

    def __float__(self) -> float:
        return self.hi + self.lo

    def __repr__(self) -> str:
        return f"ExtReal({self.hi!r}, {self.lo!r})"

    def __str__(self) -> str:
        return to_decimal(self, 32)

    # -- arithmetic: the exact result, rounded once ---------------------------
    def __add__(self, other: Real) -> "ExtReal":
        o = ExtReal.from_real(other)
        return _mk(*_sum((self.hi, self.lo, o.hi, o.lo)))

    __radd__ = __add__

    def __neg__(self) -> "ExtReal":
        return _mk(-self.hi, -self.lo)

    def __sub__(self, other: Real) -> "ExtReal":
        o = ExtReal.from_real(other)
        return _mk(*_sum((self.hi, self.lo, -o.hi, -o.lo)))

    def __rsub__(self, other: Real) -> "ExtReal":
        return ExtReal.from_real(other).__sub__(self)

    def __mul__(self, other: Real) -> "ExtReal":
        (na, da), (nb, db) = _ratio(self), _ratio(ExtReal.from_real(other))
        return _round(na * nb, da * db)

    __rmul__ = __mul__

    def __truediv__(self, other: Real) -> "ExtReal":
        o = ExtReal.from_real(other)
        if not o.hi:  # canonical form: hi == 0 only at zero
            raise DomainError("division by zero")
        (na, da), (nb, db) = _ratio(self), _ratio(o)
        return _round(na * db, da * nb)

    def __rtruediv__(self, other: Real) -> "ExtReal":
        return ExtReal.from_real(other).__truediv__(self)

    def __pow__(self, n: int) -> "ExtReal":
        if not isinstance(n, int):
            raise DomainError("only integer powers are supported")
        if abs(n) > _POW_CAP:
            raise DomainError(f"integer powers are capped at |n| <= {_POW_CAP}")
        num, den = _ratio(self)
        if n < 0:
            if not num:
                raise DomainError("division by zero")
            num, den, n = den, num, -n
        return _round(num ** n, den ** n)

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


def _mk(hi: float, lo: float) -> ExtReal:
    """Trusted constructor: (hi, lo) already canonical."""
    obj = object.__new__(ExtReal)
    object.__setattr__(obj, "hi", hi)
    object.__setattr__(obj, "lo", lo)
    return obj


def _sum(parts: tuple):
    """(hi, lo) of the double-double nearest the exact sum of finite doubles:
    fsum rounds the sum once to hi, then the exact remainder once to lo."""
    try:
        hi = math.fsum(parts)
        return hi, math.fsum(parts + (-hi,))
    except OverflowError as exc:
        raise DomainError("sum outside the double range") from exc


def _quotient(num: int, den: int) -> float:
    """The double nearest num / den (den != 0), by int true division."""
    try:
        return num / den
    except OverflowError as exc:
        raise DomainError("value outside the double range") from exc


def _round(num: int, den: int) -> ExtReal:
    """The double-double nearest num / den (den != 0), the one rule by which
    an exact value becomes an ExtReal: num / den rounds once to hi, then the
    exact remainder num / den - hi once to lo."""
    if den < 0:
        num, den = -num, -den
    hi = _quotient(num, den)
    hn, hd = hi.as_integer_ratio()
    return _mk(hi, (num * hd - hn * den) / (den * hd))


def _ratio(x: ExtReal):
    """(num, den) with x == num / den exactly, den the larger power of two of
    hi's and lo's."""
    (hn, hd), (ln, ld) = x.hi.as_integer_ratio(), x.lo.as_integer_ratio()
    shift = ld.bit_length() - hd.bit_length()
    return ((hn << shift) + ln, ld) if shift > 0 else (hn + (ln << -shift), hd)


ZERO = _mk(0.0, 0.0)


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


def to_decimal(x: Union[ExtReal, float, int, Fraction], digits: int = 30) -> str:
    """Round x to `digits` significant decimal digits (half-even), exactly.

    Fixed-point form for moderate exponents, scientific otherwise; output is
    a pure decimal string, deterministic across platforms.  x becomes one
    integer ratio num / den: ints and Fractions as they are, an ExtReal (or a
    float) as _ratio gives it.
    """
    if digits < 1:
        raise DomainError("digits must be >= 1")
    if isinstance(x, (int, Fraction)):
        num, den = x.numerator, x.denominator
    else:  # a non-finite float is a DomainError here
        num, den = _ratio(x if isinstance(x, ExtReal) else ExtReal(x))
    if num == 0:
        return "0." + "0" * (digits - 1) if digits > 1 else "0"
    sign = "-" if num < 0 else ""
    num = abs(num)
    # e10 = floor(log10(num / den)): estimated from the logs, then corrected
    # until q, the digits - 1 - e10 shifted quotient, has exactly `digits` digits
    top = 10 ** digits
    e10 = math.floor(math.log10(num) - math.log10(den))
    while True:
        shift = digits - 1 - e10
        d = den if shift >= 0 else den * 10 ** -shift
        q, r = divmod(num * 10 ** shift if shift >= 0 else num, d)
        if q >= top:
            e10 += 1
        elif 10 * q < top:
            e10 -= 1
        else:
            break
    if 2 * r > d or (2 * r == d and q % 2 == 1):
        q += 1
    if q == top:
        q //= 10
        e10 += 1
    ds = str(q)
    if -5 <= e10 < digits:
        if e10 >= 0:
            ip, fp = ds[: e10 + 1], ds[e10 + 1:]
            return sign + (ip + "." + fp if fp else ip)
        return sign + "0." + "0" * (-e10 - 1) + ds
    return sign + ds[0] + "." + ds[1:] + f"e{e10:+03d}"


# ---------------------------------------------------------------------------
# Constants
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def pi_ln2_fixed(bits: int) -> tuple:
    """(pi, ln 2) times 2^bits, each within one unit: Machin's
    pi = 16 atan(1/5) - 4 atan(1/239) and ln 2 = 2 atanh(1/3), summed in ints
    with 16 guard bits until the power q^-(2k+1) is 0; each floored term errs
    by under three guard units, so their sum stays far below one unit."""
    one = 1 << (bits + 16)

    def arc(q: int, alternating: bool) -> int:  # atan(1/q) or atanh(1/q), times one
        total, power, k = 0, one // q, 1
        while power:
            total += -(power // k) if alternating and k % 4 == 3 else power // k
            power //= q * q
            k += 2
        return total

    return (16 * arc(5, True) - 4 * arc(239, True)) >> 16, 2 * arc(3, False) >> 16


# pi and ln 2 at 2^-320, the scale of zeta_core's ring: every other copy (the
# ExtReals here, the fixed-point kernel's) is read from these
_PI, _LN2 = (ExtReal.from_fraction(Fraction(v, 1 << 320)) for v in pi_ln2_fixed(320))


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
    """B_0..B_n (first kind, B_1 = -1/2), the even ones from the tangent
    numbers T_m in integers (Brent and Harvey 2011):
    B_2m = (-1)^(m-1) 2m T_m / (4^m (4^m - 1))."""
    out = [Fraction(1), Fraction(-1, 2)][:n + 1] + [Fraction(0)] * (n - 1)
    t = [0] + [math.factorial(k - 1) for k in range(1, n // 2 + 1)]  # t[m] -> T_m
    for k in range(2, len(t)):
        for j in range(k, len(t)):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    for m in range(1, len(t)):
        out[2 * m] = Fraction((-1) ** (m - 1) * 2 * m * t[m], 4 ** m * (4 ** m - 1))
    return tuple(out)


def bernoulli_first(n: int) -> Fraction:
    """B_n with B_1 = -1/2."""
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


def em_remainder(q, alt: bool = False):
    """The exact (c, p) pairs of sum_{m>=x} sigma(m) m^-q ~ sigma(x) (I + sum c x^-p)
    for an int or Fraction q, sigma(m) = (-1)^m if alt else 1: Euler-Maclaurin
    (I = x^(1-q)/(q-1)) or Boole (I = 0, alt).  The half term (1/2, q), then
    kappa_j (q)_(2j-1) x^-(q+2j-1), times 4^j - 1 for Boole, j = 1, 2, ...,
    until em_coefficient's cap at j = 30."""
    yield Fraction(1, 2), q
    rising = q  # (q)_(2j-1)
    for j in itertools.count(1):
        yield em_coefficient(j) * (rising * (4 ** j - 1) if alt else rising), q + 2 * j - 1
        rising *= (q + 2 * j - 1) * (q + 2 * j)


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
    n, d = _ratio(x)
    return n, FIXED_BITS + 1 - d.bit_length()


def fixed_rational(x: Fraction) -> Fraction:
    """x itself if its numerator and denominator fit in FIXED_BITS bits, else
    x rounded to FIXED_BITS significant bits, so that exact sums over it cost
    a bounded amount per term: 0 below the normal doubles, DomainError above
    the double range."""
    if max(x.numerator.bit_length(), x.denominator.bit_length()) <= FIXED_BITS:
        return x
    f = _quotient(x.numerator, x.denominator)
    if abs(f) < 2.0 ** -1022:
        return Fraction(0)
    s = max(FIXED_BITS - math.frexp(f)[1], 0)
    return Fraction((x.numerator << s) // x.denominator, 1 << s)


def to_fixed(x: Union[ExtReal, Fraction, int]) -> int:
    """floor(x * 2^FIXED_BITS) of an ExtReal or an exact rational."""
    if not isinstance(x, ExtReal):
        x = Fraction(x)
        _quotient(x.numerator, x.denominator)  # DomainError beyond the double range
        return (x.numerator << FIXED_BITS) // x.denominator
    n, k = _exact(x)
    return n << k if k >= 0 else n >> -k


def from_fixed(n: int, k: int = 0) -> ExtReal:
    """The ExtReal nearest n * 2^(k - FIXED_BITS), by _round."""
    e = k - FIXED_BITS
    return _round(n << e, 1) if e >= 0 else _round(n, 1 << -e)


def fixed_mul(a: int, b: int) -> int:
    return a * b >> FIXED_BITS


def fixed_div(a: int, b: int) -> int:
    return (a << FIXED_BITS) // b


_PI_FIXED, _LN2_FIXED = (v >> 320 - FIXED_BITS for v in pi_ln2_fixed(320))


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


_STIRLING_SHIFT = 20


def ln_gamma_fixed(x: Real) -> int:
    """ln Gamma(x) for 0 < x <= 1e4, x taken exactly: shift to x + s >= 20,
    then Stirling to B_34.  The shift product x (x+1) ... (x+s-1) = prod / q^s
    (x = p/q) is exact, so one ln of it replaces s logarithms."""
    if not x > 0:  # also rejects nan
        raise DomainError("ln_gamma requires a positive argument")
    if x > 10 ** 4:
        raise DomainError("ln_gamma argument capped at 1e4")
    return _ln_gamma_exact(fixed_rational(x.to_fraction() if isinstance(x, ExtReal) else Fraction(x)))


@lru_cache(maxsize=None)
def _stirling_fixed() -> tuple:
    """The Stirling coefficients B_2j / (2j (2j-1)) in fixed point, j = 1..17."""
    return tuple(to_fixed(bernoulli(2 * j) / Fraction(2 * j * (2 * j - 1))) for j in range(1, 18))


# Gamma ratios repeat their arguments (Gamma(1), Gamma(2), Gamma(3/2) ...)
@lru_cache(maxsize=1024)
def _ln_gamma_exact(x: Fraction) -> int:
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
    for c in _stirling_fixed():
        total += fixed_mul(c, wpow)
        wpow = fixed_mul(wpow, w2)
    return total - shift


# Most terms an accelerated series may take, and the largest size in bits of
# its exact partial sum N_k / Q_k: a refusal at either costs well under 1 s.
LEVIN_CAP = 400
LEVIN_BITS = 1 << 17


@lru_cache(maxsize=None)
def _levin_weights(k: int) -> tuple:
    """The weights w_j of levin_sum's order-k transform, j = 0..k (at most 29 orders)."""
    return tuple(math.comb(k, j) * (j + 1) ** (k - 2) * (-1) ** j for j in range(k + 1))


def levin_sum(ratios: Iterable[Tuple[int, int]], start: int = 0):
    """sum_n a_n with a_0 = 1 by the Levin u-transform (beta = 1), in exact
    integers.  The n-th pair (A, B) of `ratios` gives a_(n+1) = a_n A / B, the
    terms exact; a zero A ends the series at its exact partial sum.

    With a_n = P_n / Q_n and S_n = N_n / Q_n, the transform of order k,
    L_k = sum w_j N_(h+j) R_j / sum w_j Q_(h+j) R_j over j = 0..k, with
    h = start, R_j = P_(h+k) / P_(h+j) and w_j = (-1)^j C(k, j) (j+1)^(k-2)
    (cached per order), is formed exactly (by Horner's rule in the A's) at
    k = 8, 12, ..., every max(4, k/8) terms.  Terms before `start` enter only
    through the exact partial sums, so a head that has not reached the tail's
    pattern (a sign change, say) does not mislead the transform.  The
    estimate is the change from the previous transform plus a 2^-106 |L_k|
    rounding.  L_k is accepted once the change is within the rounding part
    (compared exactly); past LEVIN_CAP terms or LEVIN_BITS bits, DomainError.
    Returns (L_k as a Fraction, its estimate, the number of terms).
    """
    p = q = s = 1
    a_s, q_s, s_s = [1], [1], [1]
    prev, check = None, 8
    for n, (a, b) in enumerate(ratios, 1):
        if a == 0:
            return Fraction(s, q), 0.0, n
        p, q = p * a, q * b
        s = s * b + p
        if n == start:
            a_s, q_s, s_s = [a], [q], [s]
        elif n > start:
            a_s.append(a)
            q_s.append(q)
            s_s.append(s)
        k = n - start
        if k == check:
            check += max(4, k // 8)
            num = den = 0
            for w, a_j, s_j, q_j in zip(_levin_weights(k), a_s, s_s, q_s):
                num = num * a_j + w * s_j
                den = den * a_j + w * q_j
            if den:
                value = _quotient(num, den)
                if prev is not None:
                    diff = num * prev[1] - prev[0] * den
                    change = abs(_quotient(diff, den * prev[1]))
                    if abs(diff) << 106 <= abs(num * prev[1]):
                        return Fraction(num, den), change + abs(value) * 2.0 ** -106, n
                prev = num, den
        if n >= LEVIN_CAP or s.bit_length() + q.bit_length() > LEVIN_BITS:
            raise DomainError(f"the series has not settled within {LEVIN_CAP} terms "
                              f"and {LEVIN_BITS} bits")


# ---------------------------------------------------------------------------
# Elementary functions
# ---------------------------------------------------------------------------

def exp_dd(x: Real) -> ExtReal:
    """exp(x) for |x| <= 700: ~31 correct digits for results above ~1e-291;
    below that the low double is subnormal and the relative error grows, to
    ~3e-22 at x = -700."""
    v = ExtReal.from_real(x)
    if not abs(v.hi) <= 700.0:
        raise DomainError("exp_dd argument out of range")
    return from_fixed(*exp_fixed(to_fixed(v)))


def ln_dd(x: Real) -> ExtReal:
    """ln(x) for x > 0, ~31 correct digits."""
    v = ExtReal.from_real(x)
    if v.hi <= 0.0:
        raise DomainError("ln_dd requires a positive argument")
    d = v - 1
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
