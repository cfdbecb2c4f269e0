"""Double Euler sums: direct evaluation of the four depth-2 series, their
odd-weight closed forms, and the summation formulas (the stuffle and shuffle
checks read genfun's relation table).

Direct summation, for double sums and the nested sums of zagier alike, runs
one engine: a single pass of at most n_max terms for a list of sums, in
blocks that grow from 2^10 to 2^13 terms, computing each power m^-e once per
block and carrying one prefix sum per inner level from block to block, in
float64 with an exact run accumulator that keeps even and odd m apart: one
pass serves both signs of the outer slot, each sum rounded once.  Each level
of a sum stops once the rest of its terms cannot change a bit of its result,
the outer level on its own bound while inner ones may run on, so a steep sum
such as zeta(19, 19) stops after its first 2^10 terms.  Inner prefix sums at
n_max are kept, so a sum whose outer level settles early, such as
zeta(1, 37), leaves the pass there once another sum at that n_max has run
its inner harmonic sum.  Its tail is
built level by level from remainder expansions (Euler-Maclaurin for smooth
sums, Boole for alternating ones) generated from the Bernoulli numbers, for
every bar pattern and depth, each outer tail memoized; runs from n_max = 1e3
(verify --fast; --slow takes 1e6 to cross-check the tails) land within
~2e-16 absolute.  Closed forms are exact elements of the ZetaPoly ring, so
the identities among them cancel exactly; closed_finites reads a list of
them, an odd-weight table, in one pass over the products they share.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .hpreal import DomainError, ExtReal, const_gamma_f64, em_remainder
from .zeta_core import SeriesResult, ZetaPoly, zeta, zeta_bar, zeta_reg

__all__ = [
    "DoubleIndex",
    "SeriesResult",
    "double_direct",
    "double_directs",
    "closed_plain",
    "closed_bar_r",
    "closed_bar_s",
    "closed_bar_both",
    "closed_form",
    "closed_finites",
    "CLOSED_FORMS",
    "sum_formula_check",
    "SUM_FORMULAS",
    "DEFAULT_N_MAX",
    "N_MAX_CAP",
]

DEFAULT_N_MAX = 100_000
# largest truncation a direct sum accepts; it bounds time only (memory is O(block))
N_MAX_CAP = 10_000_000
_WEIGHT_CAP = 40


@dataclass(frozen=True)
class DoubleIndex:
    """Index of a double Euler sum: inner exponent r, outer exponent s.

    A bar on a slot puts the sign (-1)^index on that slot's summation
    variable.  Convergence requires s >= 2 when the outer slot is unbarred.
    """

    r: int
    s: int
    r_bar: bool = False
    s_bar: bool = False

    def __post_init__(self):
        if self.r < 1 or self.s < 1:
            raise DomainError("double sum exponents must be >= 1")
        if self.r + self.s > _WEIGHT_CAP:
            raise DomainError(f"double sum weight capped at {_WEIGHT_CAP}")

    @property
    def convergent(self) -> bool:
        return self.s_bar or self.s >= 2

    @property
    def nested(self) -> tuple:
        """(exponents, bars, star) of this sum for the nested engine (see _direct)."""
        if not self.convergent:
            raise DomainError(
                f"{self} diverges (unbarred outer exponent 1); "
                "use the regularized closed forms (closed_plain / closed_bar_r)"
            )
        return (self.r, self.s), (self.r_bar, self.s_bar), False

    def __str__(self) -> str:
        rr = f"~{self.r}" if self.r_bar else f"{self.r}"
        ss = f"~{self.s}" if self.s_bar else f"{self.s}"
        return f"zeta({rr},{ss})"


# ---------------------------------------------------------------------------
# Tail expansions (float64), generated from the Bernoulli numbers
# ---------------------------------------------------------------------------

# Bernoulli corrections kept in the outer tails (power and log; Boole's
# coefficients grow like 4^j, and five keep the tails beyond m = 100 to
# ~1e-15 relative) and in each level's remainder of a nested sum, whose next
# correction prices its truncation
_OUTER_ORDER = 5
_INNER_ORDER = 2


@lru_cache(maxsize=1024)
def _expansion(q: float, alt: bool, order: int) -> tuple:
    """(c, p) pairs with sum_{m>=x} sigma(m) m^-q ~ sigma(x) (I + sum_i c_i x^-p_i),
    sigma(m) = (-1)^m if alt else 1: hpreal.em_remainder's half term and
    first `order` corrections, in floats (I = x^(1-q)/(q-1), or 0 if alt);
    an integral q enters as an int, which keeps the exact terms cheap."""
    pairs = itertools.islice(em_remainder(int(q) if q == int(q) else Fraction(q), alt), order + 1)
    return tuple((float(c), float(p)) for c, p in pairs)


@lru_cache(maxsize=1024)
def _tail(q: float, n: float, alt: bool) -> float:
    """sum_{m>n} sigma(m) m^-q (q > 1 unless alt): Boole from m = n + 1, or
    Euler-Maclaurin at n, where excluding m = n changes the half term's sign."""
    (half, _), *corrections = _expansion(q, alt, _OUTER_ORDER)
    x, t = (n + 1.0, 0.0) if alt else (n, n ** (1.0 - q) / (q - 1.0))
    for c, p in ((half if alt else -half, q), *corrections):
        t += c * x ** -p
    return -t if alt and int(n) % 2 == 0 else t


def _log_tail(s: float, n: float, alt: bool) -> float:
    """sum_{m>n} sigma(m) ln(m) m^-s: -d/ds of _tail's expansion, term by term."""
    (half, _), *corrections = _expansion(s, alt, _OUTER_ORDER)
    x = n + 1.0 if alt else n
    ln = math.log(x)
    t = 0.0 if alt else n ** (1.0 - s) * (ln / (s - 1.0) + 1.0 / (s - 1.0) ** 2)
    for c, p in ((half if alt else -half, s), *corrections):
        dc = c * sum(1.0 / (s + i) for i in range(round(p - s)))  # d/ds of kappa (s)_(p-s)
        t += (c * ln - dc) * x ** -p
    return -t if alt and int(n) % 2 == 0 else t


# Direct sums walk m = 1..n_max in blocks of _FIRST_BLOCK terms, then twice
# as many each time up to _BLOCK, so memory stays O(block), each block stays
# in cache, and a steep sum that settles early pays for few terms.  Every
# block length is even: each block starts at an odd m, where (-1)^m is -1 on
# the block's even positions.
_FIRST_BLOCK = 1 << 10
_BLOCK = 1 << 13


def _add_runs(acc: list, x: np.ndarray) -> None:
    """Add the sums of x[0::2] and x[1::2] (at most _BLOCK finite doubles) into
    the ints acc[0] and acc[1] exactly, in units of 2^-1074.  A double with sign
    bit s, exponent bits E and fraction f is (-1)^s (2^52 [E > 0] + f) times
    2^(max(E, 1) - 1075).  The rows (x[2i], x[2i+1]) are cut into runs along
    which both keep their sign and exponent bits; a run's fractions add up
    exactly in uint64, as (_BLOCK // 2) (2^52 - 1) < 2^64, then into acc."""
    u = (x if len(x) % 2 == 0 else np.append(x, 0.0)).view(np.uint64)
    top = (u >> np.uint64(52)).astype(np.uint16)  # sign and exponent bits
    row = top.view(np.uint32)  # both columns' bits as one word per row
    starts = np.flatnonzero(np.concatenate(([True], row[1:] != row[:-1])))
    fracs = np.add.reduceat((u & np.uint64((1 << 52) - 1)).reshape(-1, 2), starts, axis=0)
    bounds = [*starts.tolist(), len(row)]
    counts = [b - a for a, b in zip(bounds, bounds[1:])]
    for c, (tops, column) in enumerate(zip(top.reshape(-1, 2)[starts].T.tolist(), fracs.T.tolist())):
        for t, f, n in zip(tops, column, counts):
            e = t & 0x7FF
            if e == 0x7FF:
                raise OverflowError("a direct sum met a non-finite term")
            run = (f + (n << 52)) << (e - 1) if e else f
            acc[c] += -run if t >> 11 else run


# ---------------------------------------------------------------------------
# Direct evaluation: one nested engine for every depth
# ---------------------------------------------------------------------------

def _nested_tail(exps: tuple, bars: tuple, star: bool, n_max: int, carry: list) -> tuple:
    """(tail, tail_estimate) of the nested sum beyond n_max, built level by level.

    Level j's argument P_(j-1) (at m - 1, or m if star) is L_(j-1) minus the
    remainder rem = sum c sigma(m)^alt m^-p, so the level's tail is
    L_(j-1) S(e_j) - sum c S(e_j + p), S = _tail with sign sigma_j sigma^alt.
    Expanding each of those sums from m on (past m if star) gives level j's
    remainder, equal (p, alt) merged; p = e_j + 2 _INNER_ORDER + 1 is its first
    omitted order, which prices the estimate, and higher ones drop.  L_1 is
    zeta(e_1) or zeta(e_1-bar); unbarred e_1 = 1 (inner slot at depth 2) has
    H_(m-1) = ln m + gamma - (expansion).
    """
    n, d = float(n_max), len(exps)
    limit, log, rem, omitted = 1.0, False, {}, {}  # level 0: P_0 = 1 exactly
    for j, (e, bar) in enumerate(zip(map(float, exps), bars)):
        if j or d == 1:  # L_1 needs no tail
            tail = limit * _tail(e, n, bar)
            if log:
                tail += _log_tail(e, n, bar)
            tail -= sum(c * _tail(e + p, n, bar != alt) for (p, alt), c in rem.items())
        if j == d - 1:
            break
        cut = e + 2 * _INNER_ORDER + 1
        new, omitted = {}, {}
        for c0, q, alt in [(limit, e, False), *((-c, e + p, alt) for (p, alt), c in rem.items())]:
            a = bar != alt
            (half, _), *corrections = _expansion(q, a, _INNER_ORDER + 1)
            integral = [] if a or q == 1.0 else [(1.0 / (q - 1.0), q - 1.0)]
            for c, p in (*integral, (-half if star else half, q), *corrections):
                if p <= cut:
                    part = new if p < cut else omitted
                    part[p, a] = part.get((p, a), 0.0) + c0 * c
        rem = new
        log = j == 0 and e == 1.0 and not bar
        if j == 0:
            limit = const_gamma_f64() if log else float(zeta_bar(exps[0]) if bar else zeta(exps[0]))
        else:
            limit = carry[j] + tail
    first_omitted = sum(c * _tail(e + p, n, bar != alt) for (p, alt), c in omitted.items())
    noise = 2e-15 * math.sqrt(n) * (1.0 + sum(abs(c) for c in carry))
    return tail, abs(first_omitted) + noise


def _settled(odd: int, even: int, b: float) -> bool:
    """Whether even + odd and even - odd (units of 2^-1074) each keep their
    rounding to a double when terms adding up to at most b in absolute value
    join them: rounding is monotone, so the two ends of each range decide."""
    num, den = b.as_integer_ratio()  # a double is a whole number of units
    units, one = (num << 1074) // den, 1 << 1074
    # a quick refusal that gives the same answer: below 2^(L + 1) units no
    # rounding cell is 2^(L - 51) wide, so a range of 2 units >= 2^(L - 51)
    # around even +- odd never fits in one
    if units.bit_length() > max(max(abs(even), abs(odd)).bit_length() - 52, 0):
        return False
    return all((x - units) / one == (x + units) / one for x in (even + odd, even - odd))


# pow and the product err by a few units in the last place while a power is a
# normal double, and a sequential cumsum over n terms grows a prefix sum by at
# most (1 + 2^-53)^n, below 1 + 2^-29.6 at N_MAX_CAP: every bound on the
# terms of a level or on its prefix sum takes this margin
_MARGIN = 1.0 + 2.0 ** -20


def _settled_levels(exps: tuple, head: list, state: tuple, m0: int, n_max: int) -> tuple:
    """(inner levels settled, from the innermost; whether the outer level is)
    for a head that has summed m < m0, `state` the last check's.  Level j's
    terms are its powers m^-e_j times P_(j-1), the prefix sum of the level
    inside it (1 for the innermost), and over m0 - 1 <= m <= n_max
    |P_j| <= B_j = |carry_j| + B_(j-1) rest(e_j), B_(-1) = 1, with
    rest(e) = m0^-e + int_m0^n_max x^-e dx >= sum_(m0 <= m <= n_max) m^-e, or
    B_j = |carry_j| once level j is settled.  An inner level is settled once
    every level inside it is and each of its terms is below half the gap from
    its carry to the neighbouring doubles, so that the sequential cumsum
    cannot move it.  The outer level is settled once the rest of its terms,
    at most B_(d-2) rest(e_(d-1)), cannot change the rounding of even + odd
    or of even - odd, whether or not the inner levels still run.  Each bound
    takes _MARGIN, and adds 2^-1075 per term for a product that falls below
    the normal range, where it errs by that much in absolute value."""
    (odd, even, carry), (done, outer) = head, state
    # ln(n_max / m0) from log1p, so that rest stays accurate for n_max near m0
    log, tiny = math.log1p((n_max - m0) / m0), math.ulp(0.0)
    bound = 1.0
    for j, e in enumerate(exps):
        # once the outer level is settled only the innermost unsettled level
        # is left to decide, and a power that may leave the normal range
        # decides nothing
        if outer and j > done or float(n_max) ** -e < 2.0 ** -1020:
            break
        term = float(m0) ** -e * bound * _MARGIN
        rest = term * (1.0 + m0 * (log if e == 1 else -math.expm1((1 - e) * log) / (e - 1))) + n_max * tiny
        if j == len(carry):
            outer = outer or _settled(odd, even, rest)
            break
        c = carry[j]
        if j == done and term + tiny < min(c - math.nextafter(c, -math.inf), math.nextafter(c, math.inf) - c) / 2:
            done += 1
        bound = abs(c) if j < done else (abs(c) + rest) * _MARGIN
    return done, outer


# (exps, inner_bars, star, n_max) -> its head, for the heads run (at most 4096)
_HEADS: dict = {}
# (exps[:j + 1], inner_bars[:j + 1], star, n_max) -> inner level j's prefix
# sum at n_max, from the heads run; emptied with _HEADS
_PREFIXES: dict = {}


def _heads(keys: list, star: bool, n_max: int) -> list:
    """[(odd, even, carry)] for each key (exps, inner_bars), inner to outer: the
    sums (units of 2^-1074) over odd and even m <= n_max of the outermost
    level's terms, without the sign of its slot, and each inner level's prefix
    sum at n_max.  odd and even are exact up to a remainder that cannot change
    the rounding of even + odd or of even - odd, so a caller may round those
    two, and nothing else.  The keys not cached run in one blocked pass, which
    carries one prefix sum per inner level from block to block and computes
    each power m^-e once per block, for every level of every key that uses it.
    Blocks grow from _FIRST_BLOCK to _BLOCK, doubling.  After each block but
    the last, _settled_levels decides per key which of its levels the rest of
    its terms can no longer change: a settled inner level's prefix sum is its
    carry (the next level's terms are the same products, with no cumsum), and
    a settled outer level adds no more terms while its inner levels run on.
    A key leaves the pass once all its levels are settled, or once its outer
    level is and the prefix sums of its unsettled inner levels are in
    _PREFIXES, which the pass fills at its end."""
    if len(_HEADS) + len(keys) > 4096:
        _HEADS.clear()
        _PREFIXES.clear()
    full = [(*key, star, n_max) for key in keys]
    # keys sharing exponents run next to each other, so few powers stay live
    todo = sorted(dict.fromkeys(key for key in full if key not in _HEADS), key=lambda key: sorted(key[0]))
    nodes = [[(exps[:j + 1], inner_bars[:j + 1], star, n_max) for j in range(len(exps) - 1)]
             for exps, inner_bars, *_ in todo]
    last = {e: i for i, (exps, *_) in enumerate(todo) for e in exps}
    heads = [[0, 0, [0.0] * (len(exps) - 1)] for exps, *_ in todo]  # odd, even, P_j at start - 1
    settled = [(0, False)] * len(todo)  # (inner levels, outer level) the rest cannot change
    live = list(range(len(todo)))
    start, size = 1, _FIRST_BLOCK
    while live and start <= n_max:
        m = np.arange(start, min(start + size, n_max + 1), dtype=np.float64)
        powers = {}
        for i in live:
            (exps, inner_bars, *_), acc = todo[i], heads[i]
            done, outer = settled[i]
            prev, carry = None, acc[2]  # P_(j-1) over the block, None while it is P_0 = 1
            for j, e in enumerate(exps[:-1] if outer else exps):
                if j < done:
                    prev = carry[j]  # a settled prefix sum is its carry at every m
                    continue
                if e not in powers:
                    powers[e] = m ** float(-e)
                terms = powers[e] if prev is None else powers[e] * prev
                if j < len(carry):
                    prefix = np.concatenate(([carry[j]], terms))  # P_j from start - 1 on
                    if inner_bars[j]:
                        prefix[1::2] *= -1.0  # odd m, behind the carry
                    carry[j] = float(np.cumsum(prefix, out=prefix)[-1])
                    # starred sums take the previous level at m, strict ones at m - 1
                    prev = prefix[1:] if star else prefix[:-1]
                else:
                    _add_runs(acc, terms)
            powers = {e: p for e, p in powers.items() if last[e] > i}
        start, size = start + size, min(2 * size, _BLOCK)
        if start <= n_max:
            for i in live:
                settled[i] = _settled_levels(todo[i][0], heads[i], settled[i], start, n_max)
            live = [i for i in live if not settled[i][1]
                    or not all(node in _PREFIXES for node in nodes[i][settled[i][0]:])]
    for key, key_nodes, (odd, even, carry) in zip(todo, nodes, heads):
        # a key that left on _PREFIXES takes its prefix sums from there
        _HEADS[key] = odd, even, tuple(_PREFIXES.setdefault(node, c) for node, c in zip(key_nodes, carry))
    return [_HEADS[key] for key in full]


@lru_cache(maxsize=4096)
def _nested_direct(exps: tuple, bars: tuple, star: bool, n_max: int) -> SeriesResult:
    """sum_(m_1 < ... < m_d) prod_j sigma_j(m_j) m_j^-e_j (<= if star), inner to
    outer, truncated at n_max: the exact odd and even sums of its head, added
    or subtracted (a sign flip is exact) and rounded once, plus the tail."""
    [(odd, even, carry)] = _heads([(exps, bars[:-1])], star, n_max)
    head = (even - odd if bars[-1] else even + odd) / (1 << 1074)
    tail, est = _nested_tail(exps, bars, star, n_max, carry)
    return SeriesResult(value=ExtReal(head + tail), terms_used=n_max, tail_estimate=ExtReal(est))


def _check_n_max(n_max) -> None:
    """Raise DomainError unless n_max is a truncation direct sums accept: an
    int (not a bool), 100 <= n_max <= N_MAX_CAP.  A float would reach range()
    or, once an equal int has run, a cache hit reporting terms_used as that float."""
    if not (isinstance(n_max, int) and not isinstance(n_max, bool) and 100 <= n_max <= N_MAX_CAP):
        raise DomainError(f"direct sums require an int n_max, 100 <= n_max <= {N_MAX_CAP}")


def _direct(nested: tuple, n_max: int) -> SeriesResult:
    """The nested sum (exponents, bars, star) that a request's .nested names,
    truncated at n_max; n_max is checked here, ahead of _nested_direct's cache."""
    _check_n_max(n_max)
    return _nested_direct(*nested, n_max)


def double_direct(idx: DoubleIndex, n_max: int = DEFAULT_N_MAX) -> SeriesResult:
    """Direct single-pass evaluation of a double Euler sum truncated at n_max:
    the depth-2 case of _nested_direct, whose head pass zeta(r, s) and
    zeta(r, s-bar) share (likewise with r-bar).  The tail is the inner limit
    times the outer tail (for r = 1: gamma times it plus the log tail) minus
    the outer tails of the inner remainder's expansion; tail_estimate is the
    first omitted term plus float64 noise."""
    return _direct(idx.nested, n_max)


def _prefetch(requests: list, n_max: int) -> None:
    """Run the head passes of these direct sums (DoubleIndex, zagier.HIndex)
    not cached yet as one pass per star value (see _heads), so that their
    double_direct and h_direct calls are cache hits.  The passes run only if
    every request is valid; a bad one raises when it is called."""
    try:
        nested = [request.nested for request in requests]
        _check_n_max(n_max)
    except DomainError:
        return
    for star in (False, True):
        _heads([(exps, bars[:-1]) for exps, bars, s in nested if s == star], star, n_max)


def double_directs(indices: list, n_max: int = DEFAULT_N_MAX) -> list:
    """[double_direct(idx, n_max) for idx in indices], their heads run by
    _prefetch as one pass; each value keeps its bits."""
    _prefetch(indices, n_max)
    return [double_direct(idx, n_max) for idx in indices]  # which raises on a bad request


# ---------------------------------------------------------------------------
# Odd-weight closed forms, exact in the ZetaPoly ring
# ---------------------------------------------------------------------------

def _closed_row(r: int, s: int, r_bar: bool, s_bar: bool) -> tuple:
    """(weights, elements) of zeta(r, s) with optional bars, for odd k = r+s:
    int weights on the products zeta(w; w_bar) zeta(e; e_bar) of weight k.

    With x = r_bar xor s_bar:
    zeta(k; x) zeta(0; x) + (1+(-1)^s)/2 zeta(r; r_bar) zeta(s; s_bar)
    + (-1)^r sum_l [C(k-2l-1, r-1) zeta(k-2l; r_bar)
                    + C(k-2l-1, s-1) zeta(k-2l; s_bar)] zeta(2l; x),
    where zeta(w; b) is zeta(w-bar) if b else zeta(w), zeta(1) enters as the
    symbol T and zeta(0) = zeta(0-bar) = -1/2.  On convergent indices the
    T-part cancels and the finite part is the double sum.  A product may
    appear twice (with equal bars, say); its weights add.
    """
    k, x = r + s, r_bar != s_bar
    if r < 1 or s < 1:
        raise DomainError("closed forms require r, s >= 1")
    if k % 2 == 0:
        raise DomainError(f"closed forms hold for odd weight only, got k = {k}")
    if k > 39:
        raise DomainError("closed forms capped at weight 39")
    elements = [_product(k, x, 0, x)]
    if s % 2 == 0:
        elements.append(_product(r, r_bar, s, s_bar))
    weights = [1] * len(elements)
    sgn = -1 if r % 2 else 1
    for j, bar, other in ((r - 1, r_bar, s), (s - 1, s_bar, r)):
        ls = range(other // 2 + 1)  # C(k-2l-1, j) vanishes beyond
        weights += [sgn * math.comb(k - 2 * l - 1, j) for l in ls]
        elements += [_product(k - 2 * l, bar, 2 * l, x) for l in ls]
    return weights, elements


# a repeat returns the shared element, its finite part already rounded (all 1520
# would hold ~1.5 MB); a table reads closed_finites, which builds no element
@lru_cache(maxsize=256)
def _closed(r: int, s: int, r_bar: bool, s_bar: bool) -> ZetaPoly:
    """zeta(r, s) with optional bars, for odd r+s: the linear form of its _closed_row."""
    return ZetaPoly.combination(zip(*_closed_row(r, s, r_bar, s_bar)))


@lru_cache(maxsize=None)
def _product(w: int, w_bar: bool, e: int, e_bar: bool) -> ZetaPoly:
    """zeta(w; w_bar) zeta(e; e_bar), shared by every closed form of weight w + e."""
    return zeta_reg(w, w_bar) * zeta_reg(e, e_bar)


def closed_plain(r: int, s: int) -> ZetaPoly:
    """zeta(r,s) for odd r+s (Euler); see _closed."""
    return _closed(r, s, False, False)


def closed_bar_r(r: int, s: int) -> ZetaPoly:
    """zeta(r-bar, s) for odd r+s: bar on the inner slot."""
    return _closed(r, s, True, False)


def closed_bar_s(r: int, s: int) -> ZetaPoly:
    """zeta(r, s-bar) for odd r+s: bar on the outer slot."""
    return _closed(r, s, False, True)


def closed_bar_both(r: int, s: int) -> ZetaPoly:
    """zeta(r-bar, s-bar) for odd r+s: bars on both slots."""
    return _closed(r, s, True, True)


# (r_bar, s_bar) -> (pattern name, closed form); the names appear in verify
# case ids and in table routes as closed-<name>
CLOSED_FORMS = {
    (False, False): ("plain", closed_plain),
    (True, False): ("inner-bar", closed_bar_r),
    (False, True): ("outer-bar", closed_bar_s),
    (True, True): ("both-bars", closed_bar_both),
}


def closed_form(idx: DoubleIndex) -> ZetaPoly:
    """Dispatch to the closed form matching the index's bar pattern."""
    return CLOSED_FORMS[(idx.r_bar, idx.s_bar)][1](idx.r, idx.s)


def closed_finites(indices: list) -> list:
    """[closed_form(idx).finite for idx in indices], bit for bit, in one pass
    over the products their rows share (see ZetaPoly.finites), as an
    odd-weight table takes them; no element is built or cached."""
    return ZetaPoly.finites([_closed_row(idx.r, idx.s, idx.r_bar, idx.s_bar) for idx in indices])


# ---------------------------------------------------------------------------
# Summation formulas
# ---------------------------------------------------------------------------

# pattern name -> (r_bar, s_bar) of the double sums a summation formula adds up
SUM_FORMULAS = {name: bars for bars, (name, _) in CLOSED_FORMS.items()}


def _sum_formula_sums(k: int, which: str):
    """(indices, signs) of a summation formula (see sum_formula_check): the k - 2
    double sums of its left side, then those of its right side, with their signs."""
    if k < 3:
        raise DomainError("summation formulas require k >= 3")
    if which not in SUM_FORMULAS:
        raise DomainError(f"which must be one of {tuple(SUM_FORMULAS)}")
    r_bar, s_bar = SUM_FORMULAS[which]
    # the right side's double sums, all with a barred outer slot: (sign, r, s, r_bar)
    rhs_sums = {
        (True, False): [(1, 1, k - 1, False), (-1, 1, k - 1, True)],
        (True, True): [(1, k - 1, 1, False), (-1, k - 1, 1, True)],
        (False, True): [(1, k - 1, 1, True), (1, 1, k - 1, True),
                        (-1, k - 1, 1, False), (-1, 1, k - 1, False)],
    }.get((r_bar, s_bar), [])
    return ([DoubleIndex(k - s, s, r_bar, s_bar) for s in range(2, k)]
            + [DoubleIndex(i, j, i_bar, True) for _, i, j, i_bar in rhs_sums],
            [sign for sign, *_ in rhs_sums])


def sum_formula_check(k: int, which: str, n_max: int = DEFAULT_N_MAX) -> tuple:
    """The two sides of a fixed-weight summation formula, evaluated directly:
    ring sums of the direct double sums' values, added exactly.

    which = "plain":     sum_{s=2}^{k-1} zeta(k-s, s) = zeta(k)
    which = "inner-bar": sum zeta(k-s-bar, s) = zeta(k-bar) + zeta(1, k-1-bar)
                         - zeta(1-bar, k-1-bar)
    which = "both-bars": sum zeta(k-s-bar, s-bar) = zeta(k-bar) + zeta(k-1, 1-bar)
                         - zeta(k-1-bar, 1-bar)
    which = "outer-bar": sum zeta(k-s, s-bar) = zeta(k) + zeta(k-1-bar, 1-bar)
                         + zeta(1-bar, k-1-bar) - zeta(k-1, 1-bar) - zeta(1, k-1-bar)

    The leading term of the outer-bar right side is the plain zeta(k): it
    comes from the alternating-product stuffle split, whose depth-0 term is
    unbarred (the two bars cancel on the diagonal).
    """
    indices, signs = _sum_formula_sums(k, which)
    values = [res.value for res in double_directs(indices, n_max)]
    return (ZetaPoly.sum(values[:k - 2]),
            ZetaPoly.combination([(1, zeta_reg(k, SUM_FORMULAS[which][0])), *zip(signs, values[k - 2:])]))
