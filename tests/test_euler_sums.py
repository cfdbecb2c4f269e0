import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eulerlab.hpreal import DomainError, ExtReal, const_gamma_f64
from eulerlab.zeta_core import zeta, zeta_bar
from eulerlab.euler_sums import (
    CLOSED_FORMS,
    N_MAX_CAP,
    SUM_FORMULAS,
    DoubleIndex,
    _BLOCK,
    _FIRST_BLOCK,
    _HEADS,
    _INNER_ORDER,
    _PREFIXES,
    _add_runs,
    _closed,
    _heads,
    _nested_direct,
    _expansion,
    _settled,
    _settled_levels,
    _log_tail,
    _tail,
    closed_bar_both,
    closed_bar_r,
    closed_bar_s,
    closed_form,
    closed_plain,
    double_direct,
    double_directs,
    sum_formula_check,
)
from eulerlab.genfun import shuffle_check, stuffle_check, stuffle_closed_check
from conftest import approx_abs, clear_direct_caches, gap
import oracles
from eulerlab import euler_sums
from eulerlab.zagier import HIndex, h_direct, mzv_direct

N = 100_000


def test_depth_reduction_to_single_zeta():
    # the weight-3 strict double sum with inner exponent 1 collapses to zeta(3)
    res = double_direct(DoubleIndex(1, 2), N)
    assert abs(float(res.value - zeta(3))) < 1e-8


def test_inner_bar_outer_bar_known_value():
    # zeta(1, 2-bar) = zeta(3)/8, forced by the starred double-sum identity
    res = double_direct(DoubleIndex(1, 2, False, True), N)
    assert abs(float(res.value - zeta(3) / 8)) < 1e-8


def test_against_brute_force_oracle():
    for (r, s, rb, sb) in ((2, 2, False, False), (1, 2, True, False),
                           (2, 2, False, True), (1, 2, True, True),
                           (2, 1, False, True), (2, 1, True, True)):
        brute = oracles.brute_double_sum(r, s, rb, sb, n=20000)
        got = float(double_direct(DoubleIndex(r, s, rb, sb), N).value)
        assert abs(got - brute) < 5e-7, (r, s, rb, sb, got, brute)


def test_first_outer_term_vacuous():
    # the outer sum starts at 2 (the m = 1 inner sum is empty): a tiny run,
    # tail-corrected, must match the literal m >= 2 definition summed far out
    res = double_direct(DoubleIndex(3, 4), 100)
    lit = sum(sum(1.0 / j ** 3 for j in range(1, m)) / m ** 4 for m in range(2, 3001))
    assert abs(float(res.value) - lit) < 1e-8


def test_divergent_index_raises_with_guidance():
    with pytest.raises(DomainError) as err:
        double_direct(DoubleIndex(2, 1), N)
    assert "closed" in str(err.value)


def test_tail_estimate_brackets_refinement():
    for idx in (DoubleIndex(1, 2), DoubleIndex(1, 2, True, False),
                DoubleIndex(2, 3, False, True), DoubleIndex(1, 1, True, True),
                DoubleIndex(3, 2, True, True), DoubleIndex(1, 3, False, True)):
        a = double_direct(idx, N)
        b = double_direct(idx, 2 * N)
        assert abs(float(a.value - b.value)) <= 3 * float(a.tail_estimate)


def test_tails_match_partial_sums():
    # each tail at n = 100 minus the tail at n = 1e5 is the sum of the terms
    # in between; a wrong Euler-Maclaurin or Boole coefficient or sign shows
    # far above 1e-14 relative
    m = np.arange(101, 10 ** 5 + 1, dtype=np.float64)
    for alt in (False, True):
        sigma = np.where(m % 2 == 0, 1.0, -1.0) if alt else np.ones_like(m)
        for q in (2, 3, 5.5):
            for tail, weight in ((_tail, 1.0), (_log_tail, np.log(m))):
                ref = math.fsum(sigma * weight * m ** -q)
                got = tail(q, 100.0, alt) - tail(q, 1e5, alt)
                assert abs(got - ref) <= 1e-14 * abs(ref), (tail.__name__, q, alt, got, ref)


def test_memoized_tails_equal_uncached_ones():
    # _tail is a pure float function, so its cache may only save time: every
    # value, first computed or a hit, is the uncached value to the bit
    _tail.cache_clear()
    grid = [(q, n, alt) for q in (1.0, 2, 3.0, 5.5, 17.0, 40.0) for n in (100.0, 999.0, 1e3, 1e5, 1e7)
            for alt in (False, True) if alt or q > 1]
    for _ in range(2):
        for q, n, alt in grid:
            assert _tail(q, n, alt).hex() == _tail.__wrapped__(q, n, alt).hex(), (q, n, alt)
    assert _tail.cache_info().hits == len(grid) and _tail.cache_info().misses == len(grid)


# ---------------------------------------------------------------------------
# blocked direct sums: the exact accumulator and the block seams
# ---------------------------------------------------------------------------

# lengths around the blocks: one short block, a full first one, one term past
# it, around a full-length block, several blocks with a short tail
SEAM_N = (100, _FIRST_BLOCK, _FIRST_BLOCK + 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5, N)


def _blocked_sums(x: np.ndarray) -> tuple:
    """(sum, alternating sum) of x through the run accumulator, block by block,
    x[0] taken as the term at m = 1: even + odd and even - odd, each rounded once."""
    acc = [0, 0]  # odd m, even m
    for start in range(0, len(x), _BLOCK):
        _add_runs(acc, x[start:start + _BLOCK])
    odd, even = acc
    return (even + odd) / (1 << 1074), (even - odd) / (1 << 1074)


def _assert_matches_fsum(x: np.ndarray) -> None:
    signs = np.where(np.arange(len(x)) % 2 == 0, -1.0, 1.0)  # (-1)^m, m = 1, 2, ...
    for got, ref in zip(_blocked_sums(x), (math.fsum(x), math.fsum(signs * x))):
        assert got == ref and math.copysign(1.0, got) == math.copysign(1.0, ref), (got, ref)


def test_exact_sum_matches_fsum_bit_for_bit():
    rng = np.random.default_rng(7)
    wide = rng.standard_normal(3 * _BLOCK + 5) * np.exp(rng.uniform(-700, 700, 3 * _BLOCK + 5))
    x = rng.standard_normal(_BLOCK + 1)
    cases = [
        np.array([1e308, 7e307, -1e308, -7e307, 3.0]),  # near the top of the range
        np.array([8.9e307, 8.9e307, -1e-300]),
        np.array([5e-324] * 7 + [-5e-324] * 2 + [2.2250738585072014e-308]),  # subnormals
        np.array([1.0, 1e100, 1.0, -1e100]),  # heavy cancellation
        np.array([1e16, 1.0, -1e16, 1e-16, -1.0]),
        np.array([1.0, -1.0, 0.5, -0.5]),  # a zero sum
        np.concatenate([x, -x[::-1], [1e-310]]),  # cancels to a subnormal, odd length
        np.full(2 * _BLOCK + 3, 0.1),
        wide,  # mixed signs over the whole exponent range
        np.arange(1.0, 3 * _BLOCK + 6) ** -2.5 * (-1.0) ** np.arange(3 * _BLOCK + 5),
    ]
    for x in cases:
        _assert_matches_fsum(x)


@given(st.integers(1, 3 * _BLOCK + 5), st.integers(-1080, 1000), st.integers(0, 2100),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_exact_sum_matches_fsum_on_random_terms(n, e_low, e_span, seed):
    # signed 53-bit mantissas at exponents drawn from [e_low, e_low + e_span],
    # capped so that no sum overflows; subnormals and zeros included
    rng = np.random.default_rng(seed)
    mant = rng.integers(-(2 ** 53) + 1, 2 ** 53, n).astype(np.float64)
    _assert_matches_fsum(np.ldexp(mant, rng.integers(e_low, min(e_low + e_span, 1000) + 1, n) - 53))


def test_exact_sum_rejects_non_finite_terms():
    # each raises, also where two infinities of one parity would cancel
    for x in ([1.0, 2.0, np.inf, 0.5], [1.0, -np.inf, 0.5], [np.nan, 1.0], [np.inf, 1.0, -np.inf, 2.0]):
        with pytest.raises(OverflowError):
            _blocked_sums(np.array(x))


def test_accumulator_bound_covers_n_max_cap():
    # a run adds at most _BLOCK // 2 fractions below 2^52 in uint64 before it
    # goes into a Python int, whatever n_max is
    assert (_BLOCK // 2) * (2 ** 52 - 1) < 2 ** 64


def _whole_array_direct(r, s, r_bar, s_bar, n_max):
    """The direct sum over n_max-long arrays with math.fsum, tail as in
    double_direct: the blocked pass must reproduce it bit for bit."""
    m = np.arange(1, n_max + 1, dtype=np.float64)
    sign = np.where(m % 2 == 0, 1.0, -1.0)
    prefix = np.cumsum(m ** float(-r) * (sign if r_bar else 1.0))
    outer = m ** float(-s) * (sign if s_bar else 1.0)
    base = math.fsum(outer[1:] * prefix[:-1])
    n = float(n_max)
    noise = 2e-15 * math.sqrt(n) * (1.0 + abs(float(prefix[-1])))
    x = r_bar != s_bar
    *pairs, (c, p) = _expansion(float(r), r_bar, _INNER_ORDER + 1)
    if r_bar or r > 1:
        lead = float(zeta_bar(r) if r_bar else zeta(r)) * _tail(float(s), n, s_bar)
        if not r_bar:
            pairs.insert(0, (1.0 / (r - 1.0), r - 1.0))
    else:
        lead = _log_tail(float(s), n, s_bar) + const_gamma_f64() * _tail(float(s), n, s_bar)
    tail = lead - sum(cc * _tail(s + pp, n, x) for cc, pp in pairs)
    return ExtReal(base + tail), ExtReal(abs(c * _tail(s + p, n, x)) + noise)


def test_blocked_direct_sum_matches_whole_array_reference():
    # the last four settle early: (19, 19) whole after the first block, and
    # (3, 35)'s outer level too, its inner level past m = 2.1e5; the inner
    # levels of (35, 3) and (37, 1-bar) after the first block, their outer
    # levels then summed to n_max as powers times the settled carry
    settling = [(r, s, 10 ** 6) for r, s in ((19, 19), (3, 35), (35, 3), (37, 1))]
    for r, s, deep in [(1, 2, N), (1, 5, N), (2, 3, N), (3, 4, N), (7, 12, N), *settling]:
        for r_bar in (False, True):
            for s_bar in (False, True):
                idx = DoubleIndex(r, s, r_bar, s_bar)
                for n_max in dict.fromkeys((*SEAM_N, deep)) if idx.convergent else ():
                    res = double_direct(idx, n_max)
                    value, est = _whole_array_direct(r, s, r_bar, s_bar, n_max)
                    got = (res.value.hi, res.value.lo, res.tail_estimate.hi, res.tail_estimate.lo)
                    assert got == (value.hi, value.lo, est.hi, est.lo), (r, s, r_bar, s_bar, n_max)
    # the outer levels of (1, 37), (2, 20) and (3, 9) settle after the first
    # block while their inner levels run on: from cold caches to n_max (or,
    # for m^-3 at 1e6, until it settles), and once zeta(1, 3), zeta(2, 4) and
    # zeta(3, 5) have put those inner prefix sums in _PREFIXES, not at all.
    # The warm run keeps the prefix sums of every earlier n_max beside them
    fill = [DoubleIndex(r, r + 2, r_bar) for r in (1, 2, 3) for r_bar in (False, True)]
    refs = {n_max: {idx: _whole_array_direct(r, s, r_bar, s_bar, n_max)
                    for r, s in ((1, 37), (2, 20), (3, 9)) for r_bar in (False, True) for s_bar in (False, True)
                    for idx in [DoubleIndex(r, s, r_bar, s_bar)]}
            for n_max in (*SEAM_N, 10 ** 6)}
    for warm in (False, True):
        clear_direct_caches()
        for n_max, ref in refs.items():
            if warm:
                double_directs(fill, n_max)
            else:
                clear_direct_caches()
            for idx, (value, est) in ref.items():
                res = double_direct(idx, n_max)
                got = (res.value.hi, res.value.lo, res.tail_estimate.hi, res.tail_estimate.lo)
                assert got == (value.hi, value.lo, est.hi, est.lo), (idx, n_max, warm)
    clear_direct_caches()


def _weight_indices(k: int) -> list:
    return [idx for r in range(1, k) for (rb, sb) in CLOSED_FORMS
            if (idx := DoubleIndex(r, k - r, rb, sb)).convergent]


def test_direct_sum_memory_is_bounded():
    # numpy reports its buffers to tracemalloc; an n_max-long float64 array
    # at 1e6 alone is 8 MB, and a batch keeps each power only while a sum
    # in it still needs it
    for run in (lambda: double_direct(DoubleIndex(3, 4, True, False), 10 ** 6),
                lambda: double_direct(DoubleIndex(1, 4), 10 ** 6),
                lambda: double_directs(_weight_indices(38), N)):
        clear_direct_caches()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, peak


def test_outer_sign_siblings_share_one_head_pass(monkeypatch):
    # two requests that differ only in the outer sign (-1)^m run one head
    # pass between them, and each gives the bits it gives from cold caches
    def bits(exps, bars, star, n_max):
        res = _nested_direct(exps, bars, star, n_max)
        return res.value.hi, res.value.lo, res.tail_estimate.hi, res.tail_estimate.lo

    blocks = []
    monkeypatch.setattr(euler_sums, "_add_runs", lambda acc, x: (blocks.append(len(x)), _add_runs(acc, x)))
    for n_max in SEAM_N:
        for exps, inner_bars, star in (((1, 2), (False,), False), ((3, 4), (True,), False),
                                       ((2, 3, 2), (False, False), False),
                                       ((2, 3, 2), (False, False), True)):
            requests = [(exps, (*inner_bars, outer), star, n_max) for outer in (False, True)]
            alone = []
            for request in requests:
                clear_direct_caches()
                alone.append(bits(*request))
            clear_direct_caches()
            blocks.clear()
            assert [bits(*request) for request in requests] == alone, (exps, inner_bars, star, n_max)
            assert sum(blocks) == n_max  # the outermost level's terms went in once


def test_settled_heads_leave_the_pass(monkeypatch):
    # zeta(19, 19) at 1e6 settles after its first block, so only that block's
    # outer terms reach the accumulator; zeta(1, 2), whose inner level is the
    # harmonic sum, never settles and feeds every term
    blocks = []
    monkeypatch.setattr(euler_sums, "_add_runs", lambda acc, x: (blocks.append(len(x)), _add_runs(acc, x)))
    for idx, fed in ((DoubleIndex(19, 19), _FIRST_BLOCK), (DoubleIndex(1, 2), 10 ** 6)):
        clear_direct_caches()
        blocks.clear()
        double_direct(idx, 10 ** 6)
        assert sum(blocks) == fed, (idx, len(blocks))
    clear_direct_caches()


def test_settled_outer_levels_leave_on_cached_prefix_sums(monkeypatch):
    # the outer level of zeta(1, 37) at 1e6 settles after the first block, so
    # only that block's outer terms reach the accumulator.  From cold caches
    # its inner level, the harmonic sum, runs on to n_max; once zeta(1, 3) has
    # put H_(1e6) in _PREFIXES, the key leaves the pass after the first block
    # and runs no later cumsum
    blocks, prefixes = [], []
    cumsum = np.cumsum
    monkeypatch.setattr(euler_sums, "_add_runs", lambda acc, x: (blocks.append(len(x)), _add_runs(acc, x)))
    monkeypatch.setattr(np, "cumsum", lambda a, **kw: (prefixes.append(len(a) - 1), cumsum(a, **kw))[1])
    for warm, summed in ((False, 10 ** 6), (True, _FIRST_BLOCK)):
        clear_direct_caches()
        if warm:
            double_direct(DoubleIndex(1, 3), 10 ** 6)
        blocks.clear()
        prefixes.clear()
        double_direct(DoubleIndex(1, 37), 10 ** 6)
        assert blocks == [_FIRST_BLOCK] and sum(prefixes) == summed, (warm, len(prefixes))
    clear_direct_caches()


def test_settle_predicate_refuses_a_halfway_point():
    # in units of 2^-1074: half is 1 + 2^-53, halfway between the doubles 1
    # and 1 + 2^-52.  A head does not settle while a bound b on its remaining
    # terms reaches a halfway point from even + odd or from even - odd, and
    # one unit is enough on the point itself; 3 + 2^-53 and -1 + 2^-53 sit far
    # from any halfway point
    unit, one = 2.0 ** -1074, 1 << 1074
    half = one + (one >> 53)
    assert _settled(0, one, unit) and _settled(0, one, 1000 * unit)
    assert not _settled(0, half, unit) and not _settled(half, 0, unit)
    for x in (half - 5, half + 5):
        for odd, even in ((0, x), (x, 0), (one, x + one), (one, x - one)):
            assert not _settled(odd, even, 6 * unit) and _settled(odd, even, 4 * unit), (odd, even)


def test_outer_bound_covers_the_running_inner_levels():
    # the outer level may settle while an inner one runs, but its bound takes
    # the inner prefix sums still to come, not the carries alone: with an
    # inner carry of 0 and m^-1 summed on from m0 = 1025 to 1e6, the outer
    # terms m^-2 P_0 add up to about 1e-3 (the bound reads 7e-3), more than
    # the 1.1e-16 from 1.0 to a halfway point, though far below the 64 from
    # 2^60 + 64 to one
    one = 1 << 1074
    assert _settled_levels((1, 2), [0, one, [0.0]], (0, False), 1025, 10 ** 6) == (0, False)
    assert _settled_levels((1, 2), [0, (2 ** 60 + 64) * one, [0.0]], (0, False), 1025, 10 ** 6) == (0, True)


# keys (exps, inner_bars) and star of one batch: depth 2 with both inner bars
# and r == s, depth 3 barred, the depth-9 H exponents, and a duplicate key
BATCHES = (
    ([((1, 2), (False,)), ((1, 2), (True,)), ((5, 5), (True,)), ((5, 5), (False,)),
      ((2, 1), (True,)), ((37, 1), (False,)), ((1, 2), (False,))], False),
    ([((2, 3, 2), (True, False)), ((2, 3, 2), (False, True)), ((3, 2, 2), (True, True)),
      ((2, 2, 2, 2, 3, 2, 2, 2, 2), (False,) * 8), ((2, 3), (False,))], False),
    ([((2, 3, 2), (False, False)), ((2, 2, 2, 2, 3, 2, 2, 2, 2), (False,) * 8),
      ((2,) * 9, (False,) * 8), ((2, 3, 2), (False, False))], True),
)


def test_batched_heads_match_solo_passes_bit_for_bit():
    # one pass over a list of heads shares each power m^-e among them; every
    # head keeps the ints and carries of its own pass
    for n_max in SEAM_N:
        for keys, star in BATCHES:
            solo = []
            for key in keys:
                clear_direct_caches()
                solo.extend(_heads([key], star, n_max))
            clear_direct_caches()
            assert _heads(keys, star, n_max) == solo, (keys, star, n_max)


def test_head_cache_stays_bounded():
    # a batch that finds the cache full empties it and the prefix sums first,
    # and still returns every head, cached before or not
    clear_direct_caches()
    keys = [((1, 2), (False,)), ((3, 4), (True,))]
    first = _heads(keys[:1], False, 100)[0]
    _HEADS.update(((i,), None) for i in range(4094))
    _PREFIXES[(5,), (False,), False, 100] = 0.0  # emptied with _HEADS
    assert _heads(keys, False, 100)[0] == first
    assert len(_HEADS) == 2
    assert set(_PREFIXES) == {((1,), (False,), False, 100), ((3,), (True,), False, 100)}
    clear_direct_caches()


def test_closed_form_repeat_is_one_cache_hit():
    _closed.cache_clear()
    first = closed_bar_s(12, 27)
    value = first.finite
    again = closed_bar_s(12, 27)
    assert again is first and again._finite is value
    assert _closed.cache_info().hits == 1 and _closed.cache_info().misses == 1


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_closed_plain_weight3(frozen):
    v = closed_plain(1, 2)
    assert approx_abs(v.finite, frozen["zeta3"], Fraction(1, 10 ** 29))
    assert float(v.tcoef) == 0.0


def test_closed_plain_vs_direct():
    v = closed_plain(2, 3)
    d = double_direct(DoubleIndex(2, 3), N)
    assert abs(float(v.finite - d.value)) < 1e-8


def test_closed_bar_s_weight3(frozen):
    v = closed_bar_s(1, 2)
    assert approx_abs(v.finite, frozen["zeta3"] / 8, Fraction(1, 10 ** 29))


def test_closed_bar_r_weight3(frozen):
    expected = frozen["zeta3"] - Fraction(3, 2) * frozen["ln2"] * frozen["zeta2"]
    v = closed_bar_r(1, 2)
    assert approx_abs(v.finite, expected, Fraction(1, 10 ** 28))
    d = double_direct(DoubleIndex(1, 2, True, False), 1_000_000)
    assert abs(float(v.finite - d.value)) < 1e-6


def test_closed_bar_both_vs_direct():
    for (r, s) in ((1, 2), (2, 1)):
        v = closed_bar_both(r, s)
        d = double_direct(DoubleIndex(r, s, True, True), 1_000_000)
        assert abs(float(v.finite - d.value)) < 1e-6


def test_closed_forms_even_weight_rejected():
    for fn in (closed_plain, closed_bar_r, closed_bar_s, closed_bar_both):
        with pytest.raises(DomainError):
            fn(1, 1)
        with pytest.raises(DomainError):
            fn(2, 2)


def test_closed_forms_match_fraction_oracle():
    # all 1520 odd-weight keys (k <= 39, four bar patterns; the regularized
    # s = 1 rows by their finite part) against Euler's formula in Fractions
    # over 80-digit Euler-Maclaurin zeta values, even ones included
    tol = Fraction(1, 10 ** 30)
    count = 0
    for k in range(3, 40, 2):
        for r in range(1, k):
            for (rb, sb), (_, fn) in CLOSED_FORMS.items():
                exact = oracles.euler_double(r, k - r, rb, sb)
                got = fn(r, k - r).finite.to_fraction()
                assert abs(got - exact) <= tol * abs(exact), (r, k - r, rb, sb)
                count += 1
    assert count == 1520


def test_closed_form_dispatch():
    idx = DoubleIndex(2, 3, True, False)
    assert float(closed_form(idx).finite) == float(closed_bar_r(2, 3).finite)


def test_tcoef_vanishes_on_convergent_grid():
    for k in range(3, 16, 2):
        for r in range(1, k):
            s = k - r
            for (rb, sb), (_, fn) in CLOSED_FORMS.items():
                if DoubleIndex(r, s, rb, sb).convergent:
                    assert abs(float(fn(r, s).tcoef)) <= 1e-24


def test_regularized_slots_carry_t():
    # divergent plain slot: T-coefficient equals zeta(k-1)
    v = closed_plain(4, 1)
    assert abs(float(v.tcoef - zeta(4))) < 1e-30
    v = closed_bar_r(4, 1)
    assert abs(float(v.tcoef - zeta_bar(4))) < 1e-30


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------

def test_stuffle_direct():
    assert gap(stuffle_check(2, 2, "mixed", N)) < 1e-8
    assert gap(stuffle_check(1, 2, "alternating", N)) < 1e-8
    with pytest.raises(DomainError):
        stuffle_check(2, 1, "mixed", N)


def test_stuffle_linearity_of_residual():
    lhs, rhs = stuffle_check(2, 2, "mixed", N)
    res = lhs - rhs
    assert abs(float((res - res).finite)) == 0.0


def test_stuffle_closed_all_odd_weights():
    for k in range(3, 16, 2):
        for r in range(1, k):
            s = k - r
            for which in ("mixed", "alternating"):
                lhs, rhs = stuffle_closed_check(r, s, which)
                assert gap((lhs, rhs)) <= 1e-24, (r, s, which)
                assert gap((lhs, rhs), 1) <= 1e-24, (r, s, which)


def test_shuffle_relations_numeric():
    for k in range(3, 9):
        for r in range(1, k):
            s = k - r
            if s >= 2:
                assert gap(shuffle_check(r, s, "mixed", N)) < 1e-6
            assert gap(shuffle_check(r, s, "alternating", N)) < 1e-6


def test_sum_formulas():
    assert gap(sum_formula_check(3, "plain", N)) < 1e-8
    for k in range(3, 9):
        for which in SUM_FORMULAS:
            assert gap(sum_formula_check(k, which, N)) < 1e-6, (k, which)


def test_double_index_validation():
    with pytest.raises(DomainError):
        DoubleIndex(0, 2)
    with pytest.raises(DomainError):
        DoubleIndex(30, 30)
    with pytest.raises(DomainError):
        double_direct(DoubleIndex(1, 2), 50)
    with pytest.raises(DomainError):
        double_direct(DoubleIndex(2, 2), N_MAX_CAP + 1)  # rejected before any allocation


def test_non_int_n_max_is_rejected_in_either_call_order():
    # a float equal to a cached int n_max must not be a cache hit reporting
    # terms_used = 100000.0: any n_max that is not an int is a DomainError,
    # whether or not the int ran first, and a prefetch skips it
    idx, h = DoubleIndex(2, 3), HIndex(0, 1)
    for int_first in (False, True):
        clear_direct_caches()
        if int_first:
            assert double_direct(idx, N).terms_used == N and mzv_direct((2, 3), n_max=N).terms_used == N
            assert h_direct(h, N).terms_used == N
        heads = dict(_HEADS)
        for n_max in (float(N), 1000.0, True, np.int64(N)):
            for call in (lambda: double_direct(idx, n_max), lambda: mzv_direct((2, 3), n_max=n_max),
                         lambda: h_direct(h, n_max)):
                with pytest.raises(DomainError):
                    call()
            euler_sums._prefetch([idx], n_max)
            euler_sums._prefetch([idx, h], n_max)
            assert _HEADS == heads, n_max
    clear_direct_caches()
