"""Microbenchmark phase: per-call cost of single layer operations.

Operands come from the seed; every operation is called once before timing
so lazy set-up (Bernoulli tables, zeta caches, numpy dispatch) is done.
Each figure is the median of several timed repeats.
"""
from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction
from typing import Callable, Dict, Tuple

PAIRS = 2000  # operand pairs per timed arithmetic loop
REPEATS = 7


def _median_loop_ns(loop: Callable[[], None], n_ops: int, baseline_ns: float) -> float:
    loop()  # warm
    runs = []
    for _ in range(REPEATS):
        t0 = time.perf_counter_ns()
        loop()
        runs.append(time.perf_counter_ns() - t0)
    return (statistics.median(runs) - baseline_ns) / n_ops


def _median_call_s(fn: Callable[[int], object], calls: int) -> float:
    """Median seconds of fn(i) for i = 1..calls, after fn(0) warms up."""
    fn(0)
    runs = []
    for i in range(1, calls + 1):
        t0 = time.perf_counter()
        fn(i)
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs)


def run(seed: int) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Returns (metrics, sample counts)."""
    from eulerlab import euler_sums as es
    from eulerlab import hypergeom as hg
    from eulerlab import zagier as zg
    from eulerlab import zeta_core as zc
    from eulerlab.hpreal import ExtReal, exp_dd, ln_dd, to_decimal

    rng = random.Random(seed)
    out: Dict[str, float] = {}
    samples: Dict[str, int] = {}

    def ext(lo: float, hi: float) -> ExtReal:
        x = rng.uniform(lo, hi)
        return ExtReal(x, x * rng.uniform(-1e-17, 1e-17))

    pairs = [(ext(0.5, 2.0), ext(0.5, 2.0)) for _ in range(PAIRS)]
    int_pairs = [(a, rng.randint(2, 10_000)) for a, _ in pairs]

    def loop_of(body, operands):
        def loop():
            for a, b in operands:
                body(a, b)
        return loop

    ops = {
        "add": (lambda a, b: a + b, pairs),
        "mul": (lambda a, b: a * b, pairs),
        "div": (lambda a, b: a / b, pairs),
        "div_int": (lambda a, b: a / b, int_pairs),
    }
    # the empty-body loop prices iteration and the call, leaving the operation
    baseline = _median_loop_ns(loop_of(lambda a, b: None, pairs), 1, 0.0)
    for name, (body, operands) in ops.items():
        out[f"hpreal.{name}_ns"] = _median_loop_ns(loop_of(body, operands), PAIRS, baseline)
        samples[f"hpreal.{name}_ns"] = REPEATS

    exp_args = [ext(-5.0, 5.0) for _ in range(60)]
    ln_args = [ext(0.01, 100.0) for _ in range(60)]
    dec_args = [ext(1e-3, 1e3) for _ in range(60)]
    for name, fn, args in (("exp_dd_us", exp_dd, exp_args), ("ln_dd_us", ln_dd, ln_args),
                           ("to_decimal_us", to_decimal, dec_args)):
        def loop(fn=fn, args=args):
            for x in args:
                fn(x)
        out[f"hpreal.{name}"] = _median_loop_ns(loop, len(args), 0.0) / 1e3
        samples[f"hpreal.{name}"] = REPEATS

    # zeta(k) cold: mean over k = 2..60 right after clearing the cache
    means = []
    for _ in range(3):
        zc.zeta.cache_clear()
        t0 = time.perf_counter()
        for k in range(2, 61):
            zc.zeta(k)
        means.append((time.perf_counter() - t0) / 59)
    out["zeta_core.zeta_cold_ms"] = statistics.median(means) * 1e3
    samples["zeta_core.zeta_cold_ms"] = 3 * 59
    for k in range(2, 61):  # leave the cache warm for the closed forms below
        zc.zeta(k)

    def double_index(weight: int):
        r = rng.randint(1, weight - 2)
        return es.DoubleIndex(r, weight - r, bool(rng.getrandbits(1)), bool(rng.getrandbits(1)))

    # direct sums, uncached: a distinct n_max per call
    for name, n_max, calls in (("direct_1e5_ms", 100_000, 9), ("direct_1e6_ms", 1_000_000, 3)):
        idx = double_index(2 * rng.randint(2, 19))
        out[f"euler_sums.{name}"] = _median_call_s(
            lambda i, idx=idx, n=n_max: es.double_direct(idx, n + 7 * i), calls) * 1e3
        samples[f"euler_sums.{name}"] = calls
    for name, weight in (("closed_w15_ms", 15), ("closed_w39_ms", 39)):
        idxs = [double_index(weight) for _ in range(41)]
        out[f"euler_sums.{name}"] = _median_call_s(lambda i, idxs=idxs: es.closed_form(idxs[i]), 40) * 1e3
        samples[f"euler_sums.{name}"] = 40

    plus1 = hg.HypSpec.of([Fraction(1, 3), Fraction(1, 4)], [Fraction(5, 3)], 1)
    minus1 = hg.HypSpec.of([1, Fraction(1, 2)], [Fraction(3, 2)], -1)
    out["hypergeom.plus1_ms"] = _median_call_s(lambda i: hg.evaluate(plus1), 5) * 1e3
    out["hypergeom.minus1_ms"] = _median_call_s(lambda i: hg.evaluate(minus1), 5) * 1e3
    out["hypergeom.ln_gamma_ms"] = _median_call_s(lambda i: hg.ln_gamma(Fraction(7, 3)), 9) * 1e3
    out["hypergeom.plus1_terms"] = hg.evaluate(plus1).terms_used
    out["hypergeom.minus1_terms"] = hg.evaluate(minus1).terms_used
    samples.update({"hypergeom.plus1_ms": 5, "hypergeom.minus1_ms": 5, "hypergeom.ln_gamma_ms": 9,
                    "hypergeom.plus1_terms": 1, "hypergeom.minus1_terms": 1})

    depth9 = [rng.randint(2, 6) for _ in range(9)]
    out["zagier.mzv_depth9_ms"] = _median_call_s(
        lambda i: zg.mzv_direct(depth9, n_max=100_000 + 7 * i), 5) * 1e3
    ab = [(a, rng.randint(0, 10 - a)) for a in (rng.randint(0, 10) for _ in range(41))]
    out["zagier.h_closed_ms"] = _median_call_s(lambda i: zg.h_closed(*ab[i]), 40) * 1e3
    out["zagier.pilehrood_ms"] = _median_call_s(
        lambda i: zg.hstar_pilehrood(*ab[i], n_max=100_000 + 7 * i), 9) * 1e3
    samples.update({"zagier.mzv_depth9_ms": 5, "zagier.h_closed_ms": 40, "zagier.pilehrood_ms": 9})
    return out, samples
