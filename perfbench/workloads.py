"""Workload definitions: what each workload runs, and the seeded request
stream of ``lookup``.  Nothing here imports eulerlab, so the stream can be
generated (and tested) without the library."""
from __future__ import annotations

import functools
import json
import math
import random
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

WORKLOADS = ("certify", "tables", "lookup")

# Seconds one pass takes on the reference machine (2 vCPU Xeon, Python 3.11):
# a run makes max(1, round(seconds / nominal)) passes, so the work of a run
# depends only on --seconds, never on how fast the program is.
NOMINAL_PASS_S = {"certify": 35.0, "tables": 14.0}

SUITE_ORDER = ("stuffle", "shuffle", "sumformulas", "closedforms", "genfun", "hyp", "zagier")
TABLE_WEIGHTS = tuple(range(2, 40))
HSUMS_BOUND = 20


def passes(workload: str, seconds: int) -> int:
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def certify_argv(report_path: str) -> List[str]:
    return ["verify", "all", "--fast", "--json", report_path]


def table_calls(out_dir: str) -> List[Tuple[str, List[str], str]]:
    """(label, argv, output path) for every call of a tables pass."""
    calls = []
    for k in TABLE_WEIGHTS:
        path = f"{out_dir}/ds{k}.csv"
        calls.append((f"ds{k}", ["table", "doublesums", str(k), "--out", path], path))
    path = f"{out_dir}/hsums{HSUMS_BOUND}.csv"
    calls.append((f"hsums{HSUMS_BOUND}", ["table", "hsums", str(HSUMS_BOUND), "--out", path], path))
    return calls


# ---------------------------------------------------------------------------
# lookup: one closed-loop client sending single-value requests
# ---------------------------------------------------------------------------

# Requests per --seconds second, sized so a run takes about --seconds at
# seed state.  The count is fixed by --seconds, so a faster program finishes
# the same requests sooner.
LOOKUP_RATE = 50
# The latency percentiles leave out the first third of a stream, where the
# caches warm up, and so describe the long-lived process in its steady
# state.  Over a whole stream about half the requests are cache hits of a
# few microseconds, so p50 would sit on the edge between hits and computed
# values, where it moves by ~30 % from run to run; after the warm-up it lies
# among the hits.  At --seconds 30 the steady part has 1002 requests, so 10 lie
# beyond p99.  wall_s and cpu_s cover the whole stream: every distinct key
# misses once somewhere in it, while the share of misses that falls after
# the warm-up depends on the seed.
WARMUP_SHARE = 1 / 3
LOOKUP_KINDS = ("zeta", "zeta_bar", "closed_form", "direct_1e5", "direct_1e6", "h_closed",
                "hstar_closed", "mzv_direct", "hyp_plus1", "hyp_minus1", "ln_gamma")

# The share of each kind and the share of repeated keys within it are those
# of the single-value calls that `verify all --fast` makes to the functions
# `eulerlab compute` routes to (data/lookup_mix.json, written by
# record_seed_state.py).  Certify makes every direct sum at n_max 1e5; the
# minority at 1e6 asked for beside it is an assumption, not a measurement.
MIX_FILE = Path(__file__).resolve().parent / "data" / "lookup_mix.json"
DIRECT_1E6_SHARE = 0.2


def load_mix() -> Dict[str, Tuple[float, float]]:
    """kind -> (share of requests, share of the kind's requests that repeat a key)."""
    data = json.loads(MIX_FILE.read_text(encoding="utf-8"))
    calls, repeats = data["calls"], data["repeats"]
    total = sum(calls.values())
    mix = {}
    for kind, n in calls.items():
        share, repeat = n / total, repeats[kind] / n
        if kind == "direct":
            mix["direct_1e5"] = (share * (1 - DIRECT_1E6_SHARE), repeat)
            mix["direct_1e6"] = (share * DIRECT_1E6_SHARE, repeat)
        else:
            mix[kind] = (share, repeat)
    return {kind: mix[kind] for kind in LOOKUP_KINDS}


Request = Tuple[str, tuple]


def _double_keys(weights: Sequence[int]) -> Dict[int, List[tuple]]:
    """Convergent (r, s, r_bar, s_bar) by weight (outer slot s; unbarred s >= 2)."""
    return {k: [(r, k - r, rb, sb) for r in range(1, k) for rb in (0, 1) for sb in (0, 1)
                if sb or k - r >= 2]
            for k in weights}


CLOSED_KEYS = _double_keys(range(3, 40, 2))  # routed to closed_form (odd weight <= 39)
DIRECT_KEYS = _double_keys(range(2, 41, 2))  # routed to double_direct (even weight)


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _rand_frac(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    while True:
        den = rng.choice((1, 2, 3, 4, 5, 6))
        f = Fraction(rng.randint(math.ceil(lo * den), math.floor(hi * den)), den)
        if lo < f <= hi:
            return f


def _hyp_plus1(rng: random.Random, i: int) -> tuple:
    """2F1 at +1 (Gauss) for even i, else 3F2 at +1 in Dixon's well-poised shape."""
    margins = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 2))
    if i % 2 == 0:
        a = _rand_frac(rng, Fraction(0), Fraction(3))
        b = _rand_frac(rng, Fraction(0), Fraction(3))
        c = a + b + rng.choice(margins)
        return ((_frac_str(a), _frac_str(b)), (_frac_str(c),), 1)
    while True:
        a = _rand_frac(rng, Fraction(0), Fraction(3))
        b = _rand_frac(rng, Fraction(0), Fraction(2))
        c = _rand_frac(rng, Fraction(0), Fraction(2))
        h = a / 2
        # convergence margin 2 + a - 2b - 2c and positive Gamma arguments
        if 2 + a - 2 * b - 2 * c >= Fraction(1, 3) and min(1 + h - b, 1 + h - c, 1 + a - b - c) > 0:
            return ((_frac_str(a), _frac_str(b), _frac_str(c)),
                    (_frac_str(1 + a - b), _frac_str(1 + a - c)), 1)


def _hyp_minus1(rng: random.Random, i: int) -> tuple:
    """2F1 (even i) or 3F2 at -1 with positive parameters and margin >= -1/2."""
    p = 2 + i % 2
    while True:
        upper = [_rand_frac(rng, Fraction(0), Fraction(3)) for _ in range(p)]
        lower = [_rand_frac(rng, Fraction(0), Fraction(4)) for _ in range(p - 1)]
        if sum(lower) - sum(upper) >= Fraction(-1, 2) and not set(upper) & set(lower):
            return (tuple(map(_frac_str, upper)), tuple(map(_frac_str, lower)), -1)


# The hypergeometric kinds draw from a fixed pool, so that every key a run
# can send is known in advance and its seed-state accuracy recorded.
HYP_POOL_SIZE = 400


@functools.lru_cache(maxsize=None)
def hyp_pool(kind: str) -> Tuple[tuple, ...]:
    draw = _hyp_plus1 if kind == "hyp_plus1" else _hyp_minus1
    rng = random.Random(0)
    keys: List[tuple] = []
    seen = set()
    while len(keys) < HYP_POOL_SIZE:
        key = draw(rng, len(keys))
        if key not in seen:
            seen.add(key)
            keys.append(key)
    return tuple(keys)


def key_space(kind: str) -> List[tuple]:
    """Every key draw_key can return for a kind."""
    if kind in ("zeta", "zeta_bar"):
        return [(k,) for k in range(2, 61)]
    if kind == "closed_form":
        return [key for keys in CLOSED_KEYS.values() for key in keys]
    if kind in ("direct_1e5", "direct_1e6"):
        return [key for keys in DIRECT_KEYS.values() for key in keys]
    if kind in ("h_closed", "hstar_closed"):
        return [(a, total - a) for total in range(11) for a in range(total + 1)]
    if kind == "mzv_direct":
        return [(s, depth) for s in range(2, 7) for depth in range(3, 10)]
    if kind in ("hyp_plus1", "hyp_minus1"):
        return list(hyp_pool(kind))
    if kind == "ln_gamma":
        values = {Fraction(n, den) for den in range(1, 7) for n in range(1, 40 * den + 1)}
        return [(_frac_str(f),) for f in sorted(values)]
    raise KeyError(kind)


def draw_key(kind: str, rng: random.Random) -> tuple:
    """A key of a kind, drawn from its key space."""
    if kind in ("zeta", "zeta_bar"):
        return (rng.randint(2, 60),)
    if kind == "closed_form":
        return rng.choice(CLOSED_KEYS[rng.choice(sorted(CLOSED_KEYS))])
    if kind in ("direct_1e5", "direct_1e6"):
        return rng.choice(DIRECT_KEYS[rng.choice(sorted(DIRECT_KEYS))])
    if kind in ("h_closed", "hstar_closed"):
        total = rng.randint(0, 10)
        a = rng.randint(0, total)
        return (a, total - a)
    if kind == "mzv_direct":
        return (rng.randint(2, 6), rng.randint(3, 9))  # zeta({s}^depth)
    if kind in ("hyp_plus1", "hyp_minus1"):
        return rng.choice(hyp_pool(kind))
    if kind == "ln_gamma":
        return (_frac_str(_rand_frac(rng, Fraction(0), Fraction(40))),)
    raise KeyError(kind)


def lookup_requests(seed: int, seconds: int) -> List[Request]:
    """The request stream of one lookup run: a pure function of (seed, seconds).

    Each kind gets a fixed share of the requests; within a kind the seed picks
    which keys appear and the order.  Fixed shares keep the mix, and so the
    latency percentiles, the same from seed to seed.  The new keys of a kind
    come first in its list and the rest repeat them round-robin, so every key
    appears equally often (+-1) and no single popular key moves the
    percentiles.
    """
    rng = random.Random(seed)
    total = max(200, LOOKUP_RATE * seconds)
    stream: List[Request] = []
    for kind, (share, repeat) in load_mix().items():
        count = max(1, round(total * share))
        n_new = min(len(key_space(kind)), max(1, math.ceil(count * (1 - repeat))))
        keys: List[tuple] = []
        seen = set()
        while len(keys) < n_new:
            key = draw_key(kind, rng)
            if key not in seen:
                seen.add(key)
                keys.append(key)
        repeats = [keys[j % len(keys)] for j in range(count - len(keys))]
        stream.extend((kind, key) for key in keys + repeats)
    rng.shuffle(stream)
    return stream


def warmup_count(stream: Sequence[Request]) -> int:
    """How many requests at the head of a stream the percentiles leave out."""
    return int(len(stream) * WARMUP_SHARE)


def repeat_share(stream: Sequence[Request]) -> float:
    seen = set()
    repeats = 0
    for req in stream:
        if req in seen:
            repeats += 1
        seen.add(req)
    return repeats / len(stream)
