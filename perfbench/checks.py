"""Output checks.  Every check compares a value from eulerlab with a
reference from refs.py at the accuracy contract of the value's route.

Contracts (README "Accuracy contracts", the benchmark's own where the README
states none):

* ``digits30`` -- zeta, zeta_bar and every closed form (double sums and
  H/H* sums): relative error <= 1e-30, i.e. >= 30 correct digits.
* ``direct`` -- direct summation (double_direct, mzv_direct): absolute error
  <= max(1e-15, the returned tail_estimate).
* ``series`` -- hypergeom.evaluate: absolute error <= max(its tail_estimate,
  1e-30 * |value|): the series' own estimate or the double-double floor of
  30 digits.  (The estimate alone is not always a bound: for
  2F1(6/5, 7/5; 44/15; 1) the error is 5.8e-30 against an estimate of 5.7e-30,
  while the value has 30 correct digits.)
* ``lngamma`` -- ln_gamma has no README contract.  It adds terms of size up
  to ~|x ln x| ~ 60 after its shift to x >= 20, so the check allows
  1e-28 * max(1, |value|).

A value printed with D significant digits is also allowed half a unit in its
last place.

A value that misses its contract is a failure and counts in ``failed``.  The
library has known defects at seed state (ROADMAP 3a: closed forms lose digits
as the weight grows; README: H/H* closed forms lose ~2K digits; evaluate
sometimes misses its own tail_estimate).  data/seed_state.json records every
failing key of every lookup kind with its relative error.  They still count
as failures, but a run stays ``correct`` while every failure is a recorded
key whose error is at most RATCHET times its record (room for the 3-digit
rounding of the record), plus the rounding of a printed table value.  Any
other failure -- a key that passed at seed state, or a recorded one grown
worse -- makes the run incorrect.
"""
from __future__ import annotations

import json
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

import mpmath
from mpmath import mpf

from . import refs

SEED_STATE = Path(__file__).resolve().parent / "data" / "seed_state.json"
RATCHET = 1.5
CHECK_DPS = 50


class Verdict(NamedTuple):
    passed: bool
    error: float  # absolute error
    tolerance: float
    relative: float  # error / |reference|


def to_mpf(hi: float, lo: float = 0.0) -> mpf:
    with mpmath.workdps(CHECK_DPS):
        return mpf(hi) + mpf(lo)


def parse(text: str) -> mpf:
    with mpmath.workdps(CHECK_DPS):
        return mpf(text)


def half_ulp(text: str) -> mpf:
    """Half a unit in the last printed place of a decimal string."""
    exponent = Decimal(text).as_tuple().exponent
    with mpmath.workdps(CHECK_DPS):
        return mpf(10) ** exponent / 2


def check(route: str, value: mpf, reference: mpf, tail: float = 0.0,
          printed: Optional[str] = None) -> Verdict:
    with mpmath.workdps(CHECK_DPS):
        err = abs(value - reference)
        mag = abs(reference)
        if route == "digits30":
            tol = mpf("1e-30") * mag
        elif route == "direct":
            tol = max(mpf("1e-15"), mpf(tail))
        elif route == "series":
            tol = max(mpf(tail), mpf("1e-30") * mag)
        elif route == "lngamma":
            tol = mpf("1e-28") * max(mpf(1), mag)
        else:
            raise KeyError(route)
        if printed is not None:
            tol += half_ulp(printed)
        rel = err / mag if mag else err
        return Verdict(bool(err <= tol), float(err), float(tol), float(rel))


def load_seed_state() -> dict:
    with open(SEED_STATE, encoding="utf-8") as fh:
        return json.load(fh)


def defect_key(*parts) -> str:
    """"13 26 1 0" for (13, 26, 1, 0); "1,1/2 3/2 -1" for (("1", "1/2"), ("3/2",), -1)."""
    def text(p):
        if isinstance(p, (tuple, list)):
            return ",".join(map(str, p))
        return str(int(p)) if isinstance(p, bool) else str(p)

    return " ".join(text(p) for p in parts)


def is_known_defect(seed_state: dict, kind: str, key: str, verdict: Verdict,
                    printing: float = 0.0) -> bool:
    """A failure is known if its key is recorded and its relative error is at
    most RATCHET times the record, plus ``printing``: the relative size of
    half a unit in the last place of a printed value."""
    recorded = seed_state["known_defects"].get(kind, {}).get(key)
    return recorded is not None and verdict.relative <= RATCHET * recorded + printing


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def check_certify(cases: Iterable[dict], seed_state: dict) -> Tuple[int, int, List[str]]:
    """(attempted, failed, messages) for the case records of one report.

    Each case must pass, its tolerance must be <= the seed-state tolerance
    (tolerances may tighten, never loosen), and the set of case ids must
    equal the seed-state set: a missing case counts as a failure.
    """
    recorded: Dict[str, str] = seed_state["certify_tolerances"]
    seen = set()
    failed, messages = 0, []
    cases = list(cases)
    for case in cases:
        cid = case["id"]
        seen.add(cid)
        problems = []
        if not case["pass"]:
            problems.append(f"failed: residual {case['residual']} > tolerance {case['tolerance']}")
        if cid not in recorded:
            problems.append("not in the seed-state case set")
        elif Decimal(case["tolerance"]) > Decimal(recorded[cid]):
            problems.append(f"tolerance {case['tolerance']} looser than seed state {recorded[cid]}")
        if problems:
            failed += 1
            messages.append(f"certify case {cid}: " + "; ".join(problems))
    missing = sorted(set(recorded) - seen)
    for cid in missing:
        messages.append(f"certify case {cid}: missing from the report")
    return len(cases) + len(missing), failed + len(missing), messages


def margin(case: dict) -> float:
    """residual / tolerance (0 for an exact zero residual)."""
    residual, tol = Decimal(case["residual"]), Decimal(case["tolerance"])
    if residual == 0:
        return 0.0
    return float(residual / tol) if tol else float("inf")


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def check_table_rows(label: str, rows: List[dict], refs_double: Dict[tuple, str],
                     seed_state: dict) -> Tuple[int, int, int, List[str]]:
    """(attempted, failed, unknown_failures, messages) for one table call.

    A failure outside the seed-state record gets a message of its own;
    recorded defects get one summary line per call.
    """
    failed = unknown = known = 0
    worst_known = 0.0
    messages: List[str] = []
    if label.startswith("ds"):
        k = int(label[2:])
        # the CLI emits the bar patterns in the order (0,0), (1,0), (0,1), (1,1)
        expected = [(r, k - r, rb, sb) for r in range(1, k) for sb in (0, 1) for rb in (0, 1)]
    else:
        bound = int(label[len("hsums"):])
        expected = [(a, t - a, star) for t in range(bound) for a in range(t + 1) for star in (0, 1)]
    if len(rows) != len(expected):
        messages.append(f"table {label}: {len(rows)} rows, expected {len(expected)}")
        return len(expected), len(expected), len(expected), messages
    for key, row in zip(expected, rows):
        if label.startswith("ds"):
            r, s, rb, sb = key
            got = (int(row["r"]), int(row["s"]), int(row["bar_r"]), int(row["bar_s"]))
            convergent = sb or s >= 2
            if k % 2:
                want_route = _CLOSED_ROUTE[(rb, sb)] + ("" if convergent else "-regularized")
            else:
                want_route = "direct[n=100000]" if convergent else "divergent"
            route, ref = "digits30", None
            if convergent:
                ref = parse(refs_double[key])
                route = "digits30" if k % 2 else "direct"
            defect_kind, dkey = ("closed_form" if k % 2 else "direct_1e5"), defect_key(*key)
        else:
            a, b, star = key
            got = (int(row["a"]), int(row["b"]), int(row["star"]))
            want_route = "closed-binomial"
            ref, route = refs.h_sum(a, b, bool(star)), "digits30"
            defect_kind, dkey = ("hstar_closed" if star else "h_closed"), defect_key(a, b)
        if got != key or row["route"] != want_route:
            failed += 1
            unknown += 1
            messages.append(f"table {label} row {key}: got {got} route {row['route']!r}, "
                            f"expected route {want_route!r}")
            continue
        if ref is None:
            continue
        # a direct row prints a float64 sum; its tail estimate is not in the table
        verdict = check(route, parse(row["value"]), ref, printed=row["value"])
        if verdict.passed:
            continue
        failed += 1
        printing = float(half_ulp(row["value"]) / abs(ref))
        if is_known_defect(seed_state, defect_kind, dkey, verdict, printing):
            known += 1
            worst_known = max(worst_known, verdict.relative)
            continue
        unknown += 1
        messages.append(f"table {label} row {key}: {row['value']} off by {verdict.error:.3g} "
                        f"> {verdict.tolerance:.3g}")
    if known:
        messages.append(f"table {label}: {known} rows miss their check, all recorded seed-state "
                        f"defects (worst relative error {worst_known:.3g})")
    return len(expected), failed, unknown, messages


_CLOSED_ROUTE = {(0, 0): "closed-plain", (1, 0): "closed-inner-bar",
                 (0, 1): "closed-outer-bar", (1, 1): "closed-both-bars"}


# ---------------------------------------------------------------------------
# lookup
# ---------------------------------------------------------------------------

class LookupReference:
    """Reference value and contract route per request key, computed once."""

    def __init__(self, refs_double: Dict[tuple, str]):
        self._double = refs_double
        self._cache: Dict[tuple, Tuple[str, mpf]] = {}

    def __call__(self, kind: str, key: tuple) -> Tuple[str, mpf]:
        k = (kind, key)
        if k not in self._cache:
            self._cache[k] = self._compute(kind, key)
        return self._cache[k]

    def _compute(self, kind: str, key: tuple) -> Tuple[str, mpf]:
        if kind in ("zeta", "zeta_bar"):
            return "digits30", refs.zeta_value(key[0], kind == "zeta_bar")
        if kind == "closed_form":
            return "digits30", parse(self._double[tuple(key)])
        if kind in ("direct_1e5", "direct_1e6"):
            return "direct", parse(self._double[tuple(key)])
        if kind in ("h_closed", "hstar_closed"):
            return "digits30", refs.h_sum(key[0], key[1], kind == "hstar_closed")
        if kind == "mzv_direct":
            return "direct", refs.mzv_equal(key[0], key[1])
        if kind in ("hyp_plus1", "hyp_minus1"):
            upper, lower, x = key
            return "series", refs.hyp([Fraction(u) for u in upper], [Fraction(b) for b in lower], x)
        if kind == "ln_gamma":
            return "lngamma", refs.ln_gamma(Fraction(key[0]))
        raise KeyError(kind)


def check_lookup(stream, outputs, reference: LookupReference, seed_state: dict):
    """(failed, unknown_failures, messages) for the outputs of one lookup pass.

    ``outputs[i]`` is [hi, lo, tail or None, error or None] for request i.
    """
    missing = len(stream) - len(outputs)
    failed = unknown = max(0, missing)
    messages = [f"lookup: {missing} requests without an output"] if missing > 0 else []
    for i, ((kind, key), (hi, lo, tail, error)) in enumerate(zip(stream, outputs)):
        if error is not None:
            failed += 1
            unknown += 1
            messages.append(f"lookup request {i} {kind}{tuple(key)}: raised {error}")
            continue
        route, ref = reference(kind, key)
        verdict = check(route, to_mpf(hi, lo), ref, tail=tail or 0.0)
        if verdict.passed:
            continue
        failed += 1
        known = is_known_defect(seed_state, kind, defect_key(*key), verdict)
        unknown += not known
        messages.append(
            f"lookup request {i} {kind}{tuple(key)}: relative error {verdict.relative:.3g}, "
            f"absolute {verdict.error:.3g} > {verdict.tolerance:.3g}"
            + (" (recorded seed-state defect)" if known else ""))
    return failed, unknown, messages
