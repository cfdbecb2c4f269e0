"""Record the seed-state facts the workloads and output checks build on.

    python3 perfbench/record_seed_state.py

Runs ``verify all --fast --jobs 1`` once, with the functions that
``eulerlab compute`` routes to wrapped, then evaluates every key each lookup
kind can send (about 5.5 minutes).  Writes two files:

data/lookup_mix.json -- the lookup mix.  For each kind, the number of
  single-value calls certify makes (a call not made from inside another
  routed function) and how many of them repeat an earlier call's arguments.
  Calls to ``closed_plain`` / ``closed_bar_*`` count as ``closed_form``, and
  ``evaluate`` splits by its argument into ``hyp_plus1`` and ``hyp_minus1``.

data/seed_state.json:

* ``certify_tolerances`` -- every ``verify all --fast`` case id with its
  tolerance.  A later run must produce exactly these ids, each passing at a
  tolerance no looser than recorded.
* ``known_defects`` -- per lookup kind, every key whose value misses its
  output check, with its relative error; H and H* are evaluated up to
  a + b <= 19, the range of ``table hsums 20``.  These are the defects of
  ROADMAP 3(a), of the README note on H/H*, and of ``evaluate`` missing its
  own tail_estimate (e.g. 2F1(7/3, 14/5; 82/15; 1)).  They count as failures
  in every run.
"""
from __future__ import annotations

import json
import sys
from collections import Counter
from decimal import Decimal
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from perfbench import checks, refs, tracing, workloads  # noqa: E402

ROUTED = {
    "zeta_core.zeta": "zeta", "zeta_core.zeta_bar": "zeta_bar",
    "euler_sums.closed_form": "closed_form", "euler_sums.closed_plain": "closed_form",
    "euler_sums.closed_bar_r": "closed_form", "euler_sums.closed_bar_s": "closed_form",
    "euler_sums.closed_bar_both": "closed_form", "euler_sums.double_direct": "direct",
    "zagier.h_closed": "h_closed", "zagier.hstar_closed": "hstar_closed",
    "zagier.mzv_direct": "mzv_direct", "hypergeom.evaluate": "hyp", "hypergeom.ln_gamma": "ln_gamma",
}
TABLE_H_KEYS = [(a, total - a) for total in range(workloads.HSUMS_BOUND) for a in range(total + 1)]


class RouteCalls:
    """Records (kind, arguments) of the outermost calls to routed functions."""

    def __init__(self):
        self.calls = []
        self.depth = 0
        self.on = True

    def wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            if self.on and self.depth == 0:
                kind = ROUTED[name]
                if kind == "hyp":
                    kind = "hyp_plus1" if args[0].argument == 1 else "hyp_minus1"
                self.calls.append((kind, name, repr(args), repr(sorted(kwargs.items()))))
            self.depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.depth -= 1

        return wrapper

    def mix(self) -> dict:
        calls, repeats, seen = Counter(), Counter(), set()
        for call in self.calls:
            calls[call[0]] += 1
            repeats[call[0]] += call in seen
            seen.add(call)
        return {"calls": dict(sorted(calls.items())), "repeats": dict(sorted(repeats.items()))}


def main() -> None:
    from eulerlab.verify import run_suite

    routes = RouteCalls()
    tracing.install_wrappers(routes.wrap, ROUTED)
    report = run_suite("all", fast=True, jobs=1)
    routes.on = False
    if not report.all_passed:
        raise SystemExit("verify all --fast does not pass; nothing recorded")
    mix = routes.mix()
    workloads.MIX_FILE.write_text(json.dumps(mix, indent=1) + "\n", encoding="utf-8")
    print(f"lookup mix: {mix}")

    tolerances = {c.id: str(Decimal(c.tolerance).normalize()) for c in report.cases}
    defects = known_defects(refs.load_double_table())
    out = {"certify_tolerances": tolerances, "known_defects": defects}
    checks.SEED_STATE.write_text(json.dumps(out, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(tolerances)} cases; defects: " + ", ".join(f"{k} {len(v)}" for k, v in defects.items()))


def known_defects(double) -> dict:
    from perfbench.child import lookup_dispatch

    run = lookup_dispatch()
    reference = checks.LookupReference(double)
    defects = {}
    for kind in workloads.LOOKUP_KINDS:
        keys = TABLE_H_KEYS if kind in ("h_closed", "hstar_closed") else workloads.key_space(kind)
        found = defects[kind] = {}
        for key in keys:
            value, tail = run(kind, key)
            route, ref = reference(kind, key)
            verdict = checks.check(route, checks.to_mpf(value.hi, value.lo), ref,
                                   tail=float(tail) if tail is not None else 0.0)
            if not verdict.passed:
                found[checks.defect_key(*key)] = float(f"{verdict.relative:.3g}")
        print(f"{kind}: {len(found)} of {len(keys)} keys miss their check", flush=True)
    return defects


if __name__ == "__main__":
    main()
