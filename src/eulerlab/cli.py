"""Command-line front end: compute individual quantities, run named
verification suites, emit value tables.

Exit codes: 0 success / all cases pass, 1 verification failure, 2 usage
error, 3 divergent request (the message names the regularized alternative),
4 internal error.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Sequence

from .hpreal import DomainError, ExtReal, to_decimal
from .zeta_core import zeta, zeta_bar
from . import euler_sums as es
from . import hypergeom as hg
from . import zagier as zg
from .verify import SUITES, run_suite

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_DIVERGENT = 3
EXIT_INTERNAL = 4


class DivergentRequest(Exception):
    """A convergent value was requested where the series diverges."""


class UsageError(Exception):
    pass


# the width str(ExtReal) prints: a double-double holds ~32 digits (2^-106 ~ 1.2e-32)
_MAX_DIGITS = 32


def _digits(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if not 1 <= value <= _MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"must be an integer in [1, {_MAX_DIGITS}], got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulerlab",
        description="High-precision zeta values, double Euler sums, nested "
                    "2-3-2 sums, hypergeometric sums, and their verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="print a single value")
    p_compute.add_argument("kind", choices=["zeta", "zetabar", "mzv", "hsum", "hyp"])
    p_compute.add_argument("args", nargs="*", help="indices; prefix ~ marks an alternating slot")
    p_compute.add_argument("--digits", type=_digits, default=30)
    p_compute.add_argument("--n-max", type=int, default=es.DEFAULT_N_MAX,
                           help="truncation for direct summation routes")
    p_compute.add_argument("--star", action="store_true", help="hsum: star variant")
    p_compute.add_argument("--upper", type=str, default=None, help="hyp: comma-separated upper parameters")
    p_compute.add_argument("--lower", type=str, default=None, help="hyp: comma-separated lower parameters")
    p_compute.add_argument("--x", type=int, default=1, choices=[1, -1], help="hyp: argument")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=list(SUITES))
    speed = p_verify.add_mutually_exclusive_group()
    speed.add_argument("--fast", action="store_true", default=True,
                       help="n_max = 1e3 and reduced grids (default)")
    speed.add_argument("--slow", action="store_true",
                       help="n_max = 1e6, cross-checking the tails, and full grids")
    p_verify.add_argument("--json", type=str, default=None, metavar="PATH",
                          help="write the machine-readable report here")
    p_verify.add_argument("--jobs", type=int, default=None,
                          help="accepted for compatibility; cases always run serially")

    p_table = sub.add_parser("table", help="emit a value table")
    p_table.add_argument("kind", choices=["doublesums", "hsums"])
    p_table.add_argument("bound", type=int, help="weight (doublesums) or K bound (hsums)")
    p_table.add_argument("--format", dest="fmt", choices=["csv", "json"], default="csv")
    p_table.add_argument("--digits", type=_digits, default=30)
    p_table.add_argument("--n-max", type=int, default=es.DEFAULT_N_MAX)
    p_table.add_argument("--out", type=str, default=None)
    return parser


def _parse_fraction(tok: str) -> Fraction:
    tok = tok.strip()
    try:
        if "/" in tok:
            num, den = tok.split("/", 1)
            return Fraction(int(num), int(den))
        if "." in tok or "e" in tok.lower():
            return Fraction(tok)
        return Fraction(int(tok))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse parameter {tok!r}") from exc


def _parse_index_token(tok: str):
    bar = tok.startswith("~")
    body = tok[1:] if bar else tok
    try:
        weight = int(body)
    except ValueError as exc:
        raise UsageError(f"malformed index {tok!r}; expected an integer, ~ marks a bar") from exc
    if weight < 0:
        raise UsageError("index weights must be nonnegative")
    return weight, bar


def _compute_depth1(weight: int, bar: bool) -> ExtReal:
    if bar:
        if weight >= 1:
            return zeta_bar(weight)
        raise DivergentRequest(
            "zeta(~0) has no convergent series; zeta_reg assigns the value -1/2")
    if weight >= 2:
        return zeta(weight)
    if weight == 1:
        raise DivergentRequest(
            "zeta(1) diverges; it is carried symbolically as T by zeta_reg")
    raise DivergentRequest(
        "zeta(0) has no convergent series; zeta_reg assigns the value -1/2")


def _compute_mzv(tokens: Sequence[str], n_max: int) -> ExtReal:
    if not tokens:
        raise UsageError("mzv needs at least one index")
    idx = [_parse_index_token(t) for t in tokens]
    if len(idx) == 1:
        return _compute_depth1(*idx[0])
    if len(idx) == 2:
        (r, rb), (s, sb) = idx
        if r < 1 or s < 1:
            raise UsageError("double sum exponents must be >= 1")
        d = es.DoubleIndex(r, s, rb, sb)
        if not d.convergent:
            raise DivergentRequest(
                f"{d} diverges (unbarred outer exponent 1); closed_plain / "
                "closed_bar_r return its regularized value")
        if (r + s) % 2 == 1 and r + s <= 39:
            return es.closed_form(d).finite
        return es.double_direct(d, n_max).value
    if any(bar for _, bar in idx):
        raise UsageError("alternating slots are supported at depth <= 2 only")
    exps = [w for w, _ in idx]
    if any(e < 2 for e in exps):
        raise UsageError("depth >= 3 requires all exponents >= 2")
    return zg.mzv_direct(exps, star=False, n_max=n_max).value


def _cmd_compute(ns) -> int:
    if ns.kind == "zeta":
        if len(ns.args) != 1:
            raise UsageError("compute zeta takes exactly one weight")
        w, bar = _parse_index_token(ns.args[0])
        value = _compute_depth1(w, bar)
    elif ns.kind == "zetabar":
        if len(ns.args) != 1:
            raise UsageError("compute zetabar takes exactly one weight")
        w, _ = _parse_index_token(ns.args[0])
        value = _compute_depth1(w, True)
    elif ns.kind == "mzv":
        value = _compute_mzv(ns.args, ns.n_max)
    elif ns.kind == "hsum":
        if len(ns.args) != 2:
            raise UsageError("compute hsum takes indices a b")
        (a, a_bar), (b, b_bar) = (_parse_index_token(t) for t in ns.args)
        if a_bar or b_bar:
            raise UsageError("hsum indices take no bar")
        value = zg.hstar_closed(a, b) if ns.star else zg.h_closed(a, b)
    elif ns.kind == "hyp":
        if ns.upper is None or ns.lower is None:
            raise UsageError("compute hyp needs --upper and --lower")
        upper = [_parse_fraction(t) for t in ns.upper.split(",") if t.strip()]
        lower = [_parse_fraction(t) for t in ns.lower.split(",") if t.strip()]
        spec = hg.HypSpec.of(upper, lower, ns.x)
        if hg.classify(spec) is hg.ConvClass.DIVERGENT:
            raise DivergentRequest(
                "series diverges at this argument; no regularized value is defined here")
        value = hg.evaluate(spec).value
    else:  # pragma: no cover
        raise UsageError(f"unknown kind {ns.kind}")
    print(to_decimal(value, ns.digits))
    return EXIT_OK


def _write(path: str, text: str) -> None:
    """Write text to the file at path; a path that cannot be written is a usage error."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _cmd_verify(ns, out=None) -> int:
    report = run_suite(ns.suite, fast=not ns.slow, jobs=ns.jobs)
    print(report.table(), file=out or sys.stdout)
    if ns.json:
        _write(ns.json, report.to_json() + "\n")
    return EXIT_OK if report.all_passed else EXIT_VERIFY_FAIL


def _doublesums_rows(k: int, n_max: int, digits: int) -> List[dict]:
    if not 2 <= k <= 39:
        raise UsageError("doublesums weight must be in [2, 39]")
    indices = [es.DoubleIndex(r, k - r, rb, sb) for r in range(1, k) for rb, sb in es.CLOSED_FORMS]
    # even weight: each convergent sum directly, in one head pass; odd: closed forms in one pass
    direct = [idx for idx in indices if idx.convergent and k % 2 == 0]
    values = dict(zip(direct, es.double_directs(direct, n_max)))
    closed = dict(zip(indices, es.closed_finites(indices))) if k % 2 else {}
    rows = []
    for idx in indices:
        name = es.CLOSED_FORMS[idx.r_bar, idx.s_bar][0]
        if idx in values:
            value_str, route = to_decimal(values[idx].value, digits), f"direct[n={n_max}]"
        elif idx in closed:
            value_str = to_decimal(closed[idx], digits)
            route = f"closed-{name}" if idx.convergent else f"closed-{name}-regularized"
        else:
            value_str, route = "NA", "divergent"
        rows.append({
            "r": idx.r, "s": idx.s, "bar_r": int(idx.r_bar), "bar_s": int(idx.s_bar),
            "value": value_str, "route": route,
        })
    return rows


def _hsums_rows(k_bound: int, digits: int) -> List[dict]:
    if not 1 <= k_bound <= 20:
        raise UsageError("hsums bound must be in [1, 20]")
    rows = []
    for total in range(k_bound):
        for a in range(total + 1):
            b = total - a
            for star in (False, True):
                value = zg.hstar_closed(a, b) if star else zg.h_closed(a, b)
                rows.append({
                    "a": a, "b": b, "star": int(star),
                    "value": to_decimal(value, digits),
                    "route": "closed-binomial",
                })
    return rows


def _cmd_table(ns) -> int:
    if ns.kind == "doublesums":
        rows = _doublesums_rows(ns.bound, ns.n_max, ns.digits)
        fields = ["r", "s", "bar_r", "bar_s", "value", "route"]
    else:
        rows = _hsums_rows(ns.bound, ns.digits)
        fields = ["a", "b", "star", "value", "route"]
    if ns.fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = json.dumps({"kind": ns.kind, "bound": ns.bound, "rows": rows}, indent=2) + "\n"
    if ns.out:
        _write(ns.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser main reuses from call to call, built at the first call:
    parsing keeps no state in it, and building it costs more than a cached
    table."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        # parse_known_args lets positionals follow flags (compute hsum --star 0 0)
        ns, extra = _parser().parse_known_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if extra:
        if ns.command == "compute" and all(not t.startswith("-") for t in extra):
            ns.args = list(ns.args) + extra
        else:
            print(f"error: unrecognized arguments: {' '.join(extra)}", file=sys.stderr)
            return EXIT_USAGE
    try:
        if ns.command != "verify":  # every --n-max, whether or not a direct sum runs
            es._check_n_max(ns.n_max)
        if ns.command == "compute":
            return _cmd_compute(ns)
        if ns.command == "verify":
            return _cmd_verify(ns)
        if ns.command == "table":
            return _cmd_table(ns)
        raise UsageError(f"unknown command {ns.command}")  # pragma: no cover
    except DivergentRequest as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENT
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # infrastructure failure
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
