"""Named verification suites and machine-readable reports.

Every case is a Case(id, tolerance, sides): one thunk returns the two sides
of the identity the case states, as exact values (see _read), or as two
equal-length tuples of them.  The runner alone subtracts them, exactly: the
residual is the largest |lhs - rhs| over the components, compared with the
tolerance exactly, and the report prints the component where it occurs.  All
four quantities are 30-digit decimal strings, so reports are byte-identical
across runs, and across platforms for the cases that take no direct sum (see
README.md).  Cases run serially and are emitted in id order.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Dict, List, NamedTuple, Optional

from .hpreal import ZERO, ExtReal, _ratio, parse_decimal, sinc_pi, to_decimal
from .zeta_core import SeriesResult, ZetaPoly, zeta, zeta_bar
from . import euler_sums as es
from . import genfun
from . import hypergeom as hg
from . import zagier as zg

__all__ = ["Case", "TPart", "CaseResult", "VerifyReport", "SUITES", "run_suite", "FAST_N_MAX", "SLOW_N_MAX"]

FAST_N_MAX = 1_000
SLOW_N_MAX = 1_000_000


class Case(NamedTuple):
    """One verify case: `sides()` returns its (lhs, rhs)."""

    id: str
    tolerance: float
    sides: Callable[[], tuple]


@dataclass(frozen=True)
class TPart:
    """A side read at a ring element's T-coefficient, not its finite part."""

    poly: ZetaPoly


@dataclass(frozen=True)
class CaseResult:
    id: str
    lhs: str
    rhs: str
    residual: str
    tolerance: str
    passed: bool

    def as_dict(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


@dataclass
class VerifyReport:
    suite: str
    cases: List[CaseResult] = field(default_factory=list)
    wall_time_ms: int = 0

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def as_dict(self) -> Dict[str, object]:
        return {
            "suite": self.suite,
            "cases": [c.as_dict() for c in self.cases],
            "wall_time_ms": self.wall_time_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)

    def table(self) -> str:
        lines = [f"suite: {self.suite}"]
        width = max((len(c.id) for c in self.cases), default=10)
        for c in self.cases:
            mark = "pass" if c.passed else "FAIL"
            lines.append(f"  {c.id:<{width}}  residual={c.residual:<36} tol={c.tolerance:<12} {mark}")
        n_fail = sum(1 for c in self.cases if not c.passed)
        lines.append(
            f"  {len(self.cases)} cases, {len(self.cases) - n_fail} passed, "
            f"{n_fail} failed, {self.wall_time_ms} ms"
        )
        return "\n".join(lines)


def _batched(cases: List[Case], requests: list, n_max: int) -> List[Case]:
    """The cases, the first to run prefetching the suite's direct sums (see
    euler_sums._prefetch): one head pass per star value, cached for the rest."""
    once = lru_cache(None)(lambda: es._prefetch(requests, n_max))
    return [Case(cid, tol, lambda sides=sides: (once(), sides())[1]) for cid, tol, sides in cases]


# ---------------------------------------------------------------------------
# Suite builders
# ---------------------------------------------------------------------------

# (case-id tag, which) of the two products zeta(r; a) zeta(s; b)
_PRODUCTS = (("mixed", "mixed"), ("alt", "alternating"))


def _product_checks(weights) -> list:
    """(r, s, tag, which) of the stuffle or shuffle checks (mixed ones need s >= 2)."""
    return [(r, k - r, tag, which) for k in weights for r in range(1, k)
            for tag, which in _PRODUCTS if k - r >= 2 or tag == "alt"]


def _suite_stuffle(n_max: int, fast: bool) -> List[Case]:
    weights = (3, 4, 5)
    cases = [Case(f"stuffle-{tag}[r={r},s={s}]", 1e-8,
                  lambda r=r, s=s, which=which: genfun.stuffle_check(r, s, which, n_max))
             for r, s, tag, which in _product_checks(weights)]
    return _batched(cases, [idx for k in weights for idx in genfun.direct_indices(k)], n_max)


def _suite_shuffle(n_max: int, fast: bool) -> List[Case]:
    weights = range(3, 9)
    cases = [Case(f"shuffle-{tag}[r={r},s={s}]", 1e-6,
                  lambda r=r, s=s, which=which: genfun.shuffle_check(r, s, which, n_max))
             for r, s, tag, which in _product_checks(weights)]
    return _batched(cases, [idx for k in weights for idx in genfun.direct_indices(k)], n_max)


def _suite_sumformulas(n_max: int, fast: bool) -> List[Case]:
    checks = [(k, which) for k in range(3, 9) for which in es.SUM_FORMULAS]
    cases = [Case(f"sumformula-{which}[k={k}]", 1e-6,
                  lambda k=k, which=which: es.sum_formula_check(k, which, n_max))
             for k, which in checks]
    return _batched(cases, [idx for check in checks for idx in es._sum_formula_sums(*check)[0]], n_max)


def _suite_closedforms(n_max: int, fast: bool) -> List[Case]:
    cases: List[Case] = []
    direct = []  # the vs-direct indices
    for k in range(3, (11 if fast else 15) + 1, 2):
        for r in range(1, k):
            s = k - r
            for (rb, sb), (name, fn) in es.CLOSED_FORMS.items():
                idx = es.DoubleIndex(r, s, rb, sb)
                if idx.convergent:
                    direct.append(idx)
                    cases.append(Case(f"closed-{name}-vs-direct[r={r},s={s}]", 1e-6,
                                      lambda fn=fn, r=r, s=s, idx=idx: (fn(r, s), es.double_direct(idx, n_max))))
                    cases.append(Case(f"closed-{name}-tcoef[r={r},s={s}]", 0.0,
                                      lambda fn=fn, r=r, s=s: (TPart(fn(r, s)), ZERO)))
            for tag, which in _PRODUCTS:  # each side as its (finite, T-part) pair
                cases.append(Case(f"stuffle-closed-{tag}[r={r},s={s}]", 0.0, lambda r=r, s=s, which=which: tuple(
                    (e, TPart(e)) for e in genfun.stuffle_closed_check(r, s, which))))
    return _batched(cases, direct, n_max)


def _suite_genfun(n_max: int, fast: bool) -> List[Case]:
    cases: List[Case] = []
    weights = range(3, 10)
    for k in weights:
        for family in genfun.RELATIONS:
            if family == "reduction" and k % 2 == 0:
                continue
            # both cases read one evaluation of the family at weight k
            relations = lru_cache(None)(lambda family=family, k=k: genfun.verify_relations(family, k, n_max))
            cases.append(Case(f"genfun-{family}-finite[k={k}]", 1e-6, relations))
            cases.append(Case(f"genfun-{family}-tpart[k={k}]", 0.0, lambda relations=relations: tuple(
                tuple(map(TPart, side)) for side in relations())))
    return _batched(cases, [idx for k in weights for idx in genfun.direct_indices(k)], n_max)


def _rational_grid(seed: int, count: int):
    """Deterministic pseudo-random small rationals avoiding degeneracies."""
    import random

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        (pa, qa), (pb, qb), (pc, qc) = [(rng.randint(-8, 12), rng.randint(1, 6)) for _ in range(3)]
        n = rng.randint(0, 6)
        d = qa * qb * qc  # a, b, c = a_d / d, b_d / d, c_d / d
        a_d, b_d, c_d = pa * qb * qc, pb * qa * qc, pc * qa * qb
        # l + i == 0 for some 0 <= i < n exactly when l is an integer in [1 - n, 0]
        if not any(l % d == 0 and (1 - n) * d <= l <= 0
                   for l in (c_d, d + a_d + b_d - c_d - n * d, c_d - a_d - b_d,
                             d + a_d - b_d, d + a_d - c_d, b_d, c_d - a_d, c_d - b_d)):
            out.append((Fraction(pa, qa), Fraction(pb, qb), Fraction(pc, qc), n))
    return out


def _grid(family: str, tol: float, check, points, width: int = 2) -> List[Case]:
    """One case family[i] per point, i zero-padded to `width` digits: check(*point)."""
    return [Case(f"{family}[{i:0{width}d}]", tol, lambda p=p: check(*p)) for i, p in enumerate(points)]


def _suite_hyp(n_max: int, fast: bool) -> List[Case]:
    cases = _grid("saalschutz", 0.0, hg.check_saalschutz, _rational_grid(20250101, 200), 3)
    cases += _grid("poch-ratio", 0.0, hg.check_poch_ratio, _rational_grid(20250202, 200), 3)
    gauss_grid = [
        (Fraction(1), Fraction(1), Fraction(3)),
        (Fraction(1, 2), Fraction(1, 2), Fraction(2)),
        (Fraction(1, 3), Fraction(1, 4), Fraction(5, 3)),
        (Fraction(3, 4), Fraction(1, 5), Fraction(2)),
        (Fraction(1, 2), Fraction(1, 3), Fraction(7, 4)),
        (Fraction(5, 4), Fraction(1, 2), Fraction(11, 4)),
        (Fraction(2, 3), Fraction(2, 3), Fraction(7, 3)),
        (Fraction(1), Fraction(1, 2), Fraction(5, 2)),
        (Fraction(3, 2), Fraction(1, 4), Fraction(11, 4)),
        (Fraction(1, 5), Fraction(1, 5), Fraction(6, 5)),
        (Fraction(7, 4), Fraction(1, 2), Fraction(13, 4)),
        (Fraction(1, 2), Fraction(1, 2), Fraction(3, 2)),
        (Fraction(2), Fraction(1, 3), Fraction(10, 3)),
        (Fraction(1, 6), Fraction(1, 3), Fraction(3, 2)),
        (Fraction(4, 3), Fraction(3, 4), Fraction(3)),
        (Fraction(1, 8), Fraction(1, 8), Fraction(9, 8)),
        (Fraction(5, 6), Fraction(5, 6), Fraction(8, 3)),
        (Fraction(1), Fraction(2), Fraction(4)),
        (Fraction(3, 2), Fraction(3, 2), Fraction(4)),
        (Fraction(1, 4), Fraction(3, 4), Fraction(2)),
    ]
    cases += _grid("gauss", 1e-30, hg.check_gauss, gauss_grid)

    kummer_grid = [
        (Fraction(1), Fraction(1, 2)),
        (Fraction(2), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1, 4)),
        (Fraction(3, 2), Fraction(1, 3)),
        (Fraction(3), Fraction(3, 4)),
        (Fraction(5, 2), Fraction(-1, 2)),
        (Fraction(1, 3), Fraction(1, 6)),
        (Fraction(4), Fraction(1, 5)),
        (Fraction(7, 4), Fraction(-1, 4)),
        (Fraction(5, 4), Fraction(2, 3)),
        (Fraction(2, 3), Fraction(-1, 3)),
        (Fraction(3, 2), Fraction(3, 5)),
        (Fraction(9, 4), Fraction(1, 2)),
        (Fraction(1, 5), Fraction(1, 10)),
        (Fraction(3), Fraction(-1)),
        (Fraction(7, 2), Fraction(2, 5)),
        (Fraction(5), Fraction(1, 2)),
        (Fraction(8, 3), Fraction(5, 6)),
        (Fraction(11, 4), Fraction(-3, 4)),
        (Fraction(6, 5), Fraction(3, 10)),
    ]
    cases += _grid("kummer", 1e-30, hg.check_kummer_type, kummer_grid)

    thm3_grid = [
        (Fraction(1), Fraction(1, 2), Fraction(1, 2)),
        (Fraction(2), Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1), Fraction(1, 3), Fraction(1, 4)),
        (Fraction(1, 2), Fraction(1, 5), Fraction(1, 5)),
        (Fraction(3, 2), Fraction(1, 2), Fraction(1, 3)),
        (Fraction(3), Fraction(1), Fraction(1, 2)),
        (Fraction(5, 2), Fraction(3, 4), Fraction(1, 2)),
        (Fraction(2), Fraction(2, 3), Fraction(1, 3)),
        (Fraction(1, 3), Fraction(1, 8), Fraction(1, 8)),
        (Fraction(4), Fraction(5, 4), Fraction(3, 4)),
        (Fraction(1), Fraction(-1, 2), Fraction(1, 2)),
        (Fraction(3, 4), Fraction(1, 4), Fraction(1, 4)),
        (Fraction(2), Fraction(1, 4), Fraction(3, 4)),
        (Fraction(5), Fraction(2), Fraction(1, 2)),
        (Fraction(7, 2), Fraction(1), Fraction(1)),
        (Fraction(1, 4), Fraction(1, 10), Fraction(1, 10)),
        (Fraction(6), Fraction(5, 2), Fraction(1, 2)),
        (Fraction(3), Fraction(1, 2), Fraction(3, 2)),
        (Fraction(9, 4), Fraction(1, 2), Fraction(7, 8)),
        (Fraction(5, 3), Fraction(1, 3), Fraction(2, 3)),
    ]
    cases += _grid("dougall-limit", 1e-30, hg.check_dougall_limit, thm3_grid)

    thm7_s1 = [
        (Fraction(1), (Fraction(1, 3), Fraction(1, 3)), (Fraction(1, 4), Fraction(1, 4))),
        (Fraction(1), (Fraction(1, 4), Fraction(1, 5)), (Fraction(1, 4), Fraction(1, 5))),
        (Fraction(2), (Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 2), Fraction(1, 4))),
        (Fraction(3, 2), (Fraction(1, 3), Fraction(1, 4)), (Fraction(1, 5), Fraction(1, 6))),
        (Fraction(1, 2), (Fraction(1, 8), Fraction(1, 8)), (Fraction(1, 8), Fraction(1, 8))),
    ]
    cases += _grid("andrews-limit-s1", 1e-30, partial(hg.check_andrews_limit, 1), thm7_s1, 1)
    thm7_s2 = [
        (Fraction(1), (Fraction(1, 5),) * 3, (Fraction(1, 5),) * 3),
        (Fraction(1), (Fraction(1, 6), Fraction(1, 5), Fraction(1, 4)),
         (Fraction(1, 6), Fraction(1, 5), Fraction(1, 4))),
        (Fraction(2), (Fraction(1, 4),) * 3, (Fraction(1, 4),) * 3),
        (Fraction(3, 2), (Fraction(1, 5), Fraction(1, 6), Fraction(1, 7)),
         (Fraction(1, 5), Fraction(1, 6), Fraction(1, 7))),
        (Fraction(1, 2), (Fraction(1, 10),) * 3, (Fraction(1, 10),) * 3),
    ]
    cases += _grid("andrews-limit-s2", 1e-30, partial(hg.check_andrews_limit, 2), thm7_s2, 1)
    # s = 3 runs with --slow only: --fast's case ids are the set that
    # perfbench/data/seed_state.json records
    thm7_s3 = [(Fraction(1), Fraction(1, 5)), (Fraction(2), Fraction(1, 5)),
               (Fraction(3, 2), Fraction(1, 5)), (Fraction(1, 2), Fraction(1, 10))]
    cases += _grid("andrews-limit-s3", 1e-30, partial(hg.check_andrews_limit, 3),
                   [] if fast else [(a, (b,) * 4, (b,) * 4) for a, b in thm7_s3], 1)
    return cases + [Case(f"odd-zeta-series[x={x}]", 1e-32, lambda x=x: hg.check_odd_zeta_series(x))
                    for x in (Fraction(1, 4), Fraction(1, 3), Fraction(2, 5))]


def _suite_zagier(n_max: int, fast: bool) -> List[Case]:
    direct = []  # the H and H* indices and the double sums
    z3 = zeta(3)
    cases = [Case("h-closed[0,0]=zeta3", 0.0, lambda: (zg.h_closed(0, 0), z3)),
             Case("hstar-closed[0,0]=zeta3", 0.0, lambda: (zg.hstar_closed(0, 0), z3))]
    for total in range((4 if fast else 5) + 1):
        for a in range(total + 1):
            b = total - a
            for tag, closed, star in (("h", zg.h_closed, False), ("hstar", zg.hstar_closed, True)):
                direct.append(h := zg.HIndex(a, b, star))
                cases.append(Case(f"{tag}-closed-vs-direct[{a},{b}]", 1e-15,
                                  lambda a=a, b=b, f=closed, h=h: (f(a, b), zg.h_direct(h, n_max))))
            direct.append(zg._pilehrood_index(a, b))
            cases.append(Case(f"hstar-closed-vs-pilehrood[{a},{b}]", 1e-6,
                              lambda a=a, b=b: (zg.hstar_closed(a, b), zg.hstar_pilehrood(a, b, n_max))))
            cases.append(Case(f"hstar-closed-vs-closeddouble[{a},{b}]", 0.0,
                              lambda a=a, b=b: (zg.hstar_closed(a, b), zg.hstar_closed_via_double(a, b))))
    for k in range(1, 7):
        cases += [Case(f"sumident-{tag}[K={k}]", 0.0, lambda k=k, i=i: zg.sum_identities(k)[i])
                  for i, tag in enumerate(("H", "Hstar"))]
        cases.append(Case(f"zetabar-from-hstar[K={k}]", 0.0,
                          lambda k=k: (zg.zeta_bar_odd_from_hstar(k), zeta_bar(2 * k + 1))))
    cases.append(Case("zeta-from-hstar[0,1]", 0.0, lambda: (zg.zeta_from_hstar(0, 1), z3 / 8)))
    for (r, s) in ((1, 1), (0, 2), (1, 2)):
        direct.append(idx := es.DoubleIndex(2 * r + 1, 2 * s, False, True))
        cases.append(Case(f"zeta-from-hstar-vs-direct[{r},{s}]", 1e-6,
                          lambda r=r, s=s, i=idx: (zg.zeta_from_hstar(r, s), es.double_direct(i, n_max))))
    reflection_points = [
        (Fraction(1, 4), Fraction(1, 3)),
        (Fraction(1, 3), Fraction(1, 4)),
        (Fraction(1, 2), Fraction(1, 5)),
        (Fraction(1, 5), Fraction(2, 5)),
        (Fraction(3, 8), Fraction(3, 8)),
    ]
    for (x, y) in reflection_points:
        cases.append(Case(f"reflection[x={x},y={y}]", 1e-30, lambda x=x, y=y: (
            zg.eval_F(x, y), -sinc_pi(y) * sinc_pi(x) * zg.eval_Fstar(y, x))))
    # F(x, x) = -sinc(pi x) sum_r zeta(2r+1) x^2r
    cases.append(Case("diagonal-route[x=1/4]", 1e-32, lambda x=Fraction(1, 4): (
        zg.eval_F(x, x), -sinc_pi(x) * hg._odd_zeta_series(x))))
    return _batched(cases, direct, n_max)


# suite name -> case builder, called as builder(n_max, fast); "all" runs every
# suite in this order, with case ids prefixed by the suite name
_SUITE_BUILDERS: Dict[str, Callable[[int, bool], List[Case]]] = {
    "stuffle": _suite_stuffle,
    "shuffle": _suite_shuffle,
    "sumformulas": _suite_sumformulas,
    "closedforms": _suite_closedforms,
    "genfun": _suite_genfun,
    "hyp": _suite_hyp,
    "zagier": _suite_zagier,
}

SUITES = (*_SUITE_BUILDERS, "all")


def _read(side) -> tuple:
    """(num, den), num / den a side's exact value: a ring element's finite
    part (a TPart's T-coefficient), or the side itself (an ExtReal, Fraction
    or int)."""
    if isinstance(side, ZetaPoly):
        return side._exact_part(0)
    if isinstance(side, TPart):
        return side.poly._exact_part(1)
    return _ratio(side) if isinstance(side, ExtReal) else (side.numerator, side.denominator)


def _printed(side):
    """The value a side prints: a ring element's finite part (a TPart's
    T-coefficient) rounded by `finite` (`tcoef`), or the side itself."""
    if isinstance(side, ZetaPoly):
        return side.finite
    return side.poly.tcoef if isinstance(side, TPart) else side


def _gap(lhs, rhs) -> tuple:
    """(|lhs - rhs|, lhs, rhs), the gap exact: a SeriesResult reads as its
    value, two equal ExtReals or rationals need no subtraction, and other
    sides subtract as integer ratios, into one Fraction."""
    lhs, rhs = (side.value if isinstance(side, SeriesResult) else side for side in (lhs, rhs))
    if type(lhs) is type(rhs) and isinstance(lhs, (ExtReal, Fraction, int)) and lhs == rhs:
        return Fraction(0), lhs, rhs
    (a, b), (c, d) = _read(lhs), _read(rhs)
    return Fraction(abs(a * d - c * b), b * d), lhs, rhs


def run_suite(name: str, fast: bool = True, jobs: Optional[int] = None) -> VerifyReport:
    """Run a named suite serially and return its report (cases sorted by id).

    A case's residual is the largest |lhs - rhs| over its components,
    exactly; lhs and rhs print the component where it occurs (of equal
    residuals, the one with the largest |rhs|).  ``jobs`` is accepted for
    compatibility and has no effect.
    """
    n_max = FAST_N_MAX if fast else SLOW_N_MAX
    if name == "all":
        cases = [Case(f"{sub}:{cid}", tol, sides)
                 for sub, build in _SUITE_BUILDERS.items()
                 for cid, tol, sides in build(n_max, fast)]
    else:
        cases = _SUITE_BUILDERS[name](n_max, fast)
    start = time.monotonic()
    # tolerances are decimal literals; compare and print them exactly
    tols = {tol: parse_decimal(repr(tol)) for tol in {tol for _, tol, _ in cases}}
    tol_text = {tol: to_decimal(exact) for tol, exact in tols.items()}
    results: List[CaseResult] = []
    for cid, tol, sides in cases:
        lhs, rhs = sides()
        pairs = zip(lhs, rhs, strict=True) if isinstance(lhs, tuple) else [(lhs, rhs)]
        gaps = [_gap(l, r) for l, r in pairs]
        gap = max(g for g, _, _ in gaps)
        # of equal gaps, the component with the largest printed |rhs|; only
        # the printed component is rounded
        tied = [(l, r) for g, l, r in gaps if g == gap]
        lhs, rhs = tied[0] if len(tied) == 1 else max(
            ((_printed(l), _printed(r)) for l, r in tied), key=lambda side: abs(side[1]))
        lhs = to_decimal(_printed(lhs))
        results.append(CaseResult(
            id=cid,
            lhs=lhs,
            rhs=lhs if gap == 0 else to_decimal(_printed(rhs)),  # two equal values print alike
            residual=to_decimal(gap),
            tolerance=tol_text[tol],
            passed=gap <= tols[tol],
        ))
    results.sort(key=lambda c: c.id)
    elapsed = int((time.monotonic() - start) * 1000)
    return VerifyReport(suite=name, cases=results, wall_time_ms=elapsed)
