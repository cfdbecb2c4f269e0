"""Named verification suites and machine-readable reports.

Every case is a pure function returning (lhs, rhs, tolerance); the runner
computes |lhs - rhs|, compares against the tolerance, and serializes all four
quantities as 30-digit decimal strings so reports are byte-identical across
runs, and across platforms for the cases that take no direct sum (see
README.md).  Cases run serially and are emitted in id order.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

from .hpreal import ExtReal, parse_decimal, sinc_pi, to_decimal
from .zeta_core import zeta, zeta_bar
from . import euler_sums as es
from . import genfun
from . import hypergeom as hg
from . import zagier as zg

__all__ = [
    "CaseResult",
    "VerifyReport",
    "SUITES",
    "run_suite",
    "FAST_N_MAX",
    "SLOW_N_MAX",
]

FAST_N_MAX = 1_000
SLOW_N_MAX = 1_000_000

# a case function returns (lhs, rhs); residual = |lhs - rhs|
CaseFn = Callable[[], Tuple[ExtReal, ExtReal]]


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


Case = Tuple[str, float, CaseFn]


def _residual_case(cid: str, tol: float, fn: Callable[[], object]) -> Case:
    """Case whose check is |value| <= tol (rhs fixed at 0)."""
    return (cid, tol, lambda: (fn(), ExtReal(0.0)))


def _batched(cases: List[Case], requests: list, n_max: int) -> List[Case]:
    """The cases, the first to run prefetching the suite's direct sums (see
    euler_sums._prefetch): one head pass per star value, cached for the rest."""
    once = lru_cache(None)(lambda: es._prefetch(requests, n_max))
    return [(cid, tol, lambda fn=fn: (once(), fn())[1]) for cid, tol, fn in cases]


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
    cases = [_residual_case(f"stuffle-{tag}[r={r},s={s}]", 1e-8,
                            lambda r=r, s=s, which=which: genfun.stuffle_check(r, s, which, n_max).finite)
             for r, s, tag, which in _product_checks(weights)]
    return _batched(cases, [idx for k in weights for idx in genfun.direct_indices(k)], n_max)


def _suite_shuffle(n_max: int, fast: bool) -> List[Case]:
    weights = range(3, 9)
    cases = [_residual_case(f"shuffle-{tag}[r={r},s={s}]", 1e-6,
                            lambda r=r, s=s, which=which: genfun.shuffle_check(r, s, which, n_max))
             for r, s, tag, which in _product_checks(weights)]
    return _batched(cases, [idx for k in weights for idx in genfun.direct_indices(k)], n_max)


def _suite_sumformulas(n_max: int, fast: bool) -> List[Case]:
    checks = [(k, which) for k in range(3, 9) for which in es.SUM_FORMULAS]
    cases = [_residual_case(f"sumformula-{which}[k={k}]", 1e-6,
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

                    def closed_vs_direct(fn=fn, r=r, s=s, idx=idx):
                        return fn(r, s).finite, es.double_direct(idx, n_max).value
                    cases.append((f"closed-{name}-vs-direct[r={r},s={s}]", 1e-6, closed_vs_direct))
                    cases.append(_residual_case(
                        f"closed-{name}-tcoef[r={r},s={s}]", 0.0,
                        lambda fn=fn, r=r, s=s: fn(r, s).tcoef))
            for tag, which in _PRODUCTS:
                def stuffle_closed(r=r, s=s, which=which):
                    res = genfun.stuffle_closed_residual(r, s, which)
                    return abs(res.finite) + abs(res.tcoef)
                cases.append(_residual_case(f"stuffle-closed-{tag}[r={r},s={s}]", 0.0, stuffle_closed))
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
            for part, tol in (("finite", 1e-6), ("tpart", 0.0)):
                cases.append(_residual_case(f"genfun-{family}-{part}[k={k}]", tol,
                                            lambda rel=relations, part=part: getattr(rel(), part)))
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
                             d + a_d - b_d, d + a_d - c_d)):
            out.append((Fraction(pa, qa), Fraction(pb, qb), Fraction(pc, qc), n))
    return out


def _suite_hyp(n_max: int, fast: bool) -> List[Case]:
    cases: List[Case] = []
    for i, (a, b, c, n) in enumerate(_rational_grid(20250101, 200)):
        cases.append(_residual_case(
            f"saalschutz[{i:03d}]", 0.0,
            lambda a=a, b=b, c=c, n=n: ExtReal.from_fraction(abs(hg.check_saalschutz(a, b, c, n)))))
    for i, (a, b, c, n) in enumerate(_rational_grid(20250202, 200)):
        cases.append(_residual_case(
            f"poch-ratio[{i:03d}]", 0.0,
            lambda a=a, b=b, c=c, n=n: ExtReal.from_fraction(abs(hg.check_poch_ratio(a, b, c, n)))))

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
    for i, (a, b, c) in enumerate(gauss_grid):
        cases.append(_residual_case(
            f"gauss[{i:02d}]", 1e-30, lambda a=a, b=b, c=c: hg.check_gauss(a, b, c)))

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
    for i, (a, b) in enumerate(kummer_grid):
        cases.append(_residual_case(
            f"kummer[{i:02d}]", 1e-30, lambda a=a, b=b: hg.check_kummer_type(a, b)))

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
    for i, (a, b, c) in enumerate(thm3_grid):
        cases.append(_residual_case(
            f"dougall-limit[{i:02d}]", 1e-30, lambda a=a, b=b, c=c: hg.check_dougall_limit(a, b, c)))

    thm7_s1 = [
        (Fraction(1), (Fraction(1, 3), Fraction(1, 3)), (Fraction(1, 4), Fraction(1, 4))),
        (Fraction(1), (Fraction(1, 4), Fraction(1, 5)), (Fraction(1, 4), Fraction(1, 5))),
        (Fraction(2), (Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 2), Fraction(1, 4))),
        (Fraction(3, 2), (Fraction(1, 3), Fraction(1, 4)), (Fraction(1, 5), Fraction(1, 6))),
        (Fraction(1, 2), (Fraction(1, 8), Fraction(1, 8)), (Fraction(1, 8), Fraction(1, 8))),
    ]
    for i, (a, bs, cs) in enumerate(thm7_s1):
        cases.append(_residual_case(
            f"andrews-limit-s1[{i}]", 1e-30,
            lambda a=a, bs=bs, cs=cs: hg.check_andrews_limit(1, a, bs, cs)))
    thm7_s2 = [
        (Fraction(1), (Fraction(1, 5),) * 3, (Fraction(1, 5),) * 3),
        (Fraction(1), (Fraction(1, 6), Fraction(1, 5), Fraction(1, 4)),
         (Fraction(1, 6), Fraction(1, 5), Fraction(1, 4))),
        (Fraction(2), (Fraction(1, 4),) * 3, (Fraction(1, 4),) * 3),
        (Fraction(3, 2), (Fraction(1, 5), Fraction(1, 6), Fraction(1, 7)),
         (Fraction(1, 5), Fraction(1, 6), Fraction(1, 7))),
        (Fraction(1, 2), (Fraction(1, 10),) * 3, (Fraction(1, 10),) * 3),
    ]
    for i, (a, bs, cs) in enumerate(thm7_s2):
        cases.append(_residual_case(
            f"andrews-limit-s2[{i}]", 1e-30,
            lambda a=a, bs=bs, cs=cs: hg.check_andrews_limit(2, a, bs, cs)))
    # s = 3 runs with --slow only: --fast's case ids are the set that
    # perfbench/data/seed_state.json records
    thm7_s3 = [(Fraction(1), Fraction(1, 5)), (Fraction(2), Fraction(1, 5)),
               (Fraction(3, 2), Fraction(1, 5)), (Fraction(1, 2), Fraction(1, 10))]
    for i, (a, b) in enumerate([] if fast else thm7_s3):
        cases.append(_residual_case(
            f"andrews-limit-s3[{i}]", 1e-30,
            lambda a=a, b=b: hg.check_andrews_limit(3, a, (b,) * 4, (b,) * 4)))

    for i, x in enumerate((Fraction(1, 4), Fraction(1, 3), Fraction(2, 5))):
        cases.append(_residual_case(
            f"odd-zeta-series[x={x}]", 1e-32, lambda x=x: hg.check_odd_zeta_series(x)))
    return cases


def _suite_zagier(n_max: int, fast: bool) -> List[Case]:
    cases: List[Case] = []
    direct = []  # the H and H* indices and the double sums
    z3 = zeta(3)
    cases.append(("h-closed[0,0]=zeta3", 0.0, lambda: (zg.h_closed(0, 0), z3)))
    cases.append(("hstar-closed[0,0]=zeta3", 0.0, lambda: (zg.hstar_closed(0, 0), z3)))
    for total in range((4 if fast else 5) + 1):
        for a in range(total + 1):
            b = total - a
            for tag, closed, star in (("h", zg.h_closed, False), ("hstar", zg.hstar_closed, True)):
                direct.append(h := zg.HIndex(a, b, star))
                cases.append((f"{tag}-closed-vs-direct[{a},{b}]", 1e-15,
                              lambda a=a, b=b, f=closed, h=h: (f(a, b), zg.h_direct(h, n_max).value)))
            direct.append(zg._pilehrood_index(a, b))
            cases.append((f"hstar-closed-vs-pilehrood[{a},{b}]", 1e-6,
                          lambda a=a, b=b: (zg.hstar_closed(a, b),
                                            zg.hstar_pilehrood(a, b, n_max))))
            cases.append((f"hstar-closed-vs-closeddouble[{a},{b}]", 0.0,
                          lambda a=a, b=b: (zg.hstar_closed(a, b),
                                            zg.hstar_closed_via_double(a, b))))
    for k in range(1, 7):
        cases.append(_residual_case(f"sumident-H[K={k}]", 0.0,
                                    lambda k=k: zg.sum_identities(k)[0]))
        cases.append(_residual_case(f"sumident-Hstar[K={k}]", 0.0,
                                    lambda k=k: zg.sum_identities(k)[1]))
        cases.append((f"zetabar-from-hstar[K={k}]", 0.0,
                      lambda k=k: (zg.zeta_bar_odd_from_hstar(k), zeta_bar(2 * k + 1))))
    cases.append(("zeta-from-hstar[0,1]", 0.0,
                  lambda: (zg.zeta_from_hstar(0, 1), z3 / 8)))
    for (r, s) in ((1, 1), (0, 2), (1, 2)):
        direct.append(idx := es.DoubleIndex(2 * r + 1, 2 * s, False, True))
        cases.append((f"zeta-from-hstar-vs-direct[{r},{s}]", 1e-6,
                      lambda r=r, s=s, i=idx: (zg.zeta_from_hstar(r, s), es.double_direct(i, n_max).value)))
    reflection_points = [
        (Fraction(1, 4), Fraction(1, 3)),
        (Fraction(1, 3), Fraction(1, 4)),
        (Fraction(1, 2), Fraction(1, 5)),
        (Fraction(1, 5), Fraction(2, 5)),
        (Fraction(3, 8), Fraction(3, 8)),
    ]
    for (x, y) in reflection_points:
        def reflection(x=x, y=y):
            lhs = zg.eval_F(x, y)
            rhs = -sinc_pi(y) * sinc_pi(x) * zg.eval_Fstar(y, x)
            return lhs, rhs
        cases.append((f"reflection[x={x},y={y}]", 1e-18, reflection))
    def diagonal_route(x=Fraction(1, 4)):
        # F(x, x) = -sinc(pi x) sum_r zeta(2r+1) x^2r
        return zg.eval_F(x, x), -sinc_pi(x) * hg._odd_zeta_series(x)
    cases.append(("diagonal-route[x=1/4]", 1e-32, diagonal_route))
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


def run_suite(name: str, fast: bool = True, jobs: Optional[int] = None) -> VerifyReport:
    """Run a named suite serially and return its report (cases sorted by id).

    ``jobs`` is accepted for compatibility and has no effect.
    """
    n_max = FAST_N_MAX if fast else SLOW_N_MAX
    if name == "all":
        cases = [(f"{sub}:{cid}", tol, fn)
                 for sub, build in _SUITE_BUILDERS.items()
                 for cid, tol, fn in build(n_max, fast)]
    else:
        cases = _SUITE_BUILDERS[name](n_max, fast)
    start = time.monotonic()
    # tolerances are decimal literals; compare and print them exactly
    tols = {tol: parse_decimal(repr(tol)) for tol in {tol for _, tol, _ in cases}}
    tol_text = {tol: to_decimal(exact) for tol, exact in tols.items()}
    results: List[CaseResult] = []
    for cid, tol, fn in cases:
        lhs, rhs = (ExtReal.from_real(v) for v in fn())
        residual = abs(lhs - rhs)
        results.append(CaseResult(
            id=cid,
            lhs=to_decimal(lhs),
            rhs=to_decimal(rhs),
            residual=to_decimal(residual),
            tolerance=tol_text[tol],
            passed=residual.to_fraction() <= tols[tol],
        ))
    results.sort(key=lambda c: c.id)
    elapsed = int((time.monotonic() - start) * 1000)
    return VerifyReport(suite=name, cases=results, wall_time_ms=elapsed)
