import hashlib
import itertools
from collections import Counter
from fractions import Fraction

from eulerlab import euler_sums, hpreal, hypergeom, verify
from eulerlab.euler_sums import _HEADS
from eulerlab.zeta_core import ZetaPoly, zeta_reg
from conftest import clear_direct_caches


def test_each_suite_takes_one_head_pass_per_star(monkeypatch):
    # a pass counts when it runs a head not cached yet; the suite of a pass is
    # the suite of the case running at the time; every pass runs at --fast's n_max
    running, passes = [None], []
    heads = euler_sums._heads

    def counted(keys, star, n_max):
        assert n_max == verify.FAST_N_MAX
        if {(*key, star, n_max) for key in keys} - _HEADS.keys():
            passes.append((running[0], star))
        return heads(keys, star, n_max)

    def tagged(name, build):
        return lambda n_max, fast: [
            verify.Case(c.id, c.tolerance, lambda c=c: (running.__setitem__(0, name), c.sides())[1])
            for c in build(n_max, fast)]

    monkeypatch.setattr(euler_sums, "_heads", counted)
    for name, build in list(verify._SUITE_BUILDERS.items()):
        monkeypatch.setitem(verify._SUITE_BUILDERS, name, tagged(name, build))
    for name in ("all", *verify._SUITE_BUILDERS):
        clear_direct_caches()
        passes.clear()
        assert verify.run_suite(name, fast=True).all_passed
        # one pass per (suite, star) that has sums to run; hyp takes no direct sums
        assert max(Counter(passes).values(), default=0) == 1 or name == "hyp", (name, passes)
        if name == "all":  # sumformulas and genfun find all their sums cached
            assert passes == [("stuffle", False), ("shuffle", False), ("closedforms", False),
                              ("zagier", False), ("zagier", True)]
    clear_direct_caches()


def _degenerate(a, b, c, n) -> bool:
    """Some pole or zero parameter of the grid's checks reaches 0 within n steps."""
    return any(l + i == 0 for l in (c, 1 + a + b - c - n, c - a - b, 1 + a - b, 1 + a - c,
                                    b, c - a, c - b)
               for i in range(n))


def test_rational_grids_are_pinned_and_avoid_degeneracies():
    grids = [verify._rational_grid(seed, 200) for seed in (20250101, 20250202)]
    assert not any(_degenerate(*point) for grid in grids for point in grid)
    digest = hashlib.sha256(repr(grids).encode()).hexdigest()
    assert digest == "e47eff9c0e0d516d2bfbff9f01312a343b4ac26dbb7941cfa5a63a147e20078f"


def test_hyp_suite_catches_a_relative_ln_gamma_fault(monkeypatch):
    # ln Gamma off by 2^-83 (~1e-25) relative at every argument moves a gamma
    # ratio by ~1e-25 times its log: gauss, kummer and dougall-limit read up
    # to ~4e-25, which their 1e-30 tolerance catches and a 1e-18 one did not
    exact = hpreal._ln_gamma_exact

    def faulty(x):
        v = exact(x)
        return v + (v >> 83)

    monkeypatch.setattr(hpreal, "_ln_gamma_exact", faulty)
    families = {"gauss", "kummer", "dougall-limit"}
    cases = [c for c in verify.run_suite("hyp", fast=True).cases if c.id.split("[")[0] in families]
    assert len(cases) == 60
    assert not any(c.passed for c in cases), [c.id for c in cases if c.passed]


def _hyp_failures() -> Counter:
    return Counter(c.id.split("[")[0] for c in verify.run_suite("hyp", fast=True).cases if not c.passed)


def test_hyp_suite_catches_a_perturbed_rising_step(monkeypatch):
    # the first step of each level's rising factor in _diagonals (the one
    # series of ratios without a lower parameter) times 1 + 1e-20
    ratios = hypergeom._ratios

    def faulty(upper, lower, argument):
        steps = ratios(upper, lower, argument)
        if lower:
            return steps
        a, b = next(steps)
        return itertools.chain([(a * (10 ** 20 + 1), b * 10 ** 20)], steps)

    monkeypatch.setattr(hypergeom, "_ratios", faulty)
    assert _hyp_failures() == {"andrews-limit-s1": 5, "andrews-limit-s2": 5}


def test_hyp_suite_catches_a_perturbed_rising_factor(monkeypatch):
    # the first factor x of every rising product (x)_n, n >= 1, plus 1e-20:
    # both Pochhammer families fail, in at least the 88 and 93 cases that the
    # ROADMAP's mutation census counted for one perturbed Fraction factor
    rising = hypergeom._rising

    def faulty(x, n):
        if not n:
            return rising(x, n)
        num, den = rising(x + 1, n - 1)
        value = (x + Fraction(1, 10 ** 20)) * Fraction(num, den)
        return value.numerator, value.denominator

    monkeypatch.setattr(hypergeom, "_rising", faulty)
    failures = _hyp_failures()
    assert set(failures) == {"saalschutz", "poch-ratio"}
    assert failures["saalschutz"] >= 88 and failures["poch-ratio"] >= 93, failures


def test_the_runner_subtracts_the_two_sides_exactly(monkeypatch):
    # two rationals 1e-40 apart, relative, round to one double-double: a
    # residual taken between the rounded sides would read 0 and pass at 0
    third = Fraction(1, 3)
    near = (third, third * (1 + Fraction(1, 10 ** 40)))
    assert hpreal.ExtReal.from_fraction(near[0]) == hpreal.ExtReal.from_fraction(near[1])
    # vector sides: the residual is the largest component gap, printed with its sides
    eps = Fraction(1, 10 ** 10)
    vector = ((Fraction(1), Fraction(2), Fraction(3)), (Fraction(1), 2 + eps, 3 - 2 * eps))
    # ring sides, read at their finite parts or (TPart) at their T-coefficients,
    # subtract before either is rounded: the finite parts of these two differ by
    # 1e-40 relative, and so do their T-parts
    t = zeta_reg(1, False)  # T, the regularized zeta(1)
    ring = tuple(ZetaPoly.sum((x, t * x)) for x in near)
    monkeypatch.setitem(verify._SUITE_BUILDERS, "made-up", lambda n_max, fast: [
        verify.Case("near[0]", 0.0, lambda: near), verify.Case("vector[0]", 1e-9, lambda: vector),
        verify.Case("ring-finite[0]", 0.0, lambda: ring),
        verify.Case("ring-tpart[0]", 0.0, lambda: tuple(map(verify.TPart, ring)))])
    near_case, ring_finite, ring_tpart, vector_case = verify.run_suite("made-up").cases
    assert (ring[0].finite, ring[0].tcoef) == (ring[1].finite, ring[1].tcoef)
    for case in (near_case, ring_finite, ring_tpart):
        assert not case.passed, case.id
        assert case.residual == hpreal.to_decimal(Fraction(1, 3 * 10 ** 40)), case.id
    assert vector_case.passed
    assert (vector_case.lhs, vector_case.rhs, vector_case.residual) == tuple(
        map(hpreal.to_decimal, (3, 3 - 2 * eps, 2 * eps)))


def test_cases_print_their_two_sides():
    # only the T-coefficient checks state "= 0"; every other case prints its
    # two sides, and no grid point has a vanishing Pochhammer symbol on both
    zero = hpreal.to_decimal(0)
    zero_rhs = [c.id for c in verify.run_suite("all", fast=True).cases if c.rhs == zero]
    assert len(zero_rhs) == 110
    assert all(cid.startswith("closedforms:closed-") and "-tcoef[" in cid for cid in zero_rhs), zero_rhs
