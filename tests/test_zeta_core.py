import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eulerlab import euler_sums, zagier
from eulerlab.hpreal import DomainError, ExtReal, pi_ln2_fixed
from eulerlab.zeta_core import (
    _LN2,
    _PI,
    ZetaPoly,
    _generator,
    zeta,
    zeta_bar,
    zeta_bar_direct,
    zeta_reg,
)
from conftest import approx_abs
import oracles


def test_zeta2_against_pi_squared_oracle(frozen):
    oracle = oracles.pi_squared_over_6()
    assert abs(frozen["zeta2"] - oracle) < Fraction(1, 10 ** 45)
    assert approx_abs(zeta(2), oracle, Fraction(1, 10 ** 30))


def test_zeta3_against_apery_oracle(frozen):
    oracle = oracles.apery_zeta3()
    assert abs(frozen["zeta3"] - oracle) < Fraction(1, 10 ** 45)
    assert approx_abs(zeta(3), oracle, Fraction(1, 10 ** 30))


def test_zeta_at_60_dominated_tail():
    excess = zeta(60).to_fraction() - 1 - Fraction(2) ** -60
    assert 0 < excess < Fraction(3) ** -60 * Fraction(11, 10)


def test_ring_pi_and_ln2_are_the_routine_values():
    assert (_generator(_PI), _generator(_LN2)) == pi_ln2_fixed(320)


def test_zeta_values_are_the_nearest_double_doubles():
    # each zeta(k) and zeta_bar(k) is the double-double nearest its value, read
    # from the 80-digit oracles, which share no code with the ring
    assert (zeta_bar(1).hi, zeta_bar(1).lo) == oracles.nearest_double_double(-oracles.atanh_ln2(80))
    for k in range(2, 61):
        exact = oracles.zeta_80(k)
        assert (zeta(k).hi, zeta(k).lo) == oracles.nearest_double_double(exact), k
        bar = -(1 - Fraction(1, 2 ** (k - 1))) * exact
        assert (zeta_bar(k).hi, zeta_bar(k).lo) == oracles.nearest_double_double(bar), k


def test_zeta_monotone_decreasing():
    one = ExtReal(1.0)
    values = [zeta(k) for k in range(2, 61)]
    for a, b in zip(values, values[1:]):
        assert a > b > one


def test_zeta_against_exact_oracle():
    # every weight against Euler-Maclaurin in exact rationals at another N
    for k in range(2, 61):
        exact = oracles.zeta(k)
        assert abs(zeta(k).to_fraction() - exact) <= Fraction(1, 2 ** 106) * exact, k


def test_zeta_domain():
    for bad in (0, 1):
        with pytest.raises(DomainError):
            zeta(bad)
    with pytest.raises(DomainError):
        zeta_bar(0)


def test_zeta_bar_reflection(frozen):
    # bar value at 2 is -pi^2/12
    assert approx_abs(zeta_bar(2), -oracles.pi_squared_over_6() / 2, Fraction(1, 10 ** 29))
    assert approx_abs(zeta_bar(1), -frozen["ln2"], Fraction(1, 10 ** 30))
    # weight 3: -(3/4) zeta(3) exactly by construction
    assert abs(float(zeta_bar(3) + Fraction(3, 4) * zeta(3))) < 1e-31


def test_zeta_reg_table(frozen):
    r = zeta_reg(0, False)
    assert r.finite.to_fraction() == Fraction(-1, 2) and float(r.tcoef) == 0.0
    r = zeta_reg(0, True)
    assert r.finite.to_fraction() == Fraction(-1, 2)
    r = zeta_reg(1, False)
    assert float(r.finite) == 0.0 and r.tcoef.to_fraction() == 1
    r = zeta_reg(1, True)
    assert approx_abs(r.finite, -frozen["ln2"], Fraction(1, 10 ** 30))
    r = zeta_reg(2, True)
    assert r.finite == zeta_bar(2) and float(r.tcoef) == 0.0


def test_zeta_reg_tcoef_zero_for_convergent():
    for k in range(2, 40):
        for bar in (False, True):
            assert float(zeta_reg(k, bar).tcoef) == 0.0


def test_zetapoly_ring_rejects_tt():
    t = zeta_reg(1)
    with pytest.raises(DomainError):
        t * t
    with pytest.raises(DomainError):
        (t + zeta_reg(3)) * (t * zeta_reg(2))
    # T times finite is fine
    assert (t * ZetaPoly.of(2)).tcoef == ExtReal(2.0)
    assert (t * zeta_reg(3, True)).tcoef == zeta_bar(3)


def test_zeta_bar_direct_matches_reflection():
    for k in range(1, 61):
        res = zeta_bar_direct(k)
        err = abs(res.value.to_fraction() - zeta_bar(k).to_fraction())
        assert err <= Fraction(1, 10 ** 29), k
        assert err <= res.tail_estimate.to_fraction(), k


def test_zeta_bar_direct_weight_one(frozen):
    res = zeta_bar_direct(1)
    assert approx_abs(res.value, -frozen["ln2"], Fraction(1, 10 ** 15))


def test_zeta_bar_direct_bracketing():
    # the accelerated value lies inside the alternating partial-sum bracket
    # spanned at the start of the averaging window
    for k in (1, 2, 3):
        partials = []
        total = ExtReal(0.0)
        for m in range(1, 65):
            term = ExtReal(1.0) / ExtReal(float(m ** k))
            total = total + (-term if m % 2 else term)
            partials.append(float(total))
        value = float(zeta_bar_direct(k).value)
        j = 64 - 32  # window start: averaging order is 32
        lo, hi = sorted((partials[j - 1], partials[j]))
        assert lo <= value <= hi


def test_zeta_index_validation():
    with pytest.raises(DomainError):
        zeta_reg(61)
    with pytest.raises(DomainError):
        zeta_reg(-1, True)
    # checked before any term: m^k at k = 10^9 would be a ~750 MB int
    for bad in (0, 61, 10 ** 9):
        with pytest.raises(DomainError):
            zeta_bar_direct(bad)


def test_zetapoly_ring_axioms():
    import random

    rng = random.Random(5)
    pool = [zeta_reg(k, bar) for k in range(8) for bar in (False, True) if (k, bar) != (1, False)]

    def rv(allow_t=True):
        total = ZetaPoly()
        for _ in range(rng.randint(0, 4)):
            term = ZetaPoly.of(Fraction(rng.randint(-9, 9), rng.randint(1, 12)))
            for _ in range(rng.randint(0, 2)):
                term = term * rng.choice(pool)
            total = total + term
        return total + zeta_reg(1) * rng.randint(-2, 2) if allow_t else total

    zero = ZetaPoly()
    for _ in range(200):
        a, b, c = rv(), rv(allow_t=False), rv(allow_t=False)
        assert (a + b) + c == a + (b + c) and a + b == b + a
        assert (a * b) * c == a * (b * c) and a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert a + (-a) == zero and a - a == zero and (a - b) + b == a
        assert a * 3 == a + a + a and a * Fraction(1, 3) * 3 == a
        assert a * 1 == a and a * 0 == zero and a + 0 == a
        # equal elements evaluate to equal bits; evaluation is linear up to roundings
        assert (a + b).finite == (b + a).finite and (a * c).tcoef == (c * a).tcoef
        scale = 1 + abs(float(a.finite)) + abs(float(b.finite))
        assert abs(float((a + b).finite - a.finite - b.finite)) <= 1e-30 * scale
    # foreign objects are unequal rather than an error
    assert zero != None and zeta_reg(3) != "zeta(3)" and zeta_reg(0) == Fraction(-1, 2)


# monomials to draw ring elements from: 1, pi^2, ln 2, T, zeta(3), zeta(5), T zeta(3), ...
_MONOMIALS = sorted({m for k in range(6) for bar in (False, True) if (k, bar) != (1, False)
                     for m in zeta_reg(k, bar).terms}
                    | set((zeta_reg(1) * zeta_reg(3)).terms) | set((zeta_reg(2) * zeta_reg(5)).terms))
_RATIONALS = st.builds(Fraction, st.integers(-500, 500), st.integers(1, 60))
_ELEMENTS = st.one_of(
    st.dictionaries(st.sampled_from(_MONOMIALS), _RATIONALS, max_size=5).map(ZetaPoly),
    st.integers(-10 ** 20, 10 ** 20),
    _RATIONALS,
    st.floats(-1e6, 1e6).map(ExtReal),
)
_WEIGHTS = st.one_of(st.integers(-30, 30), _RATIONALS)


@given(st.lists(st.tuples(_WEIGHTS, _ELEMENTS), max_size=8), st.data())
@settings(max_examples=200, deadline=None)
def test_combination_equals_an_explicit_fraction_sum(pairs, data):
    expected: dict = {}
    for w, e in pairs:
        terms = e.terms if isinstance(e, ZetaPoly) else {
            (): e.to_fraction() if isinstance(e, ExtReal) else Fraction(e)}
        for m, c in terms.items():
            expected[m] = expected.get(m, 0) + Fraction(w) * c
    got = ZetaPoly.combination(pairs)
    assert dict(got.terms) == {m: c for m, c in expected.items() if c}
    assert all(c for c in got.terms.values())
    assert ZetaPoly.sum(e for _, e in pairs) == ZetaPoly.combination((1, e) for _, e in pairs)
    # a last pair that cancels one monomial drops it from the terms
    live = sorted(got.terms)
    if live:
        m = data.draw(st.sampled_from(live))
        cancelled = ZetaPoly.combination(pairs + [(-got.terms[m], ZetaPoly({m: Fraction(1)}))])
        assert m not in cancelled.terms
        assert dict(cancelled.terms) == {n: c for n, c in got.terms.items() if n != m}


def test_combination_of_nothing_is_zero():
    assert ZetaPoly.combination([]) == ZetaPoly() and not ZetaPoly.combination([]).terms
    assert ZetaPoly.sum([]) == ZetaPoly()
    assert not ZetaPoly.combination([(0, zeta_reg(3)), (5, 0), (Fraction(1, 3), ZetaPoly())]).terms


def _ring_digest() -> str:
    """sha256 over the odd-weight closed forms zeta(r, s) with bars, r+s <= 39
    (1520 of them), and H(a, b), H*(a, b) for K = a+b+1 <= 20: each element's
    sorted terms and the bits of its finite part and T-coefficient."""
    h = hashlib.sha256()

    def feed(key, e):
        terms = sorted((m, c.numerator, c.denominator) for m, c in e.terms.items())
        bits = [x.hex() for v in (e.finite, e.tcoef) for x in (v.hi, v.lo)]
        h.update(repr((key, terms, bits)).encode())

    for k in range(3, 40, 2):
        for r in range(1, k):
            for bars in euler_sums.CLOSED_FORMS:
                feed((r, k - r) + bars, euler_sums._closed(r, k - r, *bars))
    for total in range(20):
        for a in range(total + 1):
            for star in (False, True):
                feed((a, total - a, star), zagier._h(a, total - a, star))
    return h.hexdigest()


def test_closed_forms_keep_their_bits():
    # recorded when finite and tcoef began to round by hpreal._round, to the
    # nearest double-double, and not at 2^-320 first
    assert _ring_digest() == "b0294cd65238cc074c5ff70c58eadb1e82b4817d21edb81f1f33c23dcd09d62f"
