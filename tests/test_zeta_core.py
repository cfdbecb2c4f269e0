from fractions import Fraction

import pytest

from eulerlab.hpreal import DomainError, ExtReal
from eulerlab.zeta_core import (
    ZetaPoly,
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
