from fractions import Fraction

import pytest

from eulerlab.hpreal import DomainError, ExtReal
from eulerlab.zeta_core import (
    RegValue,
    zeta,
    zeta_bar,
    zeta_bar_direct,
    zeta_em,
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


def test_zeta_em_internal_consistency():
    # same value from two very different truncation splits
    for k in (2, 3, 7, 20):
        a = zeta_em(k, n_terms=40, m_terms=20)
        b = zeta_em(k, n_terms=80, m_terms=20)
        assert abs(float(a - b)) <= 1e-30 * float(a)


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


def test_regvalue_ring_rejects_tt():
    t = RegValue(ExtReal(0.0), ExtReal(1.0))
    with pytest.raises(DomainError):
        t * t
    # T times finite is fine
    assert float((t * RegValue(ExtReal(2.0), ExtReal(0.0))).tcoef) == 2.0


def test_zeta_bar_direct_matches_reflection():
    for k in range(2, 21):
        res = zeta_bar_direct(k, 64)
        assert abs(float(res.value - zeta_bar(k))) <= 1e-15


def test_zeta_bar_direct_weight_one(frozen):
    res = zeta_bar_direct(1, 64)
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
        value = float(zeta_bar_direct(k, 64).value)
        j = 64 - 32  # window start: averaging order is 32
        lo, hi = sorted((partials[j - 1], partials[j]))
        assert lo <= value <= hi


def test_zeta_index_validation():
    with pytest.raises(DomainError):
        zeta_reg(61)
    with pytest.raises(DomainError):
        zeta_reg(-1, True)
    with pytest.raises(DomainError):
        zeta_bar_direct(2, 4)


def test_regvalue_ring_axioms():
    import random

    rng = random.Random(5)
    def rv(allow_t=True):
        t = rng.choice((0.0, rng.uniform(-2, 2))) if allow_t else 0.0
        return RegValue(ExtReal(rng.uniform(-3, 3)), ExtReal(t))
    for _ in range(200):
        a, b, c = rv(), rv(allow_t=False), rv(allow_t=False)
        # commutativity and associativity of +
        lhs = (a + b) + c
        rhs = a + (b + c)
        assert float((lhs - rhs).finite) == 0.0 and float((lhs - rhs).tcoef) == 0.0
        # distributivity of * over + for finite multipliers
        lhs = (a + b) * c
        rhs = a * c + b * c
        assert abs(float((lhs - rhs).finite)) < 1e-30
        assert abs(float((lhs - rhs).tcoef)) < 1e-30
        # negation and scaling
        assert float((a + (-a)).finite) == 0.0
        assert abs(float((a * 3 - (a + a + a)).finite)) < 1e-30
