import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from fractions import Fraction

import pytest

from eulerlab import genfun
from eulerlab.euler_sums import _HEADS, _PREFIXES, _nested_direct
from eulerlab.hpreal import ExtReal, parse_decimal
from eulerlab.zeta_core import ZetaPoly

# frozen reference digits, cross-validated in test_hpreal against the
# exact-rational oracles in oracles.py
PI_50 = "3.14159265358979323846264338327950288419716939937511"
LN2_50 = "0.69314718055994530941723212145817656807550013436026"
ZETA2_50 = "1.6449340668482264364724151666460251892189499012068"
ZETA3_50 = "1.2020569031595942853997381615114499907649862923405"
GAMMA_50 = "0.57721566490153286060651209008240243104215933593992"


@pytest.fixture(scope="session")
def frozen():
    return {
        "pi": parse_decimal(PI_50),
        "ln2": parse_decimal(LN2_50),
        "zeta2": parse_decimal(ZETA2_50),
        "zeta3": parse_decimal(ZETA3_50),
        "gamma": parse_decimal(GAMMA_50),
    }


def approx_abs(value, reference, tol: float) -> bool:
    """|value - reference| <= tol with exact Fraction arithmetic where possible."""
    if isinstance(value, ExtReal):
        value = value.to_fraction()
    if isinstance(reference, ExtReal):
        reference = reference.to_fraction()
    return abs(Fraction(value) - Fraction(reference)) <= Fraction(tol)


def gap(sides, t_degree: int = 0) -> Fraction:
    """|lhs - rhs| of a check's two sides, exactly: an ExtReal as the rational
    it holds, a ring element at its part of T-degree t_degree (the finite part
    or the T-coefficient) before that part is rounded."""
    def exact(v) -> Fraction:
        if isinstance(v, ZetaPoly):
            return Fraction(*v._exact_part(t_degree))
        return v.to_fraction() if isinstance(v, ExtReal) else Fraction(v)
    lhs, rhs = map(exact, sides)
    return abs(lhs - rhs)


def clear_direct_caches() -> None:
    """Empty the direct-sum caches (values, heads and inner prefix sums) and
    genfun's, which hold direct sums, so the next direct request runs its
    head pass and is not a cache hit on any level."""
    _nested_direct.cache_clear()
    _HEADS.clear()
    _PREFIXES.clear()
    genfun._coefficients.cache_clear()
    genfun._sides.cache_clear()
