"""Homogeneous bivariate generating functions over the regularized zeta ring
and the three families of relations among them.

For a fixed weight k, each generating function is the homogeneous polynomial
sum_{r+s=k} c_{r,s} x^(r-1) y^(s-1), stored as the coefficient array indexed
by r = 1..k-1.  Coefficients are RegValues and always come from the direct
summation evaluators, never from the closed forms under test, so the relation
checks here are independent of the closed-form code paths.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Tuple

from .hpreal import DomainError, ZERO, binom
from .zeta_core import RegValue, zeta, zeta_bar, zeta_reg
from .euler_sums import DEFAULT_N_MAX, DoubleIndex, double_direct

__all__ = [
    "HomogPoly",
    "build",
    "substitute",
    "poly_sub",
    "RelationResidual",
    "verify_stuffle_relations",
    "verify_shuffle_relations",
    "verify_reduction_relations",
]

Matrix = Tuple[Tuple[int, int], Tuple[int, int]]


@dataclass(frozen=True)
class HomogPoly:
    """Homogeneous polynomial of degree k-2; coeffs[r-1] multiplies x^(r-1) y^(k-r-1)."""

    weight: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.weight - 1:
            raise DomainError("coefficient array must have length k-1")

    def coeff(self, r: int) -> RegValue:
        """Coefficient of x^(r-1) y^(k-r-1), r in 1..k-1."""
        return self.coeffs[r - 1]


def _direct(r: int, s: int, r_bar: bool, s_bar: bool, n_max: int) -> RegValue:
    v = double_direct(DoubleIndex(r, s, r_bar, s_bar), n_max).value
    return RegValue(v, ZERO)


def build(name: str, k: int, n_max: int = DEFAULT_N_MAX) -> HomogPoly:
    """Generating function of weight k with coefficients from direct evaluators.

    The divergent slot s = 1 of G1 uses the stuffle regularization
    zeta(r-bar, 1) = zeta(r-bar) T - zeta(1, r-bar) - zeta(r+1-bar), which is
    the one genuinely T-carrying coefficient in the whole family.
    """
    if not 3 <= k <= 15:
        raise DomainError("generating functions supported for 3 <= k <= 15")
    coeffs = []
    for r in range(1, k):
        s = k - r
        if name == "F1":
            c = zeta_reg(r, True) * zeta_reg(s, False)
        elif name == "F2":
            c = zeta_reg(r, True) * zeta_reg(s, True)
        elif name == "G1":
            if s == 1:
                finite = -double_direct(DoubleIndex(1, r, False, True), n_max).value - zeta_bar(r + 1)
                c = RegValue(finite, zeta_bar(r))
            else:
                c = _direct(r, s, True, False, n_max)
        elif name == "G2":
            c = _direct(r, s, False, True, n_max)
        elif name == "G3":
            c = _direct(r, s, True, True, n_max)
        elif name == "T1":
            c = RegValue(zeta(k), ZERO)
        elif name == "T2":
            c = RegValue(zeta_bar(k), ZERO)
        else:
            raise DomainError(f"unknown generating function {name!r}")
        coeffs.append(c)
    return HomogPoly(weight=k, coeffs=tuple(coeffs))


# ---------------------------------------------------------------------------
# Linear substitution (x, y) -> (a x + b y, c x + d y)
# ---------------------------------------------------------------------------

def _ipow(base: int, e: int) -> int:
    return 1 if e == 0 else base ** e


def substitute(p: HomogPoly, mat: Matrix) -> HomogPoly:
    """Coefficientwise binomial expansion of p(a x + b y, c x + d y).

    Matrix entries are restricted to {-1, 0, 1}: the relations only ever use
    sign flips, swaps and the shear (x, x+y) and its relatives.  The
    combinatorics are exact integers; RegValues are combined linearly.
    """
    (a, b), (c, d) = mat
    for entry in (a, b, c, d):
        if entry not in (-1, 0, 1):
            raise DomainError("substitution matrix entries must be in {-1, 0, 1}")
    k = p.weight
    acc: list = [None] * (k - 1)
    for r in range(1, k):
        s = k - r
        coeff = p.coeffs[r - 1]
        for i in range(r):  # (a x + b y)^(r-1) term i
            w1 = binom(r - 1, i) * _ipow(a, i) * _ipow(b, r - 1 - i)
            if w1 == 0:
                continue
            for j in range(s):  # (c x + d y)^(s-1) term j
                w = w1 * binom(s - 1, j) * _ipow(c, j) * _ipow(d, s - 1 - j)
                if w == 0:
                    continue
                u = i + j  # exponent of x
                contrib = coeff * w
                acc[u] = contrib if acc[u] is None else acc[u] + contrib
    zero = RegValue(ZERO, ZERO)
    return HomogPoly(weight=k, coeffs=tuple(zero if c is None else c for c in acc))


def poly_sub(p: HomogPoly, q: HomogPoly) -> HomogPoly:
    if p.weight != q.weight:
        raise DomainError("weights differ")
    return HomogPoly(p.weight, tuple(a - b for a, b in zip(p.coeffs, q.coeffs)))


def _poly_add(p: HomogPoly, q: HomogPoly) -> HomogPoly:
    if p.weight != q.weight:
        raise DomainError("weights differ")
    return HomogPoly(p.weight, tuple(a + b for a, b in zip(p.coeffs, q.coeffs)))


class RelationResidual(NamedTuple):
    """Max |LHS - RHS| over coefficients, finite parts and T-parts separately."""

    finite: float
    tpart: float


def _max_residual(*polys: HomogPoly) -> RelationResidual:
    fin = 0.0
    tp = 0.0
    for p in polys:
        for c in p.coeffs:
            fin = max(fin, abs(float(c.finite)))
            tp = max(tp, abs(float(c.tcoef)))
    return RelationResidual(fin, tp)


_ID: Matrix = ((1, 0), (0, 1))
_NEG: Matrix = ((-1, 0), (0, -1))
_SWAP: Matrix = ((0, 1), (1, 0))


def verify_stuffle_relations(k: int, n_max: int = DEFAULT_N_MAX) -> RelationResidual:
    """Stuffle identities: F1 = G1 + G2(y,x) + T2 and F2 = G3 + G3(y,x) + T1."""
    f1, f2 = build("F1", k, n_max), build("F2", k, n_max)
    g1, g2, g3 = build("G1", k, n_max), build("G2", k, n_max), build("G3", k, n_max)
    t1, t2 = build("T1", k, n_max), build("T2", k, n_max)
    r17 = poly_sub(f1, _poly_add(_poly_add(g1, substitute(g2, _SWAP)), t2))
    r18 = poly_sub(f2, _poly_add(_poly_add(g3, substitute(g3, _SWAP)), t1))
    return _max_residual(r17, r18)


def verify_shuffle_relations(k: int, n_max: int = DEFAULT_N_MAX) -> RelationResidual:
    """Shuffle identities: F1 = G1(x,x+y) + G3(y,x+y), F2 = G2(x,x+y) + G2(y,x+y)."""
    f1, f2 = build("F1", k, n_max), build("F2", k, n_max)
    g1, g2, g3 = build("G1", k, n_max), build("G2", k, n_max), build("G3", k, n_max)
    shear_x: Matrix = ((1, 0), (1, 1))   # (x, x+y)
    shear_y: Matrix = ((0, 1), (1, 1))   # (y, x+y)
    r29 = poly_sub(f1, _poly_add(substitute(g1, shear_x), substitute(g3, shear_y)))
    r30 = poly_sub(f2, _poly_add(substitute(g2, shear_x), substitute(g2, shear_y)))
    return _max_residual(r29, r30)


def verify_reduction_relations(k: int, n_max: int = DEFAULT_N_MAX) -> RelationResidual:
    """Odd-weight antisymmetrized relations expressing G1, G2, G3 via F1, F2.

    Each LHS is G_i(x,y) - G_i(-x,-y); the RHS mixes sign-flipped and sheared
    F1/F2 plus T1/T2 correction polynomials, exactly as the three displayed
    relations state.
    """
    if k % 2 == 0:
        raise DomainError("the antisymmetrized relations need odd weight")
    f1, f2 = build("F1", k, n_max), build("F2", k, n_max)
    g1, g2, g3 = build("G1", k, n_max), build("G2", k, n_max), build("G3", k, n_max)
    t1, t2 = build("T1", k, n_max), build("T2", k, n_max)

    def S(p: HomogPoly, mat: Matrix) -> HomogPoly:
        return substitute(p, mat)

    m_x_negy: Matrix = ((1, 0), (0, -1))       # (x, -y)
    m_xmy_y: Matrix = ((1, -1), (0, 1))        # (x-y, y)
    m_xmy_negy: Matrix = ((1, -1), (0, -1))    # (x-y, -y)
    m_x_xmy: Matrix = ((1, 0), (1, -1))        # (x, x-y)
    m_negx_xmy: Matrix = ((-1, 0), (1, -1))    # (-x, x-y)
    m_y_x: Matrix = _SWAP                      # (y, x)
    m_negy_x: Matrix = ((0, -1), (1, 0))       # (-y, x)
    m_y_xmy: Matrix = ((0, 1), (1, -1))        # (y, x-y)
    m_negy_xmy: Matrix = ((0, -1), (1, -1))    # (-y, x-y)
    m_xmy_x: Matrix = ((1, -1), (1, 0))        # (x-y, x)
    m_xmy_negx: Matrix = ((1, -1), (-1, 0))    # (x-y, -x)

    def chain(*signed):
        total = None
        for sign, poly in signed:
            term = poly if sign > 0 else HomogPoly(poly.weight, tuple(-c for c in poly.coeffs))
            total = term if total is None else _poly_add(total, term)
        return total

    lhs31 = poly_sub(g1, S(g1, _NEG))
    rhs31 = chain(
        (+1, f1), (-1, S(f1, m_x_negy)), (-1, S(f2, m_xmy_y)), (+1, S(f2, m_xmy_negy)),
        (+1, S(f1, m_x_xmy)), (-1, S(f1, m_negx_xmy)),
        (-1, t2), (-1, S(t2, m_x_xmy)), (-1, S(t1, m_xmy_negy)),
    )
    lhs32 = poly_sub(g2, S(g2, _NEG))
    rhs32 = chain(
        (+1, S(f1, m_y_x)), (-1, S(f1, m_negy_x)), (-1, S(f1, m_y_xmy)), (+1, S(f1, m_negy_xmy)),
        (+1, S(f2, m_x_xmy)), (-1, S(f2, m_negx_xmy)),
        (-1, t2), (-1, S(t1, m_x_xmy)), (-1, S(t2, m_xmy_negy)),
    )
    lhs33 = poly_sub(g3, S(g3, _NEG))
    rhs33 = chain(
        (+1, f2), (-1, S(f2, m_x_negy)), (-1, S(f1, m_xmy_y)), (+1, S(f1, m_xmy_negy)),
        (+1, S(f1, m_xmy_x)), (-1, S(f1, m_xmy_negx)),
        (-1, t1), (-1, S(t2, m_x_xmy)), (-1, S(t2, m_xmy_negy)),
    )
    return _max_residual(
        poly_sub(lhs31, rhs31), poly_sub(lhs32, rhs32), poly_sub(lhs33, rhs33)
    )
