"""Homogeneous bivariate generating functions over the regularized zeta ring
and the three families of relations among them.

For a fixed weight k, each generating function is the homogeneous polynomial
sum_{r+s=k} c_{r,s} x^(r-1) y^(s-1), stored as the coefficient array indexed
by r = 1..k-1.  Coefficients are ZetaPoly ring elements: products of single
zeta values, and double sums that always come from the direct summation
evaluators (as constants), never from the closed forms under test, so the
relation checks here are independent of the closed-form code paths.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Tuple

from .hpreal import DomainError, binom
from .zeta_core import ZetaPoly, zeta_reg
from .euler_sums import DEFAULT_N_MAX, DoubleIndex, double_directs

__all__ = ["HomogPoly", "build", "direct_indices", "substitute", "RelationResidual",
           "RELATIONS", "verify_relations"]

Matrix = Tuple[Tuple[int, int], Tuple[int, int]]


@dataclass(frozen=True)
class HomogPoly:
    """Homogeneous polynomial of degree k-2; coeffs[r-1] multiplies x^(r-1) y^(k-r-1)."""

    weight: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.weight - 1:
            raise DomainError("coefficient array must have length k-1")

    def coeff(self, r: int) -> ZetaPoly:
        """Coefficient of x^(r-1) y^(k-r-1), r in 1..k-1."""
        return self.coeffs[r - 1]

    def _pairs(self, other: "HomogPoly"):
        if self.weight != other.weight:
            raise DomainError("weights differ")
        return zip(self.coeffs, other.coeffs)

    def __add__(self, other: "HomogPoly") -> "HomogPoly":
        return HomogPoly(self.weight, tuple(a + b for a, b in self._pairs(other)))

    def __sub__(self, other: "HomogPoly") -> "HomogPoly":
        return HomogPoly(self.weight, tuple(a - b for a, b in self._pairs(other)))

    def __neg__(self) -> "HomogPoly":
        return HomogPoly(self.weight, tuple(-c for c in self.coeffs))


# name -> (r, s) -> the double sum that coefficient c_{r,s} takes directly
_DIRECT = {
    "G1": lambda r, s: DoubleIndex(r, s, True, False) if s != 1 else DoubleIndex(1, r, False, True),
    "G2": lambda r, s: DoubleIndex(r, s, False, True),
    "G3": lambda r, s: DoubleIndex(r, s, True, True),
}


def direct_indices(k: int, names=tuple(_DIRECT)) -> list:
    """The double sums that the coefficients of weight k of the named functions take directly."""
    return [_DIRECT[name](r, k - r) for name in names if name in _DIRECT for r in range(1, k)]


# name -> coefficient c_{r,s} of x^(r-1) y^(s-1), given the value d of its
# direct double sum (G1, G2, G3).  G1 is zeta(r-bar, s); its divergent slot
# s = 1 uses the stuffle regularization zeta(r-bar, 1) = zeta(r-bar) T
# - zeta(1, r-bar) - zeta(r+1-bar), the one genuinely T-carrying coefficient
# in the whole family.
_COEFFS = {
    "F1": lambda r, s, d: zeta_reg(r, True) * zeta_reg(s, False),
    "F2": lambda r, s, d: zeta_reg(r, True) * zeta_reg(s, True),
    "G1": lambda r, s, d: (ZetaPoly.of(d) if s != 1
                           else zeta_reg(r, True) * zeta_reg(1) - d - zeta_reg(r + 1, True)),
    "G2": lambda r, s, d: ZetaPoly.of(d),
    "G3": lambda r, s, d: ZetaPoly.of(d),
    "T1": lambda r, s, d: zeta_reg(r + s),
    "T2": lambda r, s, d: zeta_reg(r + s, True),
}


def build(name: str, k: int, n_max: int = DEFAULT_N_MAX) -> HomogPoly:
    """Generating function of weight k with coefficients from direct evaluators,
    its direct sums taken as one batch (double_directs)."""
    if not 3 <= k <= 15:
        raise DomainError("generating functions supported for 3 <= k <= 15")
    if name not in _COEFFS:
        raise DomainError(f"unknown generating function {name!r}")
    coeff = _COEFFS[name]
    direct = [res.value for res in double_directs(direct_indices(k, [name]), n_max)] or [None] * (k - 1)
    return HomogPoly(weight=k, coeffs=tuple(coeff(r, k - r, d) for r, d in enumerate(direct, 1)))


# ---------------------------------------------------------------------------
# Linear substitution (x, y) -> (a x + b y, c x + d y)
# ---------------------------------------------------------------------------

def substitute(p: HomogPoly, mat: Matrix) -> HomogPoly:
    """Coefficientwise binomial expansion of p(a x + b y, c x + d y).

    Matrix entries are restricted to {-1, 0, 1}: the relations only ever use
    sign flips, swaps and the shear (x, x+y) and its relatives.  The
    combinatorics are exact integers; ring elements are combined linearly.
    """
    (a, b), (c, d) = mat
    for entry in (a, b, c, d):
        if entry not in (-1, 0, 1):
            raise DomainError("substitution matrix entries must be in {-1, 0, 1}")
    k = p.weight
    terms: list = [[] for _ in range(k - 1)]  # terms[u]: the parts of x^u
    for r in range(1, k):
        s = k - r
        coeff = p.coeffs[r - 1]
        for i in range(r):  # (a x + b y)^(r-1) term i
            w1 = binom(r - 1, i) * a ** i * b ** (r - 1 - i)
            for j in range(s):  # (c x + d y)^(s-1) term j
                w = w1 * binom(s - 1, j) * c ** j * d ** (s - 1 - j)
                if w:
                    terms[i + j].append(coeff * w)
    return HomogPoly(weight=k, coeffs=tuple(ZetaPoly.sum(parts) for parts in terms))


class RelationResidual(NamedTuple):
    """Max |LHS - RHS| over coefficients, finite parts and T-parts separately."""

    finite: float
    tpart: float


_ID: Matrix = ((1, 0), (0, 1))

# family -> relations (lhs_terms, rhs_terms); a term (sign, name, M) stands for
# sign * name(a x + b y, c x + d y) with M = ((a, b), (c, d))
RELATIONS = {
    # F1 = G1 + G2(y,x) + T2 and F2 = G3 + G3(y,x) + T1
    "stuffle": (
        (((1, "F1", _ID),),
         ((1, "G1", _ID), (1, "G2", ((0, 1), (1, 0))), (1, "T2", _ID))),
        (((1, "F2", _ID),),
         ((1, "G3", _ID), (1, "G3", ((0, 1), (1, 0))), (1, "T1", _ID))),
    ),
    # F1 = G1(x,x+y) + G3(y,x+y) and F2 = G2(x,x+y) + G2(y,x+y)
    "shuffle": (
        (((1, "F1", _ID),),
         ((1, "G1", ((1, 0), (1, 1))), (1, "G3", ((0, 1), (1, 1))))),
        (((1, "F2", _ID),),
         ((1, "G2", ((1, 0), (1, 1))), (1, "G2", ((0, 1), (1, 1))))),
    ),
    # odd weight: G_i(x,y) - G_i(-x,-y) through sign-flipped and sheared F1/F2
    # plus T1/T2 corrections, exactly as the three displayed relations state
    "reduction": (
        (((1, "G1", _ID), (-1, "G1", ((-1, 0), (0, -1)))),
         ((1, "F1", _ID), (-1, "F1", ((1, 0), (0, -1))),
          (-1, "F2", ((1, -1), (0, 1))), (1, "F2", ((1, -1), (0, -1))),
          (1, "F1", ((1, 0), (1, -1))), (-1, "F1", ((-1, 0), (1, -1))),
          (-1, "T2", _ID), (-1, "T2", ((1, 0), (1, -1))), (-1, "T1", ((1, -1), (0, -1))))),
        (((1, "G2", _ID), (-1, "G2", ((-1, 0), (0, -1)))),
         ((1, "F1", ((0, 1), (1, 0))), (-1, "F1", ((0, -1), (1, 0))),
          (-1, "F1", ((0, 1), (1, -1))), (1, "F1", ((0, -1), (1, -1))),
          (1, "F2", ((1, 0), (1, -1))), (-1, "F2", ((-1, 0), (1, -1))),
          (-1, "T2", _ID), (-1, "T1", ((1, 0), (1, -1))), (-1, "T2", ((1, -1), (0, -1))))),
        (((1, "G3", _ID), (-1, "G3", ((-1, 0), (0, -1)))),
         ((1, "F2", _ID), (-1, "F2", ((1, 0), (0, -1))),
          (-1, "F1", ((1, -1), (0, 1))), (1, "F1", ((1, -1), (0, -1))),
          (1, "F1", ((1, -1), (1, 0))), (-1, "F1", ((1, -1), (-1, 0))),
          (-1, "T1", _ID), (-1, "T2", ((1, 0), (1, -1))), (-1, "T2", ((1, -1), (0, -1))))),
    ),
}


def verify_relations(family: str, k: int, n_max: int = DEFAULT_N_MAX) -> RelationResidual:
    """Max residual of LHS - RHS over the relations of one RELATIONS family.

    Each side is summed left to right; every named polynomial is built once.
    """
    if family not in RELATIONS:
        raise DomainError(f"unknown relation family {family!r}")
    if family == "reduction" and k % 2 == 0:
        raise DomainError("the antisymmetrized relations need odd weight")
    built = {}

    def side(terms) -> HomogPoly:
        total = None
        for sign, name, mat in terms:
            if name not in built:
                built[name] = build(name, k, n_max)
            term = built[name] if mat == _ID else substitute(built[name], mat)
            term = term if sign > 0 else -term
            total = term if total is None else total + term
        return total

    finite = tpart = 0.0
    for lhs, rhs in RELATIONS[family]:
        for c in (side(lhs) - side(rhs)).coeffs:
            finite = max(finite, abs(float(c.finite)))
            tpart = max(tpart, abs(float(c.tcoef)))
    return RelationResidual(finite, tpart)
