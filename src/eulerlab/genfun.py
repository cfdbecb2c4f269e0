"""Homogeneous bivariate generating functions over the regularized zeta ring,
the three families of relations among them, and the stuffle and shuffle
checks of one product, read off those relations coefficient by coefficient.

For a fixed weight k, each generating function is the homogeneous polynomial
sum_{r+s=k} c_{r,s} x^(r-1) y^(s-1), stored as the tuple of its coefficients
indexed by r = 1..k-1.  Coefficients are ZetaPoly ring elements: products of
single zeta values, and double sums from the direct summation evaluators (as
constants), so the relation checks are independent of the closed forms under
test, which only stuffle_closed_check reads.  Each check returns the two
sides of its relations, not their difference.  A substitution (x, y) ->
(a x + b y, c x + d y) is an integer matrix acting on the coefficients.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Tuple

from .hpreal import DomainError, binom
from .zeta_core import ZetaPoly, zeta_reg
from .euler_sums import _WEIGHT_CAP, DEFAULT_N_MAX, DoubleIndex, closed_form, double_directs

__all__ = ["build", "direct_indices", "substitute", "RELATIONS",
           "verify_relations", "stuffle_check", "stuffle_closed_check", "shuffle_check"]

Matrix = Tuple[Tuple[int, int], Tuple[int, int]]

# name -> c_{r,s} as a product of single zeta values
_PRODUCTS = {
    "F1": lambda r, s: zeta_reg(r, True) * zeta_reg(s),
    "F2": lambda r, s: zeta_reg(r, True) * zeta_reg(s, True),
    "T1": lambda r, s: zeta_reg(r + s),
    "T2": lambda r, s: zeta_reg(r + s, True),
}
# name -> bars (r_bar, s_bar) of the double sum zeta(r, s) that is c_{r,s}
_DOUBLES = {"G1": (True, False), "G2": (False, True), "G3": (True, True)}


def direct_indices(k: int, names=tuple(_DOUBLES)) -> list:
    """The double sums that the coefficients of weight k of the named functions
    take directly; G1's divergent slot s = 1 takes zeta(1, r-bar) (see _coefficients)."""
    return [DoubleIndex(1, r, False, True) if name == "G1" and r == k - 1
            else DoubleIndex(r, k - r, *_DOUBLES[name])
            for name in names if name in _DOUBLES for r in range(1, k)]


@lru_cache(maxsize=256)
def _coefficients(name: str, k: int, n_max) -> tuple:
    """(c_{1,k-1}, ..., c_{k-1,1}) of a generating function, its double sums
    taken directly at n_max as one batch, or from their closed forms if n_max
    is None.  G1's divergent slot s = 1 is the stuffle regularization
    zeta(r-bar) T - zeta(1, r-bar) - zeta(r+1-bar), the one T-carrying
    coefficient of the family; its closed form carries it by itself."""
    if name in _PRODUCTS:
        return tuple(_PRODUCTS[name](r, k - r) for r in range(1, k))
    if n_max is None:
        return tuple(closed_form(DoubleIndex(r, k - r, *_DOUBLES[name])) for r in range(1, k))
    direct = [res.value for res in double_directs(direct_indices(k, [name]), n_max)]
    return tuple(zeta_reg(r, True) * zeta_reg(1) - d - zeta_reg(r + 1, True) if name == "G1" and r == k - 1
                 else ZetaPoly.of(d) for r, d in enumerate(direct, 1))


def _check_weight(k: int) -> None:
    if not 3 <= k <= _WEIGHT_CAP:
        raise DomainError(f"generating functions supported for 3 <= k <= {_WEIGHT_CAP}")


def build(name: str, k: int, n_max: int = DEFAULT_N_MAX) -> tuple:
    """Coefficients of generating function `name` at weight k, indexed by
    r = 1..k-1, its direct sums taken as one batch at n_max (cached)."""
    _check_weight(k)
    if name not in _PRODUCTS and name not in _DOUBLES:
        raise DomainError(f"unknown generating function {name!r}")
    return _coefficients(name, k, n_max)


# ---------------------------------------------------------------------------
# Linear substitution (x, y) -> (a x + b y, c x + d y)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1024)
def _matrix(k: int, mat: Matrix) -> tuple:
    """Rows u = 0..k-2 of the integer matrix of p -> p(a x + b y, c x + d y)
    at weight k: entry [u][r-1] is the coefficient of x^u y^(k-2-u) in
    (a x + b y)^(r-1) (c x + d y)^(k-r-1)."""
    (a, b), (c, d) = mat
    rows = [[0] * (k - 1) for _ in range(k - 1)]
    for r in range(1, k):
        s = k - r
        for i in range(r):  # (a x + b y)^(r-1) term i
            w = binom(r - 1, i) * a ** i * b ** (r - 1 - i)
            for j in range(s):  # (c x + d y)^(s-1) term j
                rows[i + j][r - 1] += w * binom(s - 1, j) * c ** j * d ** (s - 1 - j)
    return tuple(map(tuple, rows))


def substitute(coeffs: tuple, mat: Matrix) -> tuple:
    """Coefficients of p(a x + b y, c x + d y), given those of p: _matrix
    applied to them, one exact ring sum per coefficient.

    Matrix entries are restricted to {-1, 0, 1}: the relations only ever use
    sign flips, swaps and the shear (x, x+y) and its relatives.
    """
    if any(entry not in (-1, 0, 1) for row in mat for entry in row):
        raise DomainError("substitution matrix entries must be in {-1, 0, 1}")
    rows = _matrix(len(coeffs) + 1, mat)
    return tuple(ZetaPoly.combination(zip(row, coeffs)) for row in rows)


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


def _side(terms: tuple, k: int, n_max) -> tuple:
    """The coefficients at weight k of one side of a relation: its terms fold
    into one integer matrix per named function, so each coefficient is one
    exact ring sum."""
    folded: dict = {}  # name -> the summed matrices of its terms
    for sign, name, mat in terms:
        rows = folded.setdefault(name, [[0] * (k - 1) for _ in range(k - 1)])
        for acc, row in zip(rows, _matrix(k, mat)):
            for i, w in enumerate(row):
                acc[i] += sign * w
    return tuple(ZetaPoly.combination(pair for name, rows in folded.items()
                                      for pair in zip(rows[u], _coefficients(name, k, n_max)))
                 for u in range(k - 1))


@lru_cache(maxsize=256)
def _sides(family: str, k: int, n_max) -> tuple:
    """Per relation of a RELATIONS family, the coefficients of its LHS and of
    its RHS at weight k, with the double sums as in _coefficients (closed
    forms if n_max is None)."""
    return tuple((_side(lhs, k, n_max), _side(rhs, k, n_max)) for lhs, rhs in RELATIONS[family])


def verify_relations(family: str, k: int, n_max: int = DEFAULT_N_MAX) -> Tuple[tuple, tuple]:
    """The two sides of the relations of one RELATIONS family at weight k:
    (LHS, RHS), each the tuple of its coefficients over all the relations."""
    if family not in RELATIONS:
        raise DomainError(f"unknown relation family {family!r}")
    if family == "reduction" and k % 2 == 0:
        raise DomainError("the antisymmetrized relations need odd weight")
    _check_weight(k)
    sides = _sides(family, k, n_max)
    return tuple(c for lhs, _ in sides for c in lhs), tuple(c for _, rhs in sides for c in rhs)


# ---------------------------------------------------------------------------
# Stuffle and shuffle relations of one product zeta(r; a) zeta(s; b)
# ---------------------------------------------------------------------------

# which -> the relation of the stuffle or shuffle family with that product as
# its left side's coefficients: F1 (zeta(r-bar) zeta(s)) or F2 (zeta(r-bar) zeta(s-bar))
_WHICH = {"mixed": 0, "alternating": 1}


def _product_sides(family: str, r: int, s: int, which: str, n_max) -> Tuple[ZetaPoly, ZetaPoly]:
    """Coefficient r - 1 (of x^(r-1) y^(s-1)) of the LHS and of the RHS of the
    family's relation for `which`, from the sides of the whole weight r + s."""
    if which not in _WHICH:
        raise DomainError("which must be 'mixed' or 'alternating'")
    if which == "mixed" and s < 2 and n_max is not None:
        raise DomainError("the relations with an unbarred factor zeta(s) need s >= 2")
    DoubleIndex(r, s)  # r, s >= 1 and the weight cap
    lhs, rhs = _sides(family, r + s, n_max)[_WHICH[which]]
    return lhs[r - 1], rhs[r - 1]


def stuffle_check(r: int, s: int, which: str = "mixed",
                  n_max: int = DEFAULT_N_MAX) -> Tuple[ZetaPoly, ZetaPoly]:
    """The two sides of a double-stuffle relation with double sums taken directly.

    which = "mixed":        zeta(r-bar) zeta(s) = zeta(r-bar,s) + zeta(s,r-bar)
                            + zeta(r+s-bar)        (requires s >= 2)
    which = "alternating":  zeta(r-bar) zeta(s-bar) = zeta(r-bar,s-bar)
                            + zeta(s-bar,r-bar) + zeta(r+s)   (r, s >= 1)
    """
    return _product_sides("stuffle", r, s, which, n_max)


def stuffle_closed_check(r: int, s: int, which: str = "mixed") -> Tuple[ZetaPoly, ZetaPoly]:
    """The two sides of a stuffle relation with every double sum from its closed form.

    No direct sums are involved, so the sides are equal ring elements; in the
    mixed relation at s = 1 both carry the same T-part.
    """
    return _product_sides("stuffle", r, s, which, None)


def shuffle_check(r: int, s: int, which: str = "mixed",
                  n_max: int = DEFAULT_N_MAX) -> Tuple[ZetaPoly, ZetaPoly]:
    """The two sides of a double-shuffle relation, all double sums taken directly.

    With x = a xor b:
      zeta(r; a) zeta(s; b) = sum_j C(j-1,r-1) zeta(k-j, j; x, a)
                            + sum_j C(j-1,s-1) zeta(k-j, j; x, b)
    which = "mixed" (a, b = bar, no bar; r >= 1, s >= 2, k = r+s):
      zeta(r-bar) zeta(s) = sum_j C(j-1,r-1) zeta(k-j-bar, j-bar)
                          + sum_j C(j-1,s-1) zeta(k-j-bar, j)
    which = "alternating" (both bars; r, s >= 1):
      zeta(r-bar) zeta(s-bar) = sum_j [C(j-1,r-1)+C(j-1,s-1)] zeta(k-j, j-bar)
    """
    return _product_sides("shuffle", r, s, which, n_max)
