from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eulerlab import euler_sums
from eulerlab.euler_sums import _HEADS
from eulerlab.hpreal import DomainError, ExtReal
from eulerlab.zeta_core import ZetaPoly, zeta, zeta_bar
from eulerlab.genfun import HomogPoly, build, direct_indices, substitute, verify_relations
from conftest import clear_direct_caches

N = 100_000


def test_build_geometric_slices():
    p = build("T1", 3, N)
    assert all(abs(float(c.finite - zeta(3))) == 0.0 for c in p.coeffs)
    q = build("T2", 4, N)
    assert all(abs(float(c.finite - zeta_bar(4))) == 0.0 for c in q.coeffs)


def test_f2_palindromic_g1_not():
    f2 = build("F2", 5, N)
    for r in range(1, 5):
        assert abs(float(f2.coeff(r).finite - f2.coeff(5 - r).finite)) < 1e-28
    g1 = build("G1", 5, N)
    asym = max(abs(float(g1.coeff(r).finite - g1.coeff(5 - r).finite)) for r in (1, 2))
    assert asym > 1e-3  # genuinely not symmetric


def test_g1_divergent_slot_regularization():
    g1 = build("G1", 3, N)
    slot = g1.coeff(2)  # s = 1
    assert abs(float(slot.tcoef - zeta_bar(2))) == 0.0
    f1 = build("F1", 3, N)
    assert abs(float(f1.coeff(2).tcoef - zeta_bar(2))) == 0.0


def test_build_takes_its_direct_sums_in_one_head_pass(monkeypatch):
    # the uncached heads of each pass; F and T take no direct sums
    passes = []
    heads = euler_sums._heads

    def counted(keys, star, n_max):
        todo = {(*key, star, n_max) for key in keys} - _HEADS.keys()
        passes.extend([len(todo)] if todo else [])
        return heads(keys, star, n_max)

    monkeypatch.setattr(euler_sums, "_heads", counted)
    for name in ("F1", "G1", "G2", "G3", "T2"):
        clear_direct_caches()
        passes.clear()
        build(name, 9, N)
        assert passes == ([8] if name[0] == "G" else []), (name, passes)
    assert len(direct_indices(9)) == 3 * 8
    clear_direct_caches()


def test_unknown_name_rejected():
    with pytest.raises(DomainError):
        build("F9", 3, N)
    with pytest.raises(DomainError):
        build("F1", 2, N)


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------

def _brute_substitute(p: HomogPoly, mat):
    """Dictionary-based polynomial expansion, no binomial shortcuts."""
    (a, b), (c, d) = mat
    k = p.weight
    out = [Fraction(0)] * (k - 1)
    coeffs = [c_.finite.to_fraction() for c_ in p.coeffs]
    for r in range(1, k):
        # expand (a x + b y)^(r-1) (c x + d y)^(k-r-1) by repeated multiplication
        poly = {(0, 0): Fraction(1)}
        for _ in range(r - 1):
            nxt = {}
            for (i, j), v in poly.items():
                if a:
                    nxt[(i + 1, j)] = nxt.get((i + 1, j), Fraction(0)) + v * a
                if b:
                    nxt[(i, j + 1)] = nxt.get((i, j + 1), Fraction(0)) + v * b
            poly = nxt
        for _ in range(k - r - 1):
            nxt = {}
            for (i, j), v in poly.items():
                if c:
                    nxt[(i + 1, j)] = nxt.get((i + 1, j), Fraction(0)) + v * c
                if d:
                    nxt[(i, j + 1)] = nxt.get((i, j + 1), Fraction(0)) + v * d
            poly = nxt
        for (i, j), v in poly.items():
            out[i] += coeffs[r - 1] * v
    return out


def _random_poly(k, seed):
    import random

    rng = random.Random(seed)
    coeffs = tuple(
        ZetaPoly.of(ExtReal(Fraction(rng.randint(-20, 20), rng.choice((1, 2, 4)))))
        for _ in range(k - 1)
    )
    return HomogPoly(weight=k, coeffs=coeffs)


_MATRICES = [
    ((1, 0), (0, 1)), ((-1, 0), (0, -1)), ((0, 1), (1, 0)),
    ((1, 0), (1, 1)), ((1, -1), (0, -1)), ((0, -1), (1, -1)), ((1, -1), (1, 0)),
]


@given(st.integers(3, 8), st.integers(0, 10 ** 6), st.sampled_from(_MATRICES))
@settings(max_examples=120, deadline=None)
def test_substitute_matches_brute_expansion(k, seed, mat):
    p = _random_poly(k, seed)
    got = substitute(p, mat)
    want = _brute_substitute(p, mat)
    for u in range(k - 1):
        assert got.coeffs[u].finite.to_fraction() == want[u]


def test_substitute_identity_and_involution():
    p = _random_poly(6, 42)
    same = substitute(p, ((1, 0), (0, 1)))
    assert all(float((a - b).finite) == 0.0 for a, b in zip(p.coeffs, same.coeffs))
    twice = substitute(substitute(p, ((-1, 0), (0, -1))), ((-1, 0), (0, -1)))
    assert all(float((a - b).finite) == 0.0 for a, b in zip(p.coeffs, twice.coeffs))


def test_substitute_shear_top_coefficient():
    # the shear (x, x+y) sends every slot's monomial onto x^(k-2) once
    for k in (3, 5, 8):
        p = build("T1", k, N)
        q = substitute(p, ((1, 0), (1, 1)))
        assert abs(float(q.coeff(k - 1).finite - zeta(k) * (k - 1))) < 1e-27


def test_substitute_composition():
    p = _random_poly(7, 11)
    m1 = ((1, 0), (1, 1))
    m2 = ((0, 1), (1, 0))
    # p(M1 . M2 v) computed either way
    composed = tuple(
        tuple(m1[i][0] * m2[0][j] + m1[i][1] * m2[1][j] for j in range(2)) for i in range(2)
    )
    a = substitute(substitute(p, m1), m2)
    b = substitute(p, composed)
    for u, v in zip(a.coeffs, b.coeffs):
        assert float((u - v).finite) == 0.0


def test_substitute_rejects_large_entries():
    p = _random_poly(4, 3)
    with pytest.raises(DomainError):
        substitute(p, ((2, 0), (0, 1)))


def test_poly_ring_ops_check_weight_and_family():
    p, q = _random_poly(5, 1), _random_poly(5, 2)
    for u, a, b in zip((p - q).coeffs, p.coeffs, (-q).coeffs):
        assert u.finite.to_fraction() == (a + b).finite.to_fraction()
    with pytest.raises(DomainError):
        p + _random_poly(6, 1)
    with pytest.raises(DomainError):
        p - _random_poly(4, 1)
    with pytest.raises(DomainError):
        verify_relations("duality", 5, N)


def test_substitute_linearity():
    p, q = _random_poly(5, 1), _random_poly(5, 2)
    mat = ((1, -1), (0, 1))
    summed = HomogPoly(5, tuple(a + b for a, b in zip(p.coeffs, q.coeffs)))
    lhs = substitute(summed, mat)
    rhs_p, rhs_q = substitute(p, mat), substitute(q, mat)
    for u, v, w in zip(lhs.coeffs, rhs_p.coeffs, rhs_q.coeffs):
        assert float((u - (v + w)).finite) == 0.0


# ---------------------------------------------------------------------------
# relation families
# ---------------------------------------------------------------------------

def test_stuffle_relations_all_weights():
    for k in range(3, 10):
        res = verify_relations("stuffle", k, N)
        assert res.finite <= 1e-6 and res.tpart <= 1e-24, (k, res)


def test_shuffle_relations_all_weights():
    for k in range(3, 10):
        res = verify_relations("shuffle", k, N)
        assert res.finite <= 1e-6 and res.tpart <= 1e-24, (k, res)


def test_reduction_relations_odd_weights():
    for k in (3, 5, 7, 9):
        res = verify_relations("reduction", k, N)
        assert res.finite <= 1e-6 and res.tpart <= 1e-24, (k, res)
    with pytest.raises(DomainError):
        verify_relations("reduction", 4, N)


def test_antisymmetrized_g1_doubles_odd_slots():
    # for odd weight, G1(x,y) - G1(-x,-y) = 2 G1(x,y) coefficientwise
    g1 = build("G1", 5, N)
    anti = g1 - substitute(g1, ((-1, 0), (0, -1)))
    for a, b in zip(anti.coeffs, g1.coeffs):
        assert abs(float(a.finite - 2 * b.finite)) < 1e-28
        assert abs(float(a.tcoef - 2 * b.tcoef)) < 1e-28
