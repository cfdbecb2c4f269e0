from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eulerlab import euler_sums
from eulerlab.euler_sums import _HEADS
from eulerlab.hpreal import DomainError, ExtReal
from eulerlab.zeta_core import ZetaPoly, zeta, zeta_bar
from eulerlab import genfun
from eulerlab.genfun import build, direct_indices, substitute, verify_relations
from eulerlab.euler_sums import DoubleIndex, double_direct
from conftest import clear_direct_caches, gap
import oracles

N = 100_000


def test_build_geometric_slices():
    p = build("T1", 3, N)
    assert all(abs(float(c.finite - zeta(3))) == 0.0 for c in p)
    q = build("T2", 4, N)
    assert all(abs(float(c.finite - zeta_bar(4))) == 0.0 for c in q)


def test_f2_palindromic_g1_not():
    f2 = build("F2", 5, N)
    for r in range(1, 5):
        assert abs(float(f2[r - 1].finite - f2[4 - r].finite)) < 1e-28
    g1 = build("G1", 5, N)
    asym = max(abs(float(g1[r - 1].finite - g1[4 - r].finite)) for r in (1, 2))
    assert asym > 1e-3  # genuinely not symmetric


def test_g1_divergent_slot_regularization():
    g1 = build("G1", 3, N)
    slot = g1[1]  # r = 2, s = 1
    assert abs(float(slot.tcoef - zeta_bar(2))) == 0.0
    f1 = build("F1", 3, N)
    assert abs(float(f1[1].tcoef - zeta_bar(2))) == 0.0


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

def _brute_substitute(p: tuple, mat):
    """Dictionary-based polynomial expansion, no binomial shortcuts."""
    (a, b), (c, d) = mat
    k = len(p) + 1
    out = [Fraction(0)] * (k - 1)
    coeffs = [c_.finite.to_fraction() for c_ in p]
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
    return tuple(
        ZetaPoly.of(ExtReal(Fraction(rng.randint(-20, 20), rng.choice((1, 2, 4)))))
        for _ in range(k - 1)
    )


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
        assert got[u].finite.to_fraction() == want[u]


def test_substitute_identity_and_involution():
    p = _random_poly(6, 42)
    same = substitute(p, ((1, 0), (0, 1)))
    assert same == p
    twice = substitute(substitute(p, ((-1, 0), (0, -1))), ((-1, 0), (0, -1)))
    assert twice == p


def test_substitute_shear_top_coefficient():
    # the shear (x, x+y) sends every slot's monomial onto x^(k-2) once
    for k in (3, 5, 8):
        p = build("T1", k, N)
        q = substitute(p, ((1, 0), (1, 1)))
        assert abs(float(q[k - 2].finite - zeta(k) * (k - 1))) < 1e-27


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
    assert a == b


def test_substitute_rejects_large_entries():
    p = _random_poly(4, 3)
    with pytest.raises(DomainError):
        substitute(p, ((2, 0), (0, 1)))


def test_verify_relations_rejects_unknown_families_and_weights():
    with pytest.raises(DomainError):
        verify_relations("duality", 5, N)
    for k in (2, 41):
        with pytest.raises(DomainError):
            verify_relations("stuffle", k, N)
    with pytest.raises(DomainError):
        build("F1", 41, N)


def test_substitute_linearity():
    p, q = _random_poly(5, 1), _random_poly(5, 2)
    mat = ((1, -1), (0, 1))
    summed = tuple(a + b for a, b in zip(p, q))
    rhs_p, rhs_q = substitute(p, mat), substitute(q, mat)
    assert substitute(summed, mat) == tuple(v + w for v, w in zip(rhs_p, rhs_q))


# ---------------------------------------------------------------------------
# relation families
# ---------------------------------------------------------------------------

def _worst(sides) -> tuple:
    """The largest gaps of a family's two sides over their coefficients: of the
    finite parts, and of the T-parts."""
    pairs = list(zip(*sides))
    return max(map(gap, pairs)), max(gap(pair, 1) for pair in pairs)


def test_stuffle_relations_all_weights():
    for k in range(3, 10):
        finite, tpart = _worst(verify_relations("stuffle", k, N))
        assert finite <= 1e-6 and tpart <= 1e-24, (k, finite, tpart)


def test_shuffle_relations_all_weights():
    for k in range(3, 10):
        finite, tpart = _worst(verify_relations("shuffle", k, N))
        assert finite <= 1e-6 and tpart <= 1e-24, (k, finite, tpart)


def test_reduction_relations_odd_weights():
    for k in (3, 5, 7, 9):
        finite, tpart = _worst(verify_relations("reduction", k, N))
        assert finite <= 1e-6 and tpart <= 1e-24, (k, finite, tpart)
    with pytest.raises(DomainError):
        verify_relations("reduction", 4, N)


def test_antisymmetrized_g1_doubles_odd_slots():
    # for odd weight, G1(x,y) - G1(-x,-y) = 2 G1(x,y) coefficientwise
    g1 = build("G1", 5, N)
    anti = [a - b for a, b in zip(g1, substitute(g1, ((-1, 0), (0, -1))))]
    for a, b in zip(anti, g1):
        assert abs(float(a.finite - 2 * b.finite)) < 1e-28
        assert abs(float(a.tcoef - 2 * b.tcoef)) < 1e-28


def test_product_checks_equal_the_displayed_formulas():
    # the two sides of every stuffle and shuffle check that the checks read off
    # the relation table equal the paper's formula for that product, exactly in the ring
    def double(r, s, r_bar, s_bar):
        return double_direct(DoubleIndex(r, s, r_bar, s_bar), 100).value

    for k in range(2, 13):
        for r in range(1, k):
            s = k - r
            for which, rel in (("mixed", 0), ("alternating", 1)):
                if which == "mixed" and s < 2:
                    continue
                stuffle = oracles.product_stuffle(r, s, which, double)
                assert genfun.stuffle_check(r, s, which, 100) == stuffle, (r, s, which)
                lhs, rhs = genfun._sides("stuffle", k, 100)[rel]
                assert (lhs[r - 1], rhs[r - 1]) == stuffle
                shuffle = oracles.product_shuffle(r, s, which, double)
                lhs, rhs = genfun._sides("shuffle", k, 100)[rel]
                assert (lhs[r - 1], rhs[r - 1]) == shuffle, (r, s, which)
                assert genfun.shuffle_check(r, s, which, 100) == shuffle, (r, s, which)


def test_product_checks_keep_their_domain_errors():
    for check in (genfun.stuffle_check, genfun.shuffle_check):
        with pytest.raises(DomainError):
            check(3, 1, "mixed", N)  # an unbarred zeta(1)
        with pytest.raises(DomainError):
            check(2, 2, "both", N)
        for r, s in ((0, 3), (3, 0), (20, 21)):
            with pytest.raises(DomainError):
                check(r, s, "alternating", N)
    with pytest.raises(DomainError):
        genfun.stuffle_closed_check(2, 2)  # even weight: no closed forms
    lhs, rhs = genfun.stuffle_closed_check(4, 1)
    assert lhs == rhs  # mixed at s = 1: both sides carry the same T-part


def test_build_reaches_the_double_sum_weight_cap_and_is_cached():
    g2 = build("G2", 40, 100)
    assert len(g2) == 39 and build("G2", 40, 100) is g2
    assert g2[0] == ZetaPoly.of(double_direct(DoubleIndex(1, 39, False, True), 100).value)
