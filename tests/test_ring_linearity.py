"""ZetaPoly's lazy linear forms against an eager collection of their terms."""
import functools
import operator
import random
from fractions import Fraction

import pytest

from eulerlab import euler_sums, zagier
from eulerlab.hpreal import DomainError, ExtReal
from eulerlab.zeta_core import _T, ZetaPoly, zeta_reg
import oracles


def _bits(v: ExtReal) -> tuple:
    return v.hi.hex(), v.lo.hex()


def _assert_parts_match_the_oracle(key, element):
    # finite first, so that it is read from the linear form, not the terms
    assert _bits(element.finite) == _bits(oracles.ring_part(element, 0)), key
    assert _bits(element.tcoef) == _bits(oracles.ring_part(element, 1)), key


def test_closed_forms_round_like_their_collected_terms():
    # all 1520 odd-weight double sums with k <= 39 and all 420 H, H* with K <= 20;
    # a weight's batch (the odd-weight tables) equals each element bit for bit
    count = 0
    for k in range(3, 40, 2):
        indices = [euler_sums.DoubleIndex(r, k - r, *bars) for r in range(1, k) for bars in euler_sums.CLOSED_FORMS]
        for idx, value in zip(indices, euler_sums.closed_finites(indices), strict=True):
            element = euler_sums._closed(idx.r, idx.s, idx.r_bar, idx.s_bar)
            _assert_parts_match_the_oracle((idx.r, idx.s, idx.r_bar, idx.s_bar), element)
            assert _bits(value) == _bits(element.finite), idx
            count += 1
    for total in range(20):
        for a in range(total + 1):
            for star in (False, True):
                _assert_parts_match_the_oracle((a, total - a, star), zagier._h(a, total - a, star))
                count += 1
    assert count == 1520 + 420


def _eager_sum(pairs) -> dict:
    out: dict = {}
    for w, terms in pairs:
        for m, c in terms.items():
            out[m] = out.get(m, 0) + w * c
    return {m: c for m, c in out.items() if c}


def _eager_product(x: dict, y: dict) -> dict:
    out: dict = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            m = tuple(sorted(m1 + m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _nested_forms(seed: int, count: int):
    """(element, its terms collected eagerly) for seeded linear forms over
    zeta values, a product and constants, nested up to 17 deep."""
    rng = random.Random(seed)
    pool = []
    for k in range(7):
        for bar in (False, True):
            e = zeta_reg(k, bar)
            pool.append((e, dict(e.terms)))
    pool.append((zeta_reg(2) * zeta_reg(5, True), _eager_product(pool[4][1], pool[11][1])))
    for c in (3, Fraction(-7, 12), ExtReal(0.1)):
        pool.append((c, {(): Fraction(c) if not isinstance(c, ExtReal) else c.to_fraction()}))
    for _ in range(count):
        pairs = []
        for _ in range(rng.randint(1, 5)):
            w = rng.choice([rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 12))])
            pairs.append((w, rng.choice(pool)))
        kind = rng.randrange(3)
        if kind == 0:
            e = ZetaPoly.combination((w, x) for w, (x, _) in pairs)
            eager = _eager_sum((w, t) for w, (_, t) in pairs)
        elif kind == 1:
            (x, tx), (y, ty) = pairs[0][1], pairs[-1][1]
            e = ZetaPoly.of(x) - y
            eager = _eager_sum(((1, tx), (-1, ty)))
        else:
            w, (x, tx) = pairs[0]
            e = -(ZetaPoly.of(x) * w)
            eager = _eager_sum(((-w, tx),))
        pool.append((e, eager))
    return [(e, t) for e, t in pool if isinstance(e, ZetaPoly)]


def test_nested_linear_forms_match_an_eager_collection():
    forms = _nested_forms(20261020, 300)
    rng = random.Random(7)
    for e, eager in forms:
        _assert_parts_match_the_oracle(eager, e)
        assert dict(e.terms) == eager
        assert e == ZetaPoly(eager) and ZetaPoly(eager) == e
        f, f_eager = rng.choice(forms)
        if any(_T in m for m in eager) and any(_T in m for m in f_eager):
            with pytest.raises(DomainError):
                e * f
            continue
        product = _eager_product(eager, f_eager)
        assert dict((e * f).terms) == product
        assert (e * f) == ZetaPoly(product)
        _assert_parts_match_the_oracle(product, e * f)


def test_a_long_chain_of_sums_stays_shallow():
    # 3000 sums nested one inside the next read like one sum of 3000 terms
    chain = functools.reduce(operator.add, [zeta_reg(3, True)] * 3000)
    assert dict(chain.terms) == {(3,): Fraction(-3, 4) * 3000}
    _assert_parts_match_the_oracle("chain", chain)
    assert chain.finite == (zeta_reg(3, True) * 3000).finite
