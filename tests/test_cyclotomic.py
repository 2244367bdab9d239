"""Exact cyclotomic arithmetic against number-theoretic ground truth."""
import math
import random
from fractions import Fraction

import pytest

from limitalg.cyclotomic import Cyc, cyclotomic_polynomial, divisors


def test_cyclotomic_polynomials_known_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_product_of_cyclotomics_is_x_to_m_minus_one():
    # prod over d | m of Phi_d(x) = x^m - 1
    for m in (1, 2, 3, 4, 6, 8, 12):
        prod = [1]
        for d in divisors(m):
            phi = cyclotomic_polynomial(d)
            nxt = [0] * (len(prod) + len(phi) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(phi):
                    nxt[i + j] += a * b
            prod = nxt
        expected = [-1] + [0] * (m - 1) + [1]
        assert prod == expected


def test_roots_of_unity_relations():
    for m in (2, 3, 4, 5, 6, 8):
        z = Cyc.zeta(m)
        p = Cyc.one(m)
        for k in range(1, m + 1):
            p = p * z
            assert p == Cyc.zeta(m, k)
        assert p == Cyc.one(m)
        # geometric sum vanishes for m > 1
        total = Cyc.zero(m)
        for k in range(m):
            total = total + Cyc.zeta(m, k)
        assert total == Cyc.zero(m)


def test_field_arithmetic_and_inverse():
    m = 5
    x = Cyc(m, [Fraction(1, 2), 3, 0, Fraction(-2, 7)])
    y = Cyc(m, [0, 1, 1, 4])
    assert (x + y) - y == x
    assert x * y == y * x
    assert x * (y + 1) == x * y + x
    assert x * x.inverse() == Cyc.one(m)
    assert (x / y) * y == x
    with pytest.raises(ZeroDivisionError):
        Cyc.zero(m).inverse()


def test_conjugation_is_an_involution_and_fixes_rationals():
    for m in (3, 4, 8):
        z = Cyc.zeta(m)
        assert z.conjugate() == Cyc.zeta(m, m - 1)
        assert z.conjugate().conjugate() == z
        q = Cyc.from_rational(m, Fraction(7, 3))
        assert q.conjugate() == q
        # z * conj(z) = |z|^2 = 1 for roots of unity
        assert z * z.conjugate() == Cyc.one(m)


def test_scalar_interop_with_int_and_fraction():
    m = 4
    z = Cyc.zeta(m)  # i
    assert z * z == Cyc.from_rational(m, -1)
    assert 2 * z + z == 3 * z
    assert (z + Fraction(1, 2)) - Fraction(1, 2) == z
    assert 1 / z == z.conjugate()
    with pytest.raises(ValueError, match="mixed cyclotomic moduli"):
        z + Cyc.one(3)


# -- the Galois action, against the extended-Euclid inverse ----------------
#
# The reference below is the inverse the library used before it went
# through the Galois group: extended Euclid of a and Phi_m over Q[x].


def _trim(p):
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _polymul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _polysub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return _trim(out)


def _polydivmod(a, b):
    a, b = list(a), _trim(b)
    db = len(b) - 1
    if len(a) - 1 < db:
        return [Fraction(0)], _trim(a)
    q = [Fraction(0)] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] / b[-1]
        q[i - db] = c
        for j, bj in enumerate(b):
            a[i - db + j] -= c * bj
    return _trim(q), _trim(a)


def euclid_inverse(x: Cyc) -> Cyc:
    r0 = [Fraction(c) for c in cyclotomic_polynomial(x.m)]
    r1 = _trim(x.c)
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while len(r1) > 1 or r1[0] != 0:
        q, r = _polydivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _polysub(s0, _polymul(q, s1))
    assert len(r0) == 1 and r0[0] != 0
    s = [c / r0[0] for c in s0]
    return sum((c * Cyc.zeta(x.m, k) for k, c in enumerate(s)), Cyc.zero(x.m))


def random_cyc(rng: random.Random, m: int) -> Cyc:
    deg = len(cyclotomic_polynomial(m)) - 1
    return Cyc(m, [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                   if rng.random() < 0.7 else 0 for _ in range(deg)])


@pytest.mark.parametrize("m", range(1, 31))
def test_inverse_matches_extended_euclid(m):
    rng = random.Random(m)
    seen = 0
    while seen < 3:
        x = random_cyc(rng, m)
        if not x:
            continue
        seen += 1
        inv = x.inverse()
        assert inv == euclid_inverse(x)
        assert x * inv == Cyc.one(m)
    # a unit that is not rational for m > 2: 1 + zeta
    if m > 2:
        y = Cyc.one(m) + Cyc.zeta(m)
        assert y.inverse() == euclid_inverse(y)


@pytest.mark.parametrize("m", [3, 4, 5, 8, 9, 12, 15, 16])
def test_galois_maps_are_field_automorphisms(m):
    rng = random.Random(100 + m)
    x, y = random_cyc(rng, m), random_cyc(rng, m)
    z, q = Cyc.zeta(m), Cyc.from_rational(m, Fraction(-5, 3))
    for k in (k for k in range(1, m) if math.gcd(k, m) == 1):
        assert (x + y)._galois(k) == x._galois(k) + y._galois(k)
        assert (x * y)._galois(k) == x._galois(k) * y._galois(k)
        assert z._galois(k) == Cyc.zeta(m, k)
        assert q._galois(k) == q
    assert x._galois(1) == x
    assert x.conjugate() == x._galois(-1) == x._galois(m - 1)


def test_inverse_rejects_a_norm_that_is_not_rational(monkeypatch):
    # with a broken Galois map the product of the "conjugates" is no norm;
    # inverse must say so instead of dividing by its constant term
    monkeypatch.setattr(Cyc, "_galois", lambda self, k: self)
    with pytest.raises(AssertionError, match="not rational"):
        (Cyc.one(3) + Cyc.zeta(3)).inverse()
    # a rational element never reaches the Galois path
    assert Cyc.from_rational(3, 4).inverse() == Fraction(1, 4)
