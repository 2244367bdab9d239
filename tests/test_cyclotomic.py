"""Exact cyclotomic arithmetic against number-theoretic ground truth."""
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
