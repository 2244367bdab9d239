"""Exact cyclotomic arithmetic against number-theoretic ground truth."""
import math
import operator
import random
from fractions import Fraction
from functools import lru_cache, reduce

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
    # no float is taken at its binary value
    for bad in (lambda: Cyc(3, [0.1]), lambda: Cyc(3, [1, "1/2"]),
                lambda: Cyc.from_rational(3, 0.5), lambda: Cyc.one(2) + 0.1,
                lambda: 0.1 + Cyc.one(2), lambda: z * 0.5, lambda: z - 0.5,
                lambda: 0.5 / z):
        with pytest.raises(TypeError):
            bad()
    assert z != 0.5


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


# -- integer numerators over one denominator, against Fraction coefficients --
#
# `FractionCyc` is the representation `Cyc` had before it stored integer
# numerators over one denominator: a tuple of Fractions, rebuilt through
# `Fraction` on every operation.  Every operation of `Cyc` must give the
# same coefficients, repr and comparisons, in canonical form.


@lru_cache(maxsize=None)
def _fraction_reduction_table(m):
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    rows = []
    cur = [Fraction(0)] * deg
    cur[0] = Fraction(1)
    for _ in range(2 * m):
        rows.append(tuple(cur))
        carry = cur[-1]
        nxt = [Fraction(0)] + cur[:-1]
        if carry:
            for j in range(deg):
                nxt[j] -= carry * phi[j]
        cur = nxt
    return tuple(rows)


def _fraction_reduced(m, poly):
    table = _fraction_reduction_table(m)
    deg = len(table[0])
    out = [Fraction(0)] * deg
    for k, coef in enumerate(poly):
        if coef:
            for j in range(deg):
                out[j] += coef * table[k][j]
    return FractionCyc(m, out)


class FractionCyc:
    __slots__ = ("m", "c")

    def __init__(self, m, coeffs):
        deg = len(cyclotomic_polynomial(m)) - 1
        c = [Fraction(x) for x in coeffs]
        c += [Fraction(0)] * (deg - len(c))
        self.m = m
        self.c = tuple(c)

    def _coerce(self, other):
        if isinstance(other, FractionCyc):
            return other
        return FractionCyc(self.m, [Fraction(other)])

    def __add__(self, other):
        o = self._coerce(other)
        return FractionCyc(self.m, [a + b for a, b in zip(self.c, o.c)])

    __radd__ = __add__

    def __neg__(self):
        return FractionCyc(self.m, [-a for a in self.c])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        prod = [Fraction(0)] * (2 * len(self.c) - 1)
        for i, a in enumerate(self.c):
            if not a:
                continue
            for j, b in enumerate(o.c):
                if b:
                    prod[i + j] += a * b
        return _fraction_reduced(self.m, prod)

    __rmul__ = __mul__

    def inverse(self):
        if not any(self.c[1:]):
            return FractionCyc(self.m, [1 / self.c[0]])
        rest = reduce(operator.mul, (self._galois(k) for k in range(2, self.m)
                                     if math.gcd(k, self.m) == 1))
        norm = self * rest
        assert not any(norm.c[1:])
        return FractionCyc(self.m, [x / norm.c[0] for x in rest.c])

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def _galois(self, k):
        poly = [Fraction(0)] * self.m
        for i, a in enumerate(self.c):
            poly[i * k % self.m] = a
        return _fraction_reduced(self.m, poly)

    def conjugate(self):
        return self._galois(-1)

    def __bool__(self):
        return any(self.c)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FractionCyc(self.m, [other])
        return self.m == other.m and self.c == other.c

    def __repr__(self):
        return f"Cyc({self.m}, {[str(x) for x in self.c]})"

    def as_coeff_strings(self):
        return [str(x) for x in self.c]


def _random_coeffs(rng, m):
    """Sparse coefficients with denominators up to 12, signs mixed."""
    deg = len(cyclotomic_polynomial(m)) - 1
    return [Fraction(rng.randint(-20, 20), rng.randint(1, 12))
            if rng.random() < 0.6 else 0 for _ in range(deg)]


def _agrees(x, ref):
    """x is canonical and has the coefficients, repr and hash of ref."""
    assert isinstance(x, Cyc) and x.m == ref.m
    assert x.c == ref.c
    assert repr(x) == repr(ref)
    assert x.as_coeff_strings() == ref.as_coeff_strings()
    assert bool(x) == bool(ref)
    # canonical: d > 0, gcd(d, *n) = 1, one integer per basis element
    assert len(x.n) == len(ref.c)
    assert all(type(a) is int for a in (x.d, *x.n))
    assert x.d > 0 and math.gcd(x.d, *x.n) == 1
    # the same value built from its Fraction coefficients is the same Cyc
    same = Cyc(x.m, ref.c)
    assert same == x and hash(same) == hash(x)
    assert (same.n, same.d) == (x.n, x.d)


@pytest.mark.parametrize("m", range(1, 31))
def test_integer_form_matches_fraction_reference(m):
    rng = random.Random(f"fraction-reference-{m}")
    deg = len(cyclotomic_polynomial(m)) - 1
    coeffs = [[], [7], [Fraction(-3, 4)], ([Fraction(5, 6)] + [0] * 7)[:deg]]
    coeffs += [_random_coeffs(rng, m) for _ in range(3)]
    pairs = [(Cyc(m, c), FractionCyc(m, c)) for c in coeffs]
    # a divisor that is irrational for m > 2; the reference's inverses, the
    # costly step, are taken once (its `a / b` is `a * b.inverse()`)
    y, ry = next(p for p in reversed(pairs) if p[0])
    ry_inv = ry.inverse()
    for x, rx in pairs:
        _agrees(x, rx)
        _agrees(-x, -rx)
        _agrees(x.conjugate(), rx.conjugate())
        for k in (k for k in range(1, m) if math.gcd(k, m) == 1):
            _agrees(x._galois(k), rx._galois(k))
        for q in (0, 1, -2, Fraction(-3, 4), Fraction(7, 2)):
            _agrees(x + q, rx + q)
            _agrees(q + x, q + rx)
            _agrees(x - q, rx - q)
            _agrees(q - x, q - rx)
            _agrees(x * q, rx * q)
            _agrees(q * x, q * rx)
            if q:
                _agrees(x / q, rx / q)
        for q in (0, 1, 7, Fraction(-3, 4), Fraction(5, 6), *rx.c[:1]):
            assert (x == q) is (rx == q)
        if x:
            rx_inv = rx.inverse()
            _agrees(x.inverse(), rx_inv)
            _agrees(Fraction(7, 2) / x, Fraction(7, 2) * rx_inv)
        else:
            with pytest.raises(ZeroDivisionError):
                x.inverse()
        _agrees(x / y, rx * ry_inv)
        for z, rz in pairs:
            _agrees(x + z, rx + rz)
            _agrees(x - z, rx - rz)
            _agrees(x * z, rx * rz)
            assert (x == z) is (rx == rz)
            assert (x == z) is (hash(x) == hash(z))
