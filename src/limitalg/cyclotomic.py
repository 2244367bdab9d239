"""Exact arithmetic in cyclotomic fields Q(zeta_m).

An element is (m, n, d): integer numerators n = (n_0, ..., n_(phi(m)-1))
over one denominator d, standing for sum_i (n_i / d) zeta^i in the power
basis 1, zeta, ..., zeta^(phi(m)-1), reduced modulo the m-th cyclotomic
polynomial.  The form is canonical: d > 0 and gcd(d, n_0, n_1, ...) = 1,
so zero is ((0, ..., 0), 1), and two elements are equal iff their
(m, n, d) are.  Phi_m is monic with integer coefficients, so reduction
works on integers only; `Fraction` appears only at the public boundary
(`Cyc(m, coeffs)`, `Cyc.from_rational` and the `c` view).  Scalars are
int, Fraction or Cyc; a float is rejected.  Everything is exact.

The Galois group of Q(zeta_m) is {sigma_k : zeta -> zeta^k, gcd(k, m) = 1}
(`Cyc._galois`).  Complex conjugation is sigma_(-1), and 1/a is the
product of the other conjugates sigma_k(a), k != 1, divided by the
rational norm N(a) = prod_k sigma_k(a).
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache, reduce


def divisors(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if m % d == 0]


def _polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (coeffs low->high), den monic."""
    num = list(num)
    deg_d = len(den) - 1
    out = [0] * (len(num) - deg_d)
    for i in range(len(num) - 1, deg_d - 1, -1):
        c = num[i]
        out[i - deg_d] = c
        if c:
            for j, dj in enumerate(den):
                num[i - deg_d + j] -= c * dj
    if any(num):
        raise AssertionError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients (low->high) of the m-th cyclotomic polynomial."""
    if m == 1:
        return (-1, 1)
    # x^m - 1 divided by the product of Phi_d over proper divisors d of m
    poly = [-1] + [0] * (m - 1) + [1]
    for d in divisors(m):
        if d < m:
            poly = _polydiv_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_table(m: int) -> tuple[tuple[int, ...], ...]:
    """zeta^k as an integer vector in the power basis, for 0 <= k < 2m."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    rows: list[tuple[int, ...]] = []
    cur = [1] + [0] * (deg - 1)
    for _ in range(2 * m):
        rows.append(tuple(cur))
        # multiply by zeta
        carry = cur[-1]
        cur = [0] + cur[:-1]
        if carry:
            for j in range(deg):
                cur[j] -= carry * phi[j]
    return tuple(rows)


class Cyc:
    """An element of Q(zeta_m): numerators `n` over the denominator `d`,
    in the canonical form of the module docstring."""

    __slots__ = ("m", "n", "d")

    def __init__(self, m: int, coeffs):
        deg = len(cyclotomic_polynomial(m)) - 1
        coeffs = list(coeffs)
        if len(coeffs) > deg:
            raise ValueError("coefficient vector too long; reduce first")
        for x in coeffs:
            if not isinstance(x, (int, Fraction)):
                raise TypeError("Cyc coefficients are int or Fraction, not "
                                f"{type(x).__name__}")
        # over the lcm of reduced denominators the form is already canonical
        d = math.lcm(*(x.denominator for x in coeffs))
        self.m = m
        self.n = tuple(x.numerator * (d // x.denominator) for x in coeffs) \
            + (0,) * (deg - len(coeffs))
        self.d = d

    @property
    def c(self) -> tuple[Fraction, ...]:
        """The coefficients in the power basis, as Fractions."""
        return tuple(Fraction(x, self.d) for x in self.n)

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_rational(m: int, q) -> "Cyc":
        if not isinstance(q, (int, Fraction)):
            raise TypeError(f"not a rational scalar: {type(q).__name__}")
        deg = len(cyclotomic_polynomial(m)) - 1
        return _cyc(m, (q.numerator,) + (0,) * (deg - 1), q.denominator)

    @staticmethod
    def zeta(m: int, k: int = 1) -> "Cyc":
        """zeta_m^k, reduced."""
        return _cyc(m, _reduction_table(m)[k % m], 1)

    @staticmethod
    def zero(m: int) -> "Cyc":
        return Cyc.from_rational(m, 0)

    @staticmethod
    def one(m: int) -> "Cyc":
        return Cyc.from_rational(m, 1)

    # -- ring structure -----------------------------------------------
    def _coerce(self, other) -> "Cyc":
        if isinstance(other, Cyc):
            if other.m != self.m:
                raise ValueError("mixed cyclotomic moduli")
            return other
        return Cyc.from_rational(self.m, other)

    def _combine(self, other, op) -> "Cyc":
        """self op other, for op = operator.add or operator.sub."""
        o = self._coerce(other)
        a, b, d = self.n, o.n, self.d
        if o.d != d:
            a = [x * o.d for x in a]
            b = [y * d for y in b]
            d *= o.d
        return _cyc(self.m, tuple(map(op, a, b)), d)

    def __add__(self, other):
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __neg__(self):
        return _cyc(self.m, tuple(map(operator.neg, self.n)), self.d)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        a, b = self.n, o.n
        if len(a) == 1:
            # phi(m) = 1: Q(zeta_m) = Q, no reduction
            return _cyc(self.m, (a[0] * b[0],), self.d * o.d)
        prod = [0] * (2 * len(a) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return _reduced(self.m, prod, self.d * o.d)

    __rmul__ = __mul__

    def inverse(self) -> "Cyc":
        """Multiplicative inverse: 1/c for a rational c, else the product
        of the other Galois conjugates over the rational norm."""
        if not self:
            raise ZeroDivisionError("division by zero in Q(zeta_m)")
        n = self.n
        if not any(n[1:]):
            return _cyc(self.m, (self.d,) + n[1:], n[0])
        rest = reduce(operator.mul, (self._galois(k) for k in range(2, self.m)
                                     if math.gcd(k, self.m) == 1))
        norm = self * rest
        if any(norm.n[1:]):
            raise AssertionError(f"norm of {self!r} is not rational")
        # rest / (norm.n[0] / norm.d)
        return _cyc(self.m, tuple(x * norm.d for x in rest.n),
                    rest.d * norm.n[0])

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def _galois(self, k: int) -> "Cyc":
        """The automorphism zeta -> zeta^k (k prime to m) applied to self."""
        poly = [0] * self.m
        for i, a in enumerate(self.n):
            poly[i * k % self.m] = a
        return _reduced(self.m, poly, self.d)

    def conjugate(self) -> "Cyc":
        """Complex conjugation: zeta -> zeta^(m-1)."""
        return self._galois(-1)

    # -- comparisons ----------------------------------------------------
    def __bool__(self):
        return any(self.n)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return (self.d == other.denominator and self.n[0] == other.numerator
                    and not any(self.n[1:]))
        if not isinstance(other, Cyc):
            return NotImplemented
        return self.m == other.m and self.n == other.n and self.d == other.d

    def __hash__(self):
        return hash((self.m, self.n, self.d))

    def __repr__(self):
        return f"Cyc({self.m}, {self.as_coeff_strings()})"

    def as_coeff_strings(self) -> list[str]:
        return [str(x) for x in self.c]


def _cyc(m: int, n: tuple[int, ...], d: int) -> Cyc:
    """The Cyc n / d (d != 0) in canonical form: the gcd of d and the
    numerators divided out, with its sign, so that d > 0."""
    if d != 1:
        g = math.gcd(d, *n)
        if d < 0:
            g = -g
        if g != 1:
            n = tuple(x // g for x in n)
            d //= g
    z = object.__new__(Cyc)
    z.m, z.n, z.d = m, n, d
    return z


def _reduced(m: int, poly: list[int], d: int) -> Cyc:
    """sum_k poly[k] zeta^k / d in the power basis (deg poly < 2m)."""
    table = _reduction_table(m)
    deg = len(table[0])
    out = poly[:deg]
    for k in range(deg, len(poly)):
        coef = poly[k]
        if coef:
            out = [x + coef * v for x, v in zip(out, table[k])]
    return _cyc(m, tuple(out), d)
