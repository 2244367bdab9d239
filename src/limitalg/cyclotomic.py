"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Elements are coefficient vectors over Fraction in the power basis
1, zeta, ..., zeta^(phi(m)-1), reduced modulo the m-th cyclotomic
polynomial.  Everything is exact; no floats anywhere.

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
def _reduction_table(m: int) -> tuple[tuple[Fraction, ...], ...]:
    """zeta^k as a vector in the power basis, for 0 <= k < 2m."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    rows: list[tuple[Fraction, ...]] = []
    cur = [Fraction(0)] * deg
    cur[0] = Fraction(1)
    for _ in range(2 * m):
        rows.append(tuple(cur))
        # multiply by zeta
        carry = cur[-1]
        nxt = [Fraction(0)] + cur[:-1]
        if carry:
            for j in range(deg):
                nxt[j] -= carry * phi[j]
        cur = nxt
    return tuple(rows)


class Cyc:
    """An element of Q(zeta_m) in canonical reduced form."""

    __slots__ = ("m", "c")

    def __init__(self, m: int, coeffs):
        deg = len(cyclotomic_polynomial(m)) - 1
        c = [Fraction(x) for x in coeffs]
        if len(c) < deg:
            c += [Fraction(0)] * (deg - len(c))
        if len(c) > deg:
            raise ValueError("coefficient vector too long; reduce first")
        self.m = m
        self.c = tuple(c)

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_rational(m: int, q) -> "Cyc":
        return Cyc(m, [Fraction(q)])

    @staticmethod
    def zeta(m: int, k: int = 1) -> "Cyc":
        """zeta_m^k, reduced."""
        table = _reduction_table(m)
        return Cyc(m, table[k % m])

    @staticmethod
    def zero(m: int) -> "Cyc":
        return Cyc(m, [])

    @staticmethod
    def one(m: int) -> "Cyc":
        return Cyc(m, [1])

    # -- ring structure -----------------------------------------------
    def _coerce(self, other) -> "Cyc":
        if isinstance(other, Cyc):
            if other.m != self.m:
                raise ValueError("mixed cyclotomic moduli")
            return other
        return Cyc.from_rational(self.m, other)

    def __add__(self, other):
        o = self._coerce(other)
        return Cyc(self.m, [a + b for a, b in zip(self.c, o.c)])

    __radd__ = __add__

    def __neg__(self):
        return Cyc(self.m, [-a for a in self.c])

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
        return _reduced(self.m, prod)

    __rmul__ = __mul__

    def inverse(self) -> "Cyc":
        """Multiplicative inverse: 1/c for a rational c, else the product
        of the other Galois conjugates over the rational norm."""
        if not self:
            raise ZeroDivisionError("division by zero in Q(zeta_m)")
        if not any(self.c[1:]):
            return Cyc(self.m, [1 / self.c[0]])
        rest = reduce(operator.mul, (self._galois(k) for k in range(2, self.m)
                                     if math.gcd(k, self.m) == 1))
        norm = self * rest
        if any(norm.c[1:]):
            raise AssertionError(f"norm of {self!r} is not rational")
        return Cyc(self.m, [x / norm.c[0] for x in rest.c])

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def _galois(self, k: int) -> "Cyc":
        """The automorphism zeta -> zeta^k (k prime to m) applied to self."""
        poly = [Fraction(0)] * self.m
        for i, a in enumerate(self.c):
            poly[i * k % self.m] = a
        return _reduced(self.m, poly)

    def conjugate(self) -> "Cyc":
        """Complex conjugation: zeta -> zeta^(m-1)."""
        return self._galois(-1)

    # -- comparisons ----------------------------------------------------
    def __bool__(self):
        return any(self.c)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyc.from_rational(self.m, other)
        if not isinstance(other, Cyc):
            return NotImplemented
        return self.m == other.m and self.c == other.c

    def __hash__(self):
        return hash((self.m, self.c))

    def __repr__(self):
        return f"Cyc({self.m}, {[str(x) for x in self.c]})"

    def as_coeff_strings(self) -> list[str]:
        return [str(x) for x in self.c]


def _reduced(m: int, poly: list[Fraction]) -> Cyc:
    """sum_k poly[k] zeta^k in the power basis (deg poly < 2m)."""
    table = _reduction_table(m)
    deg = len(table[0])
    out = [Fraction(0)] * deg
    for k, coef in enumerate(poly):
        if coef:
            row = table[k]
            for j in range(deg):
                out[j] += coef * row[j]
    return Cyc(m, out)

