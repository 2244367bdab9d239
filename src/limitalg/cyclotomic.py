"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Elements are coefficient vectors over Fraction in the power basis
1, zeta, ..., zeta^(phi(m)-1), reduced modulo the m-th cyclotomic
polynomial.  Everything is exact; no floats anywhere.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


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
        """Multiplicative inverse: 1/c for a rational c, else extended
        Euclid in Q[x] mod Phi_m."""
        if not self:
            raise ZeroDivisionError("division by zero in Q(zeta_m)")
        if not any(self.c[1:]):
            return Cyc(self.m, [1 / self.c[0]])
        phi = [Fraction(x) for x in cyclotomic_polynomial(self.m)]
        a = list(self.c)
        # extended gcd of a and phi over Q[x]
        r0, r1 = phi, _trim(a)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1 or r1[0] != 0:
            q, r = _polydivmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _polysub(s0, _polymul(q, s1))
        # r0 = gcd (a nonzero constant, since Phi_m is irreducible)
        if len(r0) != 1 or r0[0] == 0:
            raise AssertionError(f"gcd with Phi_{self.m} is not a unit")
        return _reduced(self.m, [x / r0[0] for x in s0])

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def conjugate(self) -> "Cyc":
        """Complex conjugation: zeta -> zeta^(m-1)."""
        poly = [Fraction(0)] * self.m
        for i, a in enumerate(self.c):
            poly[(self.m - i) % self.m] = a
        return _reduced(self.m, poly)

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


def _trim(p: list[Fraction]) -> list[Fraction]:
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _polymul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _trim(out)


def _polysub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return _trim(out)


def _polydivmod(a: list[Fraction], b: list[Fraction]):
    a = list(a)
    b = _trim(b)
    db = len(b) - 1
    if len(a) - 1 < db:
        return [Fraction(0)], _trim(a)
    q = [Fraction(0)] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        if a[i] == 0:
            continue
        c = a[i] / b[-1]
        q[i - db] = c
        for j, bj in enumerate(b):
            a[i - db + j] -= c * bj
    return _trim(q), _trim(a)
