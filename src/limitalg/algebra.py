"""Finite-dimensional algebras with monomial structure constants.

Basis elements multiply to a scalar multiple of a basis element (or 0),
which covers multi-matrix algebras and their finite-group crossed
products.  The Jacobson radical is computed by the characteristic-zero
trace-form criterion: x is radical iff trace(L_{x a}) = 0 for every a,
i.e. the null space of the Gram matrix of the regular-representation
trace form.
"""
from __future__ import annotations

from fractions import Fraction

from . import linalg


class MonomialAlgebra:
    def __init__(self, basis: list, prod, one=Fraction(1)):
        """`prod(a, b)` returns (scalar, key) or None for a zero product."""
        self.basis = list(basis)
        self.index = {k: i for i, k in enumerate(self.basis)}
        self.prod = prod
        self.one = one
        self.zero = one - one
        self._traces: dict = {}

    @property
    def dim(self) -> int:
        return len(self.basis)

    # -- vectors are dicts key -> scalar --------------------------------
    def vec(self, key) -> dict:
        return {key: self.one}

    def multiply(self, x: dict, y: dict) -> dict:
        out: dict = {}
        for a, ca in x.items():
            for b, cb in y.items():
                r = self.prod(a, b)
                if r is None:
                    continue
                s, k = r
                c = out.get(k, self.zero) + ca * cb * s
                if c:
                    out[k] = c
                elif k in out:
                    del out[k]
        return out

    def trace_left_mult(self, key) -> object:
        """Trace of left multiplication by a basis element (memoized)."""
        if key not in self._traces:
            t = self.zero
            for w in self.basis:
                r = self.prod(key, w)
                if r is not None and r[1] == w:
                    t = t + r[0]
            self._traces[key] = t
        return self._traces[key]

    def gram(self) -> list[dict]:
        """Sparse rows of the Gram matrix of (x, y) -> trace(L_{xy})."""
        rows = []
        for a in self.basis:
            row = {}
            for j, b in enumerate(self.basis):
                r = self.prod(a, b)
                if r is not None:
                    s, k = r
                    t = self.trace_left_mult(k)
                    if t:
                        row[j] = s * t
            rows.append(row)
        return rows

    def radical_basis(self) -> list[dict]:
        """Jacobson radical basis vectors (canonical rref order)."""
        red, _ = linalg.rref(linalg.nullspace(self.gram(), self.dim, self.one))
        return [{self.basis[c]: x for c, x in sorted(row.items())}
                for row in red]

    def vectors_to_rows(self, vectors: list[dict]) -> list[dict]:
        """Sparse `linalg` rows over the basis index; zeros are dropped."""
        return [{self.index[k]: c for k, c in v.items() if c} for v in vectors]

    def span_equal(self, vecs_a: list[dict], vecs_b: list[dict]) -> bool:
        return linalg.same_span(self.vectors_to_rows(vecs_a),
                                self.vectors_to_rows(vecs_b))

    def power_of_span(self, vectors: list[dict], k: int) -> list[dict]:
        """Spanning set of (span)^k under multiplication."""
        cur = list(vectors)
        for _ in range(k - 1):
            nxt = []
            for x in cur:
                for y in vectors:
                    p = self.multiply(x, y)
                    if p:
                        nxt.append(p)
            cur = nxt
            if not cur:
                return []
        return cur


def multi_matrix_units(shape: tuple[int, ...], triangular: bool):
    """Basis keys (summand,row,col) for a direct sum of (triangular) blocks,
    generated lazily in canonical order."""
    for s, k in enumerate(shape):
        for i in range(1, k + 1):
            for j in range(i if triangular else 1, k + 1):
                yield (s, i, j)


def multi_matrix_prod(a, b):
    (s, i, j), (s2, k, l) = a, b
    if s == s2 and j == k:
        return (Fraction(1), (s, i, l))
    return None


def multi_matrix_algebra(shape: tuple[int, ...],
                         triangular: bool = True) -> MonomialAlgebra:
    # products of upper-triangular units stay upper-triangular
    return MonomialAlgebra(multi_matrix_units(shape, triangular),
                           multi_matrix_prod)
