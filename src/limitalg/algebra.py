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
from functools import cached_property

from . import linalg


class MonomialAlgebra:
    def __init__(self, basis: list, right, one=Fraction(1)):
        """`right(a)` yields (b, scalar, key) for each nonzero a b = scalar key."""
        self.basis = list(basis)
        self.index = {k: i for i, k in enumerate(self.basis)}
        self.right = right
        self.one = one
        self.zero = one - one

    @cached_property
    def rows(self) -> dict:
        """The nonzero products, a -> {b: (scalar, key)}; built on first use."""
        return {a: {b: (s, k) for b, s, k in self.right(a)}
                for a in self.basis}

    @property
    def dim(self) -> int:
        return len(self.basis)

    # -- vectors are dicts key -> scalar --------------------------------
    def vec(self, key) -> dict:
        return {key: self.one}

    def multiply(self, x: dict, y: dict) -> dict:
        out: dict = {}
        for a, ca in x.items():
            row = self.rows[a]
            for b, cb in y.items():
                r = row.get(b)
                if r is None:
                    continue
                s, k = r
                c = out.get(k, self.zero) + ca * cb * s
                if c:
                    out[k] = c
                elif k in out:
                    del out[k]
        return out

    def gram(self) -> list[dict]:
        """Sparse rows of the Gram matrix of (x, y) -> trace(L_{xy})."""
        # trace(L_k) sums the scalars of the products k b = s b
        trace = {k: sum((s for b, (s, kb) in row.items() if kb == b),
                        self.zero)
                 for k, row in self.rows.items()}
        rows = []
        for a in self.basis:
            row = {}
            for b, (s, k) in self.rows[a].items():
                t = trace[k]
                if t:
                    row[self.index[b]] = s * t
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


def multi_matrix_algebra(shape: tuple[int, ...], triangular: bool = True,
                         one=Fraction(1)) -> MonomialAlgebra:
    """Matrix units e_ij e_jl = e_il of a direct sum of (triangular) blocks."""
    def right(a):
        s, i, j = a
        # products of upper-triangular units stay upper-triangular
        for col in range(j if triangular else 1, shape[s] + 1):
            yield (s, j, col), one, (s, i, col)

    return MonomialAlgebra(multi_matrix_units(shape, triangular), right, one)
