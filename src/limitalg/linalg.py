"""Exact Gaussian elimination over int, Fraction or Cyc scalars.

A row (or vector) is a sparse dict, column -> nonzero scalar: a zero is
never stored, and `{}` is the zero row.  A row update touches only the
nonzero entries of the pivot row.  No function here changes the dicts it
is given.
"""
from __future__ import annotations

from fractions import Fraction


def _inv(x):
    """1/x exactly: a Fraction for an int or Fraction, else `x.inverse()`."""
    if isinstance(x, (int, Fraction)):
        return Fraction(1) / x
    if isinstance(x, float):
        raise TypeError("no exact inverse of a float")
    return x.inverse()


def _sub_scaled(x: dict, f, y: dict) -> None:
    """x -= f * y in place, over the nonzero entries of y."""
    for c, yc in y.items():
        if c in x:
            v = x[c] - f * yc
            if v:
                x[c] = v
            else:
                del x[c]
        else:
            x[c] = -(f * yc)


def _reduced(v: dict, pivot_rows: dict) -> dict:
    """A copy of v with its pivot columns cleared; pivot rows vanish on
    each other's pivots, so clearing one never refills another."""
    v = dict(v)
    for c in [c for c in v if c in pivot_rows]:
        _sub_scaled(v, v[c], pivot_rows[c])
    return v


def rref(rows: list[dict]) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form: (nonzero reduced rows, pivot columns).

    The reduced rows come in pivot order, one per pivot.  Rows are added
    one at a time.  Each is reduced by the pivot rows so far, its leading
    column becomes a new pivot, and that column is cleared from the
    earlier pivot rows, so the pivot rows always form the reduced echelon
    form of the rows seen.
    """
    pivot_rows: dict[int, dict] = {}
    for row in rows:
        v = _reduced(row, pivot_rows)
        if not v:
            continue
        p = min(v)
        inv = _inv(v[p])
        v = {c: inv * x for c, x in v.items()}
        for r in pivot_rows.values():
            if p in r:
                _sub_scaled(r, r[p], v)
        pivot_rows[p] = v
    pivots = sorted(pivot_rows)
    return [pivot_rows[p] for p in pivots], pivots


def rank(rows: list[dict]) -> int:
    return len(rref(rows)[1])


def nullspace(rows: list[dict], ncols: int, one) -> list[dict]:
    """Basis of the right null space of the matrix; `one` is the scalar 1."""
    if not rows:
        return [{c: one} for c in range(ncols)]
    red, pivots = rref(rows)
    basis = []
    for f in sorted(set(range(ncols)).difference(pivots)):
        vec = {f: one}
        vec.update((p, -r[f]) for r, p in zip(red, pivots) if f in r)
        basis.append(vec)
    return basis


def same_span(rows_a: list[dict], rows_b: list[dict]) -> bool:
    return Span(rows_a).equals(rows_b)


class Span:
    """A row space with its rref cached, for repeated reductions."""

    def __init__(self, rows: list[dict]):
        red, self.pivots = rref(rows)
        self._pivot_rows = dict(zip(self.pivots, red))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def reduce(self, vec: dict) -> dict:
        """vec minus its component along the span's pivot rows: `{}` iff
        vec is in the span; linear in vec, with the span as its kernel."""
        return _reduced(vec, self._pivot_rows)

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def equals(self, rows: list[dict]) -> bool:
        """Whether `rows` span exactly this space: each lies in it, and
        their rank is its dimension."""
        return all(map(self.contains, rows)) and rank(rows) == self.dim
