"""Exact Gaussian elimination over int, Fraction or Cyc scalars.

A row (or vector) is a sparse dict, column -> nonzero scalar: a zero is
never stored, and `{}` is the zero row.  A row update touches only the
nonzero entries of the pivot row.  No function here changes the dicts it
is given, or returns one of them.

One kernel, `_echelon`, eliminates for `rref`, `rank` and `nullspace`.
It leaves its pivot rows unscaled.  Clearing a pivot's column from
another row drops that entry without computing it, and needs 1/pivot
only when the pivot row has entries beside its pivot and the pivot is
not 1; each such inverse is computed once.  So a matrix with at most one
nonzero per row, such as a crossed product's Gram matrix, is eliminated
without a single inverse.
"""
from __future__ import annotations

from fractions import Fraction


def _inv(x):
    """1/x exactly: a Fraction for an int or Fraction, else `x.inverse()`."""
    if isinstance(x, (int, Fraction)):
        return Fraction(1) / x
    return x.inverse()


def _clear(x: dict, c, r: dict, inverse) -> None:
    """x -= (x[c] / r[c]) * r in place, for the pivot row r of column c;
    the entry at c is dropped, not computed.  `inverse(c)` gives 1/r[c]."""
    f = x.pop(c)
    if len(r) == 1:
        return
    if r[c] != 1:
        f = inverse(c) * f
    for col, y in r.items():
        if col == c:
            continue
        if col in x:
            v = x[col] - f * y
            if v:
                x[col] = v
            else:
                del x[col]
        else:
            x[col] = -(f * y)


def _reduced(v: dict, pivot_rows: dict, inverse) -> dict:
    """A copy of v with its pivot columns cleared; `inverse(c)` gives 1/pivot
    of row c.  Pivot rows vanish on each other's pivots, so clearing one
    never refills another."""
    v = dict(v)
    for c in [c for c in v if c in pivot_rows]:
        _clear(v, c, pivot_rows[c], inverse)
    return v


def _echelon(rows: list[dict], lead=min):
    """Unscaled reduced echelon form: (pivot column -> row, inverse).

    Rows are added one at a time.  Each is reduced by the pivot rows so
    far, its `lead` column (least, or greatest for `max`) becomes a new
    pivot, and that column is cleared from the earlier pivot rows.  So each
    pivot row vanishes on every other pivot column, and its pivot entry is
    never changed once set.  `inverse(c)` gives 1/pivot of row c, computed
    on first need and kept.  A float pivot is refused when it is set, so
    no float is divided by, inexactly or not.
    """
    pivot_rows: dict[int, dict] = {}
    inverses: dict = {}

    def inverse(c):
        inv = inverses.get(c)
        if inv is None:
            inv = inverses[c] = _inv(pivot_rows[c][c])
        return inv

    for row in rows:
        v = _reduced(row, pivot_rows, inverse)
        if not v:
            continue
        p = lead(v)
        if isinstance(v[p], float):
            raise TypeError("no exact inverse of a float")
        pivot_rows[p] = v
        for q, r in pivot_rows.items():
            if p in r and q != p:
                _clear(r, p, v, inverse)
    return pivot_rows, inverse


def rref(rows: list[dict]) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form: (nonzero reduced rows, pivot columns).

    The reduced rows come in pivot order, one per pivot.  Each row of the
    kernel's echelon form is scaled here, and only when its pivot is not 1.
    """
    pivot_rows, inverse = _echelon(rows)
    pivots = sorted(pivot_rows)
    red = []
    for p in pivots:
        r = pivot_rows[p]
        if r[p] != 1:
            inv = inverse(p)
            r = {c: inv * x for c, x in r.items()}
        red.append(r)
    return red, pivots


def rank(rows: list[dict]) -> int:
    return len(_echelon(rows)[0])


def nullspace(rows: list[dict], ncols: int, one) -> list[dict]:
    """Basis of the right null space of the matrix, in reduced row echelon
    form; `one` is the scalar 1.

    The rows are eliminated with the columns reversed, so each pivot is the
    last column of its row and every other entry of the row lies in a free
    column before it.  The vector of free column f is then f plus pivot
    columns after f: it leads with 1 at f and vanishes on the other free
    columns, which makes the basis, in order of f, the null space's rref.
    """
    pivot_rows, inverse = _echelon(rows, max)
    basis = {f: {f: one} for f in range(ncols) if f not in pivot_rows}
    for p, r in pivot_rows.items():
        unit = r[p] == 1
        for f, x in r.items():
            if f != p:
                basis[f][p] = -x if unit else -(inverse(p) * x)
    return list(basis.values())


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
        # every pivot of an rref is 1, so no inverse is asked for
        return _reduced(vec, self._pivot_rows, None)

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def equals(self, rows: list[dict]) -> bool:
        """Whether `rows` span exactly this space: each lies in it, and
        their rank is its dimension."""
        return all(map(self.contains, rows)) and rank(rows) == self.dim
