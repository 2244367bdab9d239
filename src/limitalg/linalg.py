"""Exact Gaussian elimination over Fraction or Cyc scalars.

Elimination runs on sparse rows, dicts column -> nonzero scalar: a row
update touches only the nonzero entries of the pivot row, and a zero is
never stored.  Rows are dense lists at the public boundary.
"""
from __future__ import annotations

from fractions import Fraction


def _inv(x):
    if isinstance(x, Fraction):
        return Fraction(1) / x
    return x.inverse()


def _to_sparse(rows: list[list]) -> list[dict]:
    """Dense rows as {col: nonzero value} dicts.

    Dense rows are mostly one shared zero object, so a cell that is that
    object is skipped without a truth test (which is slow for Cyc).
    """
    zero = next((x for row in rows for x in row if not x), None)
    return [{c: x for c, x in enumerate(row) if x is not zero and x}
            for row in rows]


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


def _reduce(v: dict, pivot_rows: dict) -> None:
    """Clear every pivot column of v; pivot rows vanish on each other's pivots."""
    for c in [c for c in v if c in pivot_rows]:
        _sub_scaled(v, v[c], pivot_rows[c])


def rref(rows: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    Rows are added one at a time.  Each is reduced by the pivot rows so
    far, its leading column becomes a new pivot, and that column is
    cleared from the earlier pivot rows, so the pivot rows always form the
    reduced echelon form of the rows seen.  Zero rows come last.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivot_rows: dict[int, dict] = {}
    for v in _to_sparse(rows):
        _reduce(v, pivot_rows)
        if not v:
            continue
        p = min(v)
        inv = _inv(v[p])
        v = {c: inv * x for c, x in v.items()}
        for r in pivot_rows.values():
            if p in r:
                _sub_scaled(r, r[p], v)
        pivot_rows[p] = v
    if not pivot_rows:
        return [list(r) for r in rows], []
    pivots = sorted(pivot_rows)
    one = pivot_rows[pivots[0]][pivots[0]]
    zero = one - one
    out = []
    for p in pivots:
        dense = [zero] * ncols
        for c, x in pivot_rows[p].items():
            dense[c] = x
        out.append(dense)
    out.extend([zero] * ncols for _ in range(len(rows) - len(pivots)))
    return out, pivots


def rank(rows: list[list]) -> int:
    return len(rref(rows)[1])


def nullspace(rows: list[list], ncols: int, one) -> list[list]:
    """Basis of the right null space of the matrix; `one` is the scalar 1."""
    if not rows:
        return [[one if i == j else one - one for j in range(ncols)]
                for i in range(ncols)]
    red, pivots = rref(rows)
    zero = one - one
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [zero] * ncols
        vec[f] = one
        for r, p in enumerate(pivots):
            vec[p] = -red[r][f]
        basis.append(vec)
    return basis


def same_span(rows_a: list[list], rows_b: list[list]) -> bool:
    ra, rb = rank(rows_a), rank(rows_b)
    if ra != rb:
        return False
    return rank(rows_a + rows_b) == ra


class Span:
    """A row space with its rref cached, for repeated membership queries."""

    def __init__(self, rows: list[list]):
        red, pivots = rref(rows)
        self.pivots = pivots
        self._pivot_rows = dict(zip(pivots, _to_sparse(red[:len(pivots)])))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def contains(self, vec: list) -> bool:
        [v] = _to_sparse([vec])
        _reduce(v, self._pivot_rows)
        return not v
