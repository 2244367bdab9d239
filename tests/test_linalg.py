"""Exact linear algebra sanity checks over Fraction and Cyc scalars."""
import random
from fractions import Fraction

import pytest

from limitalg import linalg
from limitalg.cyclotomic import Cyc


def frac_rows(rows):
    return [[Fraction(x) for x in r] for r in rows]


def test_rref_and_rank():
    rows = frac_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    red, pivots = linalg.rref(rows)
    assert pivots == [0, 1]
    assert linalg.rank(rows) == 2


def test_nullspace_is_annihilated():
    rng = random.Random(7)
    for _ in range(20):
        rows = frac_rows([[rng.randint(-3, 3) for _ in range(5)]
                          for _ in range(3)])
        null = linalg.nullspace(rows, 5, Fraction(1))
        assert linalg.rank(rows) + len(null) == 5
        for v in null:
            for r in rows:
                assert sum(a * b for a, b in zip(r, v)) == 0


def in_row_space(rows, vec):
    return linalg.rank(rows + [list(vec)]) == linalg.rank(rows)


def test_span_membership_and_equality():
    rows = frac_rows([[1, 0, 1], [0, 1, 1]])
    span = linalg.Span(rows)
    for vec, inside in (([2, 3, 5], True), ([1, 0, 0], False)):
        vec = frac_rows([vec])[0]
        assert span.contains(vec) is inside
        assert in_row_space(rows, vec) is inside
    assert linalg.same_span(rows, frac_rows([[1, 1, 2], [1, -1, 0]]))
    assert not linalg.same_span(rows, frac_rows([[1, 0, 1]]))


def test_span_checker_matches_row_space_contains():
    rng = random.Random(11)
    rows = frac_rows([[rng.randint(-2, 2) for _ in range(6)]
                      for _ in range(3)])
    span = linalg.Span(rows)
    assert span.dim == linalg.rank(rows)
    for _ in range(30):
        v = [Fraction(rng.randint(-2, 2)) for _ in range(6)]
        assert span.contains(v) == in_row_space(rows, v)


def test_cyclotomic_scalars():
    m = 4
    i = Cyc.zeta(m)
    one = Cyc.one(m)
    zero = Cyc.zero(m)
    rows = [[one, i], [i, -one]]  # second row = i * first row
    assert linalg.rank(rows) == 1
    null = linalg.nullspace(rows, 2, one)
    assert len(null) == 1
    a, b = null[0]
    assert one * a + i * b == zero


# -- sparse elimination against the dense Gauss-Jordan it replaced -----------


def dense_rref(rows):
    """Column-by-column Gauss-Jordan on dense rows (reference)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def fraction_scalar(rng):
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def cyc_scalar(m):
    def draw(rng):
        return (Cyc.zeta(m, rng.randrange(m)) * rng.choice((-2, -1, 1, 3))
                + rng.randint(-1, 1))
    return draw


def random_sparse(rng, nrows, ncols, density, scalar, zero):
    rows = [[scalar(rng) if rng.random() < density else zero
             for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 2:
        rows[rng.randrange(nrows)] = [zero] * ncols
        rows[rng.randrange(nrows)] = list(rows[rng.randrange(nrows)])
    return rows


SCALARS = [("fraction", fraction_scalar, Fraction(0), Fraction(1))] + [
    (f"cyc{m}", cyc_scalar(m), Cyc.zero(m), Cyc.one(m)) for m in (3, 4, 8)]
SHAPES = [(1, 1), (1, 7), (7, 1), (3, 9), (9, 3), (6, 6), (8, 14), (14, 6)]


@pytest.mark.parametrize("name,scalar,zero,one", SCALARS,
                         ids=[s[0] for s in SCALARS])
def test_sparse_rref_matches_dense_reference(name, scalar, zero, one):
    rng = random.Random(f"rref-{name}")
    cases = [[[zero] * 5 for _ in range(4)]]
    for nrows, ncols in SHAPES:
        for density in (0.1, 0.3, 0.7):
            cases.append(random_sparse(rng, nrows, ncols, density, scalar, zero))
    for rows in cases:
        ncols = len(rows[0])
        red, pivots = linalg.rref(rows)
        ref_red, ref_pivots = dense_rref(rows)
        assert pivots == ref_pivots
        assert red == ref_red
        assert len(red) == len(rows)
        null = linalg.nullspace(rows, ncols, one)
        assert linalg.rank(rows) + len(null) == ncols
        for v in null:
            for r in rows:
                assert sum((a * b for a, b in zip(r, v)), zero) == zero
        span = linalg.Span(rows)
        probes = rows[:2] + random_sparse(rng, 3, ncols, 0.4, scalar, zero)
        probes.append([x + y for x, y in zip(rows[0], rows[-1])])
        for v in probes:
            assert span.contains(v) == in_row_space(rows, v)
