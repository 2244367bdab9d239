"""Exact linear algebra sanity checks over int, Fraction and Cyc scalars.

`linalg` takes and returns sparse rows, dicts column -> nonzero scalar.
The cases are written as dense lists and converted at the call boundary,
so the dense Gauss-Jordan reference below reads the same matrices.
"""
import random
from fractions import Fraction

import pytest

from limitalg import linalg
from limitalg.cyclotomic import Cyc


def frac_rows(rows):
    return [[Fraction(x) for x in r] for r in rows]


def sparse(rows):
    """Dense rows as sparse rows: every zero entry dropped."""
    return [{c: x for c, x in enumerate(r) if x} for r in rows]


def dense(row, ncols, zero):
    return [row.get(c, zero) for c in range(ncols)]


def test_rref_and_rank():
    rows = sparse(frac_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]]))
    red, pivots = linalg.rref(rows)
    assert pivots == [0, 1]
    assert linalg.rank(rows) == 2
    # no float pivot is inverted inexactly
    with pytest.raises(TypeError, match="float"):
        linalg.rref([{0: 0.5, 1: 1}])


def test_nullspace_is_annihilated():
    rng = random.Random(7)
    for _ in range(20):
        rows = sparse(frac_rows([[rng.randint(-3, 3) for _ in range(5)]
                                 for _ in range(3)]))
        null = linalg.nullspace(rows, 5, Fraction(1))
        assert linalg.rank(rows) + len(null) == 5
        for v in null:
            for r in rows:
                assert sum(x * r.get(c, 0) for c, x in v.items()) == 0


def in_row_space(rows, vec):
    return linalg.rank(rows + [vec]) == linalg.rank(rows)


def test_span_membership_and_equality():
    rows = sparse(frac_rows([[1, 0, 1], [0, 1, 1]]))
    span = linalg.Span(rows)
    for vec, inside in (([2, 3, 5], True), ([1, 0, 0], False)):
        [vec] = sparse(frac_rows([vec]))
        assert span.contains(vec) is inside
        assert in_row_space(rows, vec) is inside
    assert linalg.same_span(rows, sparse(frac_rows([[1, 1, 2], [1, -1, 0]])))
    assert not linalg.same_span(rows, sparse(frac_rows([[1, 0, 1]])))


def test_span_checker_matches_row_space_contains():
    rng = random.Random(11)
    rows = sparse(frac_rows([[rng.randint(-2, 2) for _ in range(6)]
                             for _ in range(3)]))
    span = linalg.Span(rows)
    assert span.dim == linalg.rank(rows)
    for _ in range(30):
        [v] = sparse(frac_rows([[rng.randint(-2, 2) for _ in range(6)]]))
        assert span.contains(v) == in_row_space(rows, v)


def test_cyclotomic_scalars():
    m = 4
    i = Cyc.zeta(m)
    one = Cyc.one(m)
    zero = Cyc.zero(m)
    rows = sparse([[one, i], [i, -one]])  # second row = i * first row
    assert linalg.rank(rows) == 1
    null = linalg.nullspace(rows, 2, one)
    assert len(null) == 1
    a, b = dense(null[0], 2, zero)
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
        inv = Fraction(1) / rows[r][c]  # exact for an int pivot too
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


def int_scalar(rng):
    return rng.randint(-3, 3)


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


SCALARS = [("int", int_scalar, 0, 1),
           ("fraction", fraction_scalar, Fraction(0), Fraction(1))] + [
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
    for dense_rows in cases:
        ncols = len(dense_rows[0])
        rows = sparse(dense_rows)
        red, pivots = linalg.rref(rows)
        ref_red, ref_pivots = dense_rref(dense_rows)
        assert pivots == ref_pivots
        # the reference's nonzero rows, and no zero stored
        assert [dense(r, ncols, zero) for r in red] == ref_red[:len(pivots)]
        assert not any(x for r in ref_red[len(pivots):] for x in r)
        assert all(x for r in red for x in r.values())
        null = linalg.nullspace(rows, ncols, one)
        assert linalg.rank(rows) + len(null) == ncols
        assert all(x for v in null for x in v.values())
        for v in null:
            for r in dense_rows:
                assert sum((r[c] * x for c, x in v.items()), zero) == zero
        span = linalg.Span(rows)
        probes = dense_rows[:2] + random_sparse(rng, 3, ncols, 0.4, scalar,
                                                zero)
        probes.append([x + y for x, y in zip(dense_rows[0], dense_rows[-1])])
        for v in sparse(probes):
            assert span.contains(v) == in_row_space(rows, v)


@pytest.mark.parametrize("name,scalar,zero,one", SCALARS,
                         ids=[s[0] for s in SCALARS])
def test_inputs_are_left_unchanged(name, scalar, zero, one):
    # callers pass the same row dicts to several calls (crossed._diag_dims)
    rng = random.Random(f"inputs-{name}")
    rows = [r for r in sparse(random_sparse(rng, 6, 8, 0.5, scalar, zero))
            if r]
    rows += [dict(rows[0]), {}]  # the copy reduces to zero against rows[0]
    [probe] = sparse([[x + y for x, y in zip(dense(rows[0], 8, zero),
                                             dense(rows[1], 8, zero))]])
    snapshot = [dict(r) for r in rows + [probe]]
    linalg.rref(rows)
    linalg.rank(rows)
    linalg.nullspace(rows, 8, one)
    assert linalg.same_span(rows, rows[::-1])
    assert linalg.Span(rows).contains(probe)
    assert [dict(r) for r in rows + [probe]] == snapshot


@pytest.mark.parametrize("one", [s[3] for s in SCALARS],
                         ids=[s[0] for s in SCALARS])
def test_empty_and_zero_rows(one):
    identity = [{c: one} for c in range(3)]
    for rows in ([], [{}], [{}, {}, {}]):
        assert linalg.rref(rows) == ([], [])
        assert linalg.rank(rows) == 0
        assert linalg.nullspace(rows, 3, one) == identity
        assert linalg.nullspace(rows, 0, one) == []
        assert linalg.same_span(rows, [])
        assert not linalg.same_span(rows, [{1: one}])
        span = linalg.Span(rows)
        assert span.dim == 0 and span.pivots == []
        assert span.contains({})
        assert not span.contains({2: one})


def combinations(rng, rows, n, scalar, zero):
    """n random combinations of the sparse `rows` (all zero when empty)."""
    out = []
    for _ in range(n):
        v: dict = {}
        for r in rows:
            f = scalar(rng)
            for c, x in r.items():
                v[c] = v.get(c, zero) + f * x
        out.append({c: x for c, x in v.items() if x})
    return out


@pytest.mark.parametrize("name,scalar,zero",
                         [(s[0], s[1], s[2]) for s in SCALARS
                          if s[0] in ("fraction", "cyc3")])
def test_same_span_matches_the_rank_formula(name, scalar, zero):
    # span(a) = span(b) iff rank a = rank b = rank(a + b)
    rng = random.Random(f"same-span-{name}")
    cases = [([], []), ([], [{}]), ([{}, {}], [])]
    for nrows, ncols in SHAPES:
        for density in (0.2, 0.6):
            a = sparse(random_sparse(rng, nrows, ncols, density, scalar, zero))
            extra = sparse(random_sparse(rng, 1, ncols, density, scalar, zero))
            cases += [(a, a[::-1] + [{}]),
                      (a, combinations(rng, a, nrows, scalar, zero)),
                      (a, combinations(rng, a, nrows + 2, scalar, zero)),
                      (a, a[1:]), (a, a + extra), (a, []), ([], a)]
    verdicts = set()
    for a, b in cases:
        formula = linalg.rank(a) == linalg.rank(b) == linalg.rank(a + b)
        assert linalg.same_span(a, b) == formula, (a, b)
        verdicts.add(formula)
    assert verdicts == {True, False}


@pytest.mark.parametrize("name,scalar,zero,one", SCALARS,
                         ids=[s[0] for s in SCALARS])
def test_span_reduce_is_the_projection_along_the_span(name, scalar, zero,
                                                      one):
    rng = random.Random(f"reduce-{name}")
    rows = sparse(random_sparse(rng, 5, 8, 0.4, scalar, zero))
    span = linalg.Span(rows)
    for v in sparse(random_sparse(rng, 6, 8, 0.5, scalar, zero)):
        red = span.reduce(v)
        assert not set(red) & set(span.pivots)
        assert all(x for x in red.values())
        assert (red == {}) == span.contains(v)
        # v - red lies in the span, and red adds what v adds to it
        diff = {c: x for c in set(v) | set(red)
                if (x := v.get(c, zero) - red.get(c, zero))}
        assert span.contains(diff)
        assert linalg.rank(rows + [v]) == span.dim + linalg.rank([red])


# -- the echelon kernel: pivots scaled only where needed ---------------------


def random_monomial(rng, nrows, ncols, scalar, one):
    """Dense rows with at most one nonzero per row and per column, the
    shape of a crossed product's Gram matrix; about a third of the
    nonzeros are 1."""
    cols = rng.sample(range(ncols), min(nrows, ncols))
    rows = []
    for r in range(nrows):
        row = [one - one] * ncols
        if r < len(cols) and rng.random() < 0.8:
            x = one if rng.random() < 0.3 else scalar(rng)
            row[cols[r]] = x if x else one
        rows.append(row)
    rng.shuffle(rows)
    return rows


def unit_pivot_rows(rng, nrows, ncols, scalar, one):
    """Dense rows that each lead with 1, so that their pivots need no
    scaling, with random entries after it."""
    rows = []
    for _ in range(nrows):
        lead = rng.randrange(ncols)
        rows.append([one - one] * lead + [one]
                    + [scalar(rng) for _ in range(ncols - lead - 1)])
    return rows


def kernel_cases(name, scalar, zero, one):
    rng = random.Random(f"kernel-{name}")
    cases = []
    for nrows, ncols in SHAPES:
        for density in (0.1, 0.3, 0.7):
            cases.append(random_sparse(rng, nrows, ncols, density, scalar, zero))
        cases.append(random_monomial(rng, nrows, ncols, scalar, one))
        cases.append(unit_pivot_rows(rng, nrows, ncols, scalar, one))
    return cases


@pytest.mark.parametrize("name,scalar,zero,one", SCALARS,
                         ids=[s[0] for s in SCALARS])
def test_the_kernel_gives_reduced_null_bases_and_dense_ranks(name, scalar,
                                                             zero, one):
    monomial = 0
    for dense_rows in kernel_cases(name, scalar, zero, one):
        ncols = len(dense_rows[0])
        rows = sparse(dense_rows)
        monomial += all(len(r) <= 1 for r in rows)
        assert linalg.rank(rows) == len(dense_rref(dense_rows)[1])
        null = linalg.nullspace(rows, ncols, one)
        # already its own rref: the leading 1 of each vector is a column
        # no other vector holds, in increasing order
        assert linalg.rref(null)[0] == null
        assert len(null) + linalg.rank(rows) == ncols
        for v in null:
            for r in dense_rows:
                assert sum((r[c] * x for c, x in v.items()), zero) == zero
    assert monomial >= len(SHAPES)


@pytest.mark.parametrize("name,scalar,zero,one", SCALARS,
                         ids=[s[0] for s in SCALARS])
def test_no_output_row_is_an_input_row(name, scalar, zero, one):
    # a row whose pivot is already 1 comes back unscaled; it must still be
    # a copy, so that changing an output changes no input
    for dense_rows in kernel_cases(name, scalar, zero, one):
        ncols = len(dense_rows[0])
        rows = sparse(dense_rows)
        snapshot = [dict(r) for r in rows]
        red, _ = linalg.rref(rows)
        null = linalg.nullspace(rows, ncols, one)
        nested = linalg.nullspace(null, ncols, one)
        null_snapshot = [dict(v) for v in null]
        for out in red + nested:
            for c in list(out):
                out[c] = scalar(random.Random(c)) or one
            out[ncols] = one
        assert [dict(r) for r in rows] == snapshot
        assert [dict(v) for v in null] == null_snapshot
        for out in null:
            out.clear()
        assert [dict(r) for r in rows] == snapshot
