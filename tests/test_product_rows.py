"""Product rows against the all-pairs product rules they replaced.

A `MonomialAlgebra` lists its nonzero products once, as rows
a -> {b: (scalar, key)}.  The references here are the rules the rows
replaced: a product callback asked for every ordered pair of basis keys,
and the multiplicativity check that asked it for every pair twice.
"""
import random
from collections import Counter
from fractions import Fraction

import pytest

from limitalg import crossed as C
from limitalg.algebra import MonomialAlgebra, multi_matrix_algebra
from limitalg.cyclotomic import Cyc

from test_ideal_masks import EXTRA, ref_prod

BENCH_BASES = [(3, 3), (2, 2, 2), (4,)]
TRIANGULAR = pytest.mark.parametrize("triangular", [True, False],
                                     ids=["tri", "full"])


def ref_matrix_prod(a, b):
    (s, i, j), (s2, k, l) = a, b
    if s == s2 and j == k:
        return (Fraction(1), (s, i, l))
    return None


def ref_rows(basis, prod) -> dict:
    rows = {a: {} for a in basis}
    for a in basis:
        for b in basis:
            r = prod(a, b)
            if r is not None:
                rows[a][b] = r
    return rows


def ref_verify(basis, prod, table):
    """The all-pairs check: its error message, or None if T is multiplicative."""
    for x in basis:
        for y in basis:
            r = prod(x, y)
            cx, x2 = table[x]
            cy, y2 = table[y]
            r2 = prod(x2, y2)
            if r is None:
                if r2 is not None:
                    return "automorphism created a product"
            else:
                s, k = r
                ck, k2 = table[k]
                if r2 is None or r2[1] != k2 or cx * cy * r2[0] != ck * s:
                    return "map is not multiplicative"
    return None


# ---------------------------------------------------------------------------
# the rows


@TRIANGULAR
@pytest.mark.parametrize("shape", [(1,), (2,), (3,), (2, 2), *BENCH_BASES])
def test_matrix_unit_rows_match_the_all_pairs_rule(shape, triangular):
    alg = multi_matrix_algebra(shape, triangular)
    assert alg.rows == ref_rows(alg.basis, ref_matrix_prod)


@TRIANGULAR
def test_crossed_rows_match_the_all_pairs_rule(family, triangular):
    for shape, group, action in [*family, *EXTRA.values()]:
        a = C.build_crossed(shape, group, action, triangular)
        assert a.alg.rows == ref_rows(a.alg.basis, ref_prod(a)), \
            (shape, group)


def test_bench_bases_are_covered():
    assert {shape for shape, _, _ in EXTRA.values()} >= set(BENCH_BASES)


def test_right_runs_at_most_once_per_key(monkeypatch):
    built = []  # (algebra, Counter of right() calls per key)
    init = MonomialAlgebra.__init__

    def counting_init(self, basis, right, one=Fraction(1)):
        calls = Counter()

        def counted(key):
            calls[key] += 1
            return right(key)

        init(self, basis, counted, one)
        built.append((self, calls))

    monkeypatch.setattr(MonomialAlgebra, "__init__", counting_init)
    for name in ("222-z2xz2-mixed", "33-z3-diag", "4-z2-diag"):
        shape, group, action = EXTRA[name]
        for triangular in (True, False):
            C.radical_tightness_check(shape, group, action, triangular)
            C.verify_lattice_iso(shape, group, action, triangular)
            a = C.build_crossed(shape, group, action, triangular)
            a.alg.gram()
            a.alg.gram()
            a.alg.power_of_span(a.radical(), 2)
            C.dual_action(a, C.Character(group, group.generator(0)))
    assert built
    assert [calls for _, calls in built if any(n > 1 for n in calls.values())] \
        == []


def test_diag_builds_no_crossed_rows(monkeypatch):
    # the left regular model multiplies nothing, and building the crossed
    # algebra runs no action check, so no algebra reads its rows
    built = []
    init = MonomialAlgebra.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(MonomialAlgebra, "__init__", recording_init)
    C.diag_check(*EXTRA["222-z2xz2-mixed"])
    with_rows = [alg.basis[0] for alg in built if "rows" in alg.__dict__]
    assert with_rows == []


# ---------------------------------------------------------------------------
# one multiplicativity check


def _mutants(table, rng, count):
    """(kind, table) pairs: one entry scaled, two keys swapped, one key
    sent onto another key's image."""
    keys = sorted(table)
    for _ in range(count):
        x, y = rng.sample(keys, 2)
        (cx, x2), (cy, y2) = table[x], table[y]
        yield "scaled", {**table, x: (cx + cx, x2)}
        yield "swapped", {**table, x: (cx, y2), y: (cy, x2)}
        yield "redirected", {**table, x: (cx, y2)}


def _cases():
    """(algebra, all-pairs product rule, a multiplicative table)."""
    for name in ("4-z2-diag", "222-z2-mixed", "33-z2-mixed"):
        shape, group, action = EXTRA[name]
        for triangular in (True, False):
            a = C.build_crossed(shape, group, action, triangular)
            yield a.alg, ref_prod(a), C.dual_action(
                a, C.Character(group, group.generator(0)))
        full = multi_matrix_algebra(shape, False)
        yield full, ref_matrix_prod, action.table(group.generator(0))
    # conjugation by diag(1, 2, 3): every scalar differs from 1 off the
    # diagonal
    t3 = multi_matrix_algebra((3,), True)
    yield t3, ref_matrix_prod, {(s, i, j): (Fraction(i, j), (s, i, j))
                                for s, i, j in t3.basis}


def _refutation(alg, table):
    try:
        C._verify_multiplicative(alg, table)
    except AssertionError as exc:
        return str(exc)
    return None


def _seeded_actions(count):
    """Seeded perm/diag actions: per generator, at most one swap of two
    equal-size summands and random zeta exponents; draws that break a
    generator's order or commutativity are skipped."""
    rng = random.Random(29)
    actions = []
    while len(actions) < count:
        shape = rng.choice(((2,), (3,), (2, 2), (1, 1, 2), (2, 2, 2)))
        group = C.FiniteAbelianGroup(rng.choice(((2,), (3,), (4,), (6,),
                                                 (2, 2))))
        pairs = [(s, t) for s in range(len(shape))
                 for t in range(s + 1, len(shape)) if shape[s] == shape[t]]
        gens = []
        for _ in group.orders:
            perm = list(range(len(shape)))
            if pairs and rng.random() < 0.5:
                s, t = rng.choice(pairs)
                perm[s], perm[t] = t, s
            gens.append((tuple(perm), tuple(
                tuple(rng.randrange(group.exponent) for _ in range(k))
                for k in shape)))
        try:
            actions.append((shape, group, C.LevelAction(group, shape, gens)))
        except C.ActionRelationError:
            continue
    return actions


def test_every_action_table_is_multiplicative_on_the_full_base(family):
    # why `build_crossed` checks nothing: the table of every group
    # element, not only of the generators, is multiplicative on the full
    # matrix units
    seeded = _seeded_actions(40)
    tables = [action.table(g) for _, group, action in seeded
              for g in group.elements()]
    # the seeded draws move summands and twist by non-real scalars
    assert any(k[0] != k2[0] for t in tables for k, (_, k2) in t.items())
    assert any(c.conjugate() != c for t in tables for c, _ in t.values())
    for shape, group, action in [*family, *EXTRA.values(), *seeded]:
        full = multi_matrix_algebra(shape, False, Cyc.one(group.exponent))
        for g in group.elements():
            assert _refutation(full, action.table(g)) is None, (shape, g)


def test_unmutated_tables_pass():
    for alg, prod, table in _cases():
        assert ref_verify(alg.basis, prod, table) is None
        assert _refutation(alg, table) is None


def test_mutated_tables_are_refuted_exactly_as_by_all_pairs():
    rng = random.Random(13)
    kinds = Counter()
    for alg, prod, table in _cases():
        for kind, mutant in _mutants(table, rng, 40):
            ref = ref_verify(alg.basis, prod, mutant)
            new = _refutation(alg, mutant)
            assert (ref is None) == (new is None), (kind, ref, new)
            kinds[kind, new] += 1
    # each kind of mutation was refuted somewhere, and each of the three
    # refutations was seen
    for kind in ("scaled", "swapped", "redirected"):
        assert any(k == kind and new for k, new in kinds), kind
    assert {new for _, new in kinds} - {None} == {
        "map created a product", "map lost a product",
        "map is not multiplicative"}
