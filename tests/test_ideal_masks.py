"""Bitmask ideal lattices against the frozenset construction they replaced.

`crossed` closes, unions and compares ideals as integer masks over an
indexed basis.  The reference below is the set-of-keys construction:
each closure walks keys, each union is a frozenset, and the lattice
check rebuilds J x G as a set of (unit, g) pairs.  Both must give the
same ideals in the same order and the same lattice report.
"""
import random

import pytest

from limitalg import crossed as C
from limitalg.algebra import MonomialAlgebra, multi_matrix_units

Z2 = C.FiniteAbelianGroup((2,))
Z3 = C.FiniteAbelianGroup((3,))
Z2xZ2 = C.FiniteAbelianGroup((2, 2))
TRIVIAL = C.FiniteAbelianGroup(())


# ---------------------------------------------------------------------------
# the frozenset reference


def ref_hull(shape, triangular, key):
    s, i, j = key
    k = shape[s]
    return {(s, a, b) for a in range(1, k + 1) for b in range(1, k + 1)
            if not triangular or (a <= i and b >= j and a <= b)}


def ref_closure(seed, neighbours):
    out = {seed}
    todo = [seed]
    while todo:
        for y in neighbours(todo.pop()):
            if y not in out:
                out.add(y)
                todo.append(y)
    return frozenset(out)


def ref_union_lattice(principal):
    ideals = {frozenset()}
    frontier = {frozenset()}
    values = set(principal)
    while frontier:
        nxt = set()
        for ideal in frontier:
            for p in values:
                u = ideal | p
                if u not in ideals:
                    ideals.add(u)
                    nxt.add(u)
        frontier = nxt
    return sorted(ideals, key=lambda f: (len(f), sorted(f)))


def ref_invariant_ideals(shape, action, triangular):
    gens = [action.group.generator(i) for i in range(len(action.group.orders))]

    def neighbours(key):
        return [*ref_hull(shape, triangular, key),
                *(action.table(g)[key][1] for g in gens)]

    return ref_union_lattice(
        [ref_closure(u, neighbours)
         for u in multi_matrix_units(tuple(shape), triangular)])


def ref_prod(a):
    """The crossed product of `a` as one rule on a pair of basis keys:
    (scalar, key), or None for a zero product."""
    def prod(x, y):
        (s, i, j), g = x
        f, h = y
        c, (s2, k, l) = a.action.table(g)[f]
        if s == s2 and j == k and (not a.triangular or i <= l):
            return (c, ((s, i, l), a.group.op(g, h)))
        return None

    return prod


def ref_dual_ideals(a):
    basis, prod = a.alg.basis, ref_prod(a)

    def neighbours(x):
        return [p[1] for b in basis for p in (prod(b, x), prod(x, b))
                if p is not None]

    return ref_union_lattice([ref_closure(k, neighbours) for k in basis])


def ref_lattice_iso(base_lattice, crossed_lattice, group):
    gs = group.elements()
    images = {}

    def phi(ideal):
        if ideal not in images:
            images[ideal] = frozenset((u, g) for u in ideal for g in gs)
        return images[ideal]

    image = [phi(j) for j in base_lattice]
    bijection = (len(set(image)) == len(base_lattice)
                 and set(image) == set(crossed_lattice))
    preserves = all(
        phi(j1 & j2) == phi(j1) & phi(j2) and phi(j1 | j2) == phi(j1) | phi(j2)
        for j1 in base_lattice for j2 in base_lattice)
    return {"base_count": len(base_lattice),
            "crossed_count": len(crossed_lattice),
            "bijection": bijection, "preserves_lattice_ops": preserves,
            "ok": bijection and preserves}


# ---------------------------------------------------------------------------
# systems: larger bases, every group, both base kinds, every action kind


def _system(shape, group, gens):
    return shape, group, C.LevelAction(group, shape, gens)


def _ident(shape):
    return tuple(range(len(shape)))


def _zeros(shape):
    return tuple((0,) * k for k in shape)


EXTRA = {
    # diag: zeta-power conjugations; the last is the 196-ideal lattice
    "33-z2xz2-diag": _system((3, 3), Z2xZ2, [
        ((0, 1), ((0, 1, 1), (0, 0, 1))), ((0, 1), ((0, 0, 1), (0, 1, 1)))]),
    "33-z3-diag": _system((3, 3), Z3, [((0, 1), ((0, 1, 2), (0, 0, 1)))]),
    "33-trivial": _system((3, 3), TRIVIAL, []),
    "4-z2-diag": _system((4,), Z2, [((0,), ((0, 1, 0, 1),))]),
    "4-z3-diag": _system((4,), Z3, [((0,), ((0, 1, 2, 0),))]),
    "4-trivial": _system((4,), TRIVIAL, []),
    # perm: summand permutations
    "222-z2-perm": _system((2, 2, 2), Z2, [((1, 0, 2), _zeros((2, 2, 2)))]),
    "222-z3-perm": _system((2, 2, 2), Z3, [((1, 2, 0), _zeros((2, 2, 2)))]),
    "33-z2-perm": _system((3, 3), Z2, [((1, 0), _zeros((3, 3)))]),
    # mixed: a permutation and a twist, in one generator or across two
    "222-z2xz2-mixed": _system((2, 2, 2), Z2xZ2, [
        ((1, 0, 2), _zeros((2, 2, 2))),
        (_ident((2, 2, 2)), ((0, 1), (0, 1), (0, 0)))]),
    "222-z2-mixed": _system((2, 2, 2), Z2,
                            [((1, 0, 2), ((0, 1), (0, 1), (0, 1)))]),
    "33-z2-mixed": _system((3, 3), Z2, [((1, 0), ((0, 1, 0), (0, 1, 0)))]),
}
FULL = ["33-z2-perm", "33-z3-diag", "4-z2-diag", "222-z2xz2-mixed",
        "222-z2-mixed", "33-trivial"]
CASES = [(name, True) for name in EXTRA] + [(name, False) for name in FULL]


def _check(shape, group, action, triangular):
    base = ref_invariant_ideals(shape, action, triangular)
    assert C.enumerate_invariant_ideals(shape, action, triangular) == base
    a = C.build_crossed(shape, group, action, triangular)
    dual = ref_dual_ideals(a)
    assert C.enumerate_dual_invariant_ideals(a) == dual
    assert C.verify_lattice_iso(shape, group, action, triangular) == \
        ref_lattice_iso(base, dual, group)


@pytest.mark.parametrize(
    "name,triangular", CASES,
    ids=[f"{n}-{'tri' if t else 'full'}" for n, t in CASES])
def test_masks_match_the_frozenset_reference(name, triangular):
    _check(*EXTRA[name], triangular)


@pytest.mark.parametrize("triangular", [True, False], ids=["tri", "full"])
def test_family_matches_the_frozenset_reference(family, triangular):
    for shape, group, action in family:
        _check(shape, group, action, triangular)


def test_the_heavy_lattice_has_196_ideals():
    rep = C.verify_lattice_iso(*EXTRA["33-z2xz2-diag"])
    assert rep == {"base_count": 196, "crossed_count": 196, "bijection": True,
                   "preserves_lattice_ops": True, "ok": True}


def test_masks_follow_the_index_not_the_basis_order(monkeypatch):
    # the same crossed algebra with its basis listed back to front
    build = C.build_crossed

    def reversed_build(*args, **kwargs):
        a = build(*args, **kwargs)
        a.alg = MonomialAlgebra(a.alg.basis[::-1], a.alg.right, a.alg.one)
        return a

    monkeypatch.setattr(C, "build_crossed", reversed_build)
    for name in ("222-z2xz2-mixed", "33-z2-mixed", "4-z2-diag"):
        shape, group, action = EXTRA[name]
        a = C.build_crossed(shape, group, action)
        assert a.alg.basis == build(shape, group, action).alg.basis[::-1]
        dual = ref_dual_ideals(a)
        assert C.enumerate_dual_invariant_ideals(a) == dual
        assert C.verify_lattice_iso(shape, group, action) == ref_lattice_iso(
            ref_invariant_ideals(shape, action, True), dual, group)


def test_closure_and_unions_on_random_graphs():
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randrange(1, 12)
        edges = [rng.sample(range(n), rng.randrange(0, min(n, 3) + 1))
                 for _ in range(n)]
        neighbours = [C._mask(e) for e in edges]
        keys = list(range(n))
        for seed in range(n):
            ref = ref_closure(seed, lambda x: edges[x])
            assert C._decode([C._closure(1 << seed, neighbours)], keys) == [ref]
        picks = rng.sample(range(n), rng.randrange(0, n + 1))
        principal = [C._closure(1 << p, neighbours) for p in picks]
        assert C._decode(C._union_lattice(principal), keys) == \
            ref_union_lattice([ref_closure(p, lambda x: edges[x])
                               for p in picks])


def _dropped_products(family):
    """The crossed rows of an EXTRA system without one product, for a
    seeded sample of the products.  The first drop, of
    (e_11 U_1)(e_11 U_1) = e_11 U_0, leaves the closures of e_11 U_0 and
    e_11 U_1 unequal: only a check of every g sees it."""
    rng = random.Random(16)
    build = C.build_crossed
    e11 = (0, 1, 1)
    picks = [("4-z2-diag", True, ((e11, (1,)), (e11, (1,))))]
    for name, triangular in CASES:
        shape, group, action = EXTRA[name]
        products = [(x, y) for x, row in
                    build(shape, group, action, triangular).alg.rows.items()
                    for y in row]
        picks += [(name, triangular, xy)
                  for xy in rng.sample(products, min(4, len(products)))]
    for name, triangular, (x, y) in picks:
        def dropped(*args, x=x, y=y, **kwargs):
            a = build(*args, **kwargs)
            rows = {k: dict(row) for k, row in a.alg.rows.items()}
            del rows[x][y]
            a.alg.rows = rows
            return a

        yield (*EXTRA[name], triangular, "build_crossed", dropped)


def _other_actions(family):
    """The crossed algebra built with the next family action of the same
    (base, group) cell, while the base keeps its own action."""
    build = C.build_crossed
    for (shape, group, action), (shape2, group2, other) in zip(family,
                                                               family[1:]):
        if (shape, group) != (shape2, group2):
            continue
        for triangular in (True, False):
            def swapped(shape, group, action, triangular=True, other=other):
                return build(shape, group, other, triangular)

            yield shape, group, action, triangular, "build_crossed", swapped


def _ignored_generators(family):
    """The base closure without its first generator's images (the crossed
    closure has no maps, so only the base side changes)."""
    principal = C._principal_closures

    def ignoring(alg, maps):
        return principal(alg, maps[1:])

    systems = family + [EXTRA[name] for name in EXTRA]
    for shape, group, action in systems:
        if group.orders:
            for triangular in (True, False):
                yield (shape, group, action, triangular,
                       "_principal_closures", ignoring)


MUTANTS = {"dropped-product": _dropped_products,
           "other-action": _other_actions,
           "base-ignores-a-generator": _ignored_generators}


@pytest.mark.parametrize("kind", sorted(MUTANTS))
def test_a_broken_closure_is_refuted_like_the_reference(monkeypatch, family,
                                                        kind):
    # the report reads principal closures only; on each mutant it must
    # still say what the full enumerations of that mutant say
    refuted = 0
    for shape, group, action, triangular, name, patched in MUTANTS[kind](
            family):
        with monkeypatch.context() as m:
            m.setattr(C, name, patched)
            rep = C.verify_lattice_iso(shape, group, action, triangular)
            base = C.enumerate_invariant_ideals(shape, action, triangular)
            dual = C.enumerate_dual_invariant_ideals(
                C.build_crossed(shape, group, action, triangular))
        assert rep == ref_lattice_iso(base, dual, group), (shape, group)
        refuted += not rep["bijection"]
    assert refuted


def test_overlapping_blocks_do_not_preserve_lattice_ops(monkeypatch):
    # a phi that sends two base units onto one crossed element
    build = C.build_crossed

    def merged(*args, **kwargs):
        a = build(*args, **kwargs)
        first, second = a.alg.basis[:2]
        a.alg.index = {**a.alg.index, second: a.alg.index[first]}
        return a

    monkeypatch.setattr(C, "build_crossed", merged)
    rep = C.verify_lattice_iso((3,), TRIVIAL, C.trivial_action(TRIVIAL, (3,)))
    assert not rep["preserves_lattice_ops"] and not rep["bijection"]
    assert not rep["ok"]
