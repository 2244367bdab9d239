"""Crossed products by finite abelian groups over exact cyclotomic scalars."""
import random

import pytest

from limitalg import linalg
from limitalg.algebra import multi_matrix_algebra, multi_matrix_units
from limitalg.crossed import (ActionRelationError, Character, CrossedAlgebra,
                              FiniteAbelianGroup, LevelAction, all_characters,
                              apply_table, build_crossed,
                              corollary_formula_check, diag_action, diag_check,
                              dual_action, enumerate_dual_invariant_ideals,
                              enumerate_invariant_ideals, links_lemma_check,
                              perm_action, radical_nilpotency_check,
                              radical_tightness_check,
                              semisimplicity_permanence_check, trivial_action,
                              verify_lattice_iso, _adjoint, _diag_dims,
                              _mats_to_rows, _model_matrices,
                              _verify_multiplicative)
from limitalg.cyclotomic import Cyc
from conftest import BASES, candidate_gens, family_gens

Z2 = FiniteAbelianGroup((2,))
TRIVIAL = FiniteAbelianGroup(())


def t2_flip():
    """T_2 with Z_2 acting by conjugation by diag(1, -1)."""
    return diag_action(Z2, (2,), [((0, 1),)])


class TestGroupsAndCharacters:
    def test_group_laws(self):
        g = FiniteAbelianGroup((2, 3))
        assert g.size == 6 and g.exponent == 6
        els = g.elements()
        assert len(els) == 6 and g.identity == (0, 0)
        for a in els:
            assert g.op(a, g.inverse(a)) == g.identity
        assert g.op((1, 2), (1, 2)) == (0, 1)
        assert g.generator(1) == (0, 1)

    def test_characters_are_multiplicative(self):
        g = FiniteAbelianGroup((2, 3))
        chars = all_characters(g)
        assert len(chars) == 6
        for gamma in chars:
            for a in g.elements():
                for b in g.elements():
                    assert gamma.value(g.op(a, b)) == \
                        gamma.value(a) * gamma.value(b)

    def test_character_composition(self):
        g = FiniteAbelianGroup((2, 3))
        c1, c2 = Character(g, (1, 0)), Character(g, (1, 2))
        comp = c1.compose(c2)
        for a in g.elements():
            assert comp.value(a) == c1.value(a) * c2.value(a)


class TestLevelActions:
    def test_diagonal_twist_coefficients(self):
        act = t2_flip()
        table = act.table((1,))
        c, key = table[(0, 1, 2)]
        assert key == (0, 1, 2) and c == -Cyc.one(2)
        assert table[(0, 1, 1)][0] == Cyc.one(2)
        assert table[(0, 2, 1)][0] == -Cyc.one(2)

    def test_order_violation_is_rejected(self):
        with pytest.raises(ActionRelationError):
            perm_action(Z2, (1, 1, 1), [(1, 2, 0)])  # 3-cycle has order 3

    def test_noncommuting_generators_are_rejected(self):
        g = FiniteAbelianGroup((2, 2))
        with pytest.raises(ActionRelationError):
            perm_action(g, (1, 1, 1), [(1, 0, 2), (0, 2, 1)])

    def test_unequal_permuted_summands_are_rejected(self):
        with pytest.raises(ActionRelationError, match="equal sizes"):
            perm_action(Z2, (1, 2), [(1, 0)])

    def test_malformed_generators_are_rejected(self):
        with pytest.raises(ActionRelationError, match="not a permutation"):
            perm_action(Z2, (1, 1), [(0, 0)])
        with pytest.raises(ActionRelationError, match="generators"):
            LevelAction(Z2, (2,), [])
        with pytest.raises(ValueError, match="at least 1"):
            FiniteAbelianGroup((2, 0))

    @pytest.mark.parametrize("shape", [(0,), (2, 0), (-1, 2)])
    def test_empty_blocks_are_rejected(self, shape):
        with pytest.raises(ValueError, match="block sizes must be at least 1"):
            trivial_action(TRIVIAL, shape)


class TestCrossedAlgebra:
    def test_mismatched_inputs_are_value_errors(self):
        with pytest.raises(ValueError, match="different groups"):
            Character(Z2, (1,)).compose(Character(TRIVIAL, ()))
        with pytest.raises(ValueError, match="base shape and group"):
            CrossedAlgebra((3,), Z2, t2_flip())
        with pytest.raises(ValueError, match="base shape and group"):
            CrossedAlgebra((2,), TRIVIAL, t2_flip())

    def test_a_non_multiplicative_map_is_refuted(self):
        a = build_crossed((2,), Z2, t2_flip())
        table = {k: (Cyc.one(2), k) for k in a.alg.basis}
        key = ((0, 1, 1), (0,))
        table[key] = (-Cyc.one(2), key)
        with pytest.raises(AssertionError, match="not multiplicative"):
            _verify_multiplicative(a.alg, table)

    def test_dimension_count(self):
        a = build_crossed((2,), Z2, t2_flip())
        assert a.dim == 3 * 2
        full = build_crossed((2,), Z2, t2_flip(), triangular=False)
        assert full.dim == 4 * 2

    def test_covariance_relation(self):
        # U_g e_11 U_g = alpha_g(e_11) as a product of basis vectors:
        # (e_11 U_g)(e_12 U_0) = e_11 alpha_g(e_12) U_g = -e_12 U_g
        a = build_crossed((2,), Z2, t2_flip())
        prod = a.alg.multiply(a.alg.vec(((0, 1, 1), (1,))),
                              a.alg.vec(((0, 1, 2), (0,))))
        assert prod == {((0, 1, 2), (1,)): -Cyc.one(2)}

    def test_radical_is_spanned_by_strict_upper_slices(self):
        a = build_crossed((2,), Z2, t2_flip())
        rad = a.radical()
        assert len(rad) == 2
        expected = [a.alg.vec(((0, 1, 2), g)) for g in Z2.elements()]
        assert a.radical_span().equals(a.alg.vectors_to_rows(expected))
        assert a.contains_in_radical(a.alg.vec(((0, 1, 2), (1,))))
        assert not a.contains_in_radical(a.alg.vec(((0, 1, 1), (0,))))
        # a zero coefficient is no entry
        zero = {((0, 1, 1), (0,)): Cyc.zero(2)}
        assert a.contains_in_radical(zero)
        assert a.contains_in_radical({**a.alg.vec(((0, 1, 2), (1,))), **zero})
        assert a.radical_span().equals(a.alg.vectors_to_rows(rad + [zero]))

    def test_base_radical_oracle(self):
        assert len(multi_matrix_algebra((2,), True).radical_basis()) == 1
        assert multi_matrix_algebra((2,), False).radical_basis() == []
        assert len(multi_matrix_algebra((2, 3), True).radical_basis()) == 1 + 3


class TestTightnessAndCorollary:
    def test_t2_flip_is_tight(self):
        rep = radical_tightness_check((2,), Z2, t2_flip())
        assert rep["tight"]
        assert rep["crossed_radical_dim"] == 2
        assert rep["base_radical_dim"] == 1
        assert rep["core_ideal_dim"] == 1
        assert rep["core_is_base_radical"]
        assert rep["radical_is_core_crossed"]

    def test_permutation_action_is_tight(self):
        g = Z2
        act = perm_action(g, (2, 2), [(1, 0)])
        rep = radical_tightness_check((2, 2), g, act)
        assert rep["tight"] and rep["crossed_radical_dim"] == 4

    def test_corollary_formula(self):
        rep = corollary_formula_check((2,), Z2, t2_flip())
        assert rep["equal"] and rep["radical_dim"] == 2
        rep = corollary_formula_check((3,), Z2, diag_action(Z2, (3,),
                                                            [((0, 1, 0),)]))
        assert rep["equal"] and rep["radical_dim"] == 3 * 2

    def test_radical_nilpotency(self):
        a = build_crossed((2,), Z2, t2_flip())
        rep = radical_nilpotency_check(a)
        assert rep["nilpotent"] and rep["exponent"] == 4


class TestDualAction:
    def test_dual_action_composition(self):
        a = build_crossed((2,), Z2, t2_flip())
        c0, c1 = all_characters(Z2)
        t0, t1 = dual_action(a, c0), dual_action(a, c1)
        comp = dual_action(a, c1.compose(c1))
        v = {((0, 1, 2), (1,)): Cyc.one(2), ((0, 1, 1), (0,)): Cyc.one(2)}
        once = apply_table(a.alg, t1, v)
        assert apply_table(a.alg, t1, once) == apply_table(a.alg, comp, v)
        assert apply_table(a.alg, t0, v) == v

    def test_dual_action_scales_nonidentity_slices(self):
        a = build_crossed((2,), Z2, t2_flip())
        t1 = dual_action(a, Character(Z2, (1,)))
        assert t1[((0, 1, 1), (1,))][0] == -Cyc.one(2)
        assert t1[((0, 1, 1), (0,))][0] == Cyc.one(2)


class TestIdealLattices:
    def test_t2_trivial_group_has_five_ideals(self):
        act = trivial_action(TRIVIAL, (2,))
        lat = enumerate_invariant_ideals((2,), act)
        assert len(lat) == 5
        assert frozenset() in lat and frozenset({(0, 1, 2)}) in lat

    def test_c2_flip_has_two_invariant_ideals(self):
        act = perm_action(Z2, (1, 1), [(1, 0)])
        lat = enumerate_invariant_ideals((1, 1), act, triangular=False)
        assert len(lat) == 2

    def test_lattice_isomorphism_t2_flip(self):
        rep = verify_lattice_iso((2,), Z2, t2_flip())
        assert rep["ok"]
        assert rep["base_count"] == rep["crossed_count"] == 5

    def test_lattice_isomorphism_permutation(self):
        act = perm_action(Z2, (2, 2), [(1, 0)])
        rep = verify_lattice_iso((2, 2), Z2, act)
        assert rep["ok"]
        # summand swap fuses the two copies of each T_2 ideal
        assert rep["base_count"] == 5

    def test_homogeneous_crossed_ideals_match(self):
        a = build_crossed((2,), Z2, t2_flip())
        lat = enumerate_dual_invariant_ideals(a)
        assert len(lat) == 5


class TestDiagonal:
    def test_t2_flip_diag(self):
        rep = diag_check((2,), Z2, t2_flip())
        assert rep["ok"]
        assert rep["crossed"]["diag_dim"] == 2 * 2
        assert rep["ampliation"]["n"] == 2
        assert rep["ampliation"]["diag_dim"] == 2 * 2 * 4

    def test_trivial_group_diag_matches_base(self):
        rep = diag_check((2,), TRIVIAL, trivial_action(TRIVIAL, (2,)))
        assert rep["ok"] and rep["crossed"]["diag_dim"] == 2
        assert rep["ampliation"]["diag_dim"] == 8

    def test_diag_without_ampliation(self):
        rep = diag_check((2,), Z2, t2_flip(), ampliation=None)
        assert rep["ok"] and "ampliation" not in rep

    def test_full_base_diag_is_the_whole_crossed_product(self):
        # a full block is self-adjoint: diag(A) = A, so diag(A x G) = A x G
        rep = diag_check((2,), Z2, t2_flip(), triangular=False)
        assert rep["crossed"] == {"diag_dim": 8, "expected_dim": 8, "ok": True}
        assert rep["ampliation"]["diag_dim"] == \
            rep["ampliation"]["expected_dim"] == 32
        assert rep["ok"]

    def test_full_base_diag_across_the_family(self, family):
        for shape, group, action in family:
            rep = diag_check(shape, group, action, triangular=False,
                             ampliation=None)
            dim = sum(k * k for k in shape) * group.size
            assert rep["crossed"] == {"diag_dim": dim, "expected_dim": dim,
                                      "ok": True}, (shape, group)


class TestPermanenceAndLinks:
    def test_c2_flip_stays_semisimple(self):
        act = perm_action(Z2, (1, 1), [(1, 0)])
        rep = semisimplicity_permanence_check((1, 1), Z2, act)
        assert rep["applicable"] and rep["crossed_radical_dim"] == 0

    def test_m2_inner_flip_stays_semisimple(self):
        rep = semisimplicity_permanence_check((2,), Z2, t2_flip())
        assert rep["applicable"] and rep["crossed_radical_dim"] == 0

    def test_not_applicable_for_triangular_base(self):
        rep = semisimplicity_permanence_check((2,), Z2, t2_flip(),
                                              triangular=True)
        assert not rep["applicable"]

    def test_links_lemma_needs_a_triangular_base(self):
        a = build_crossed((2,), Z2, t2_flip(), triangular=False)
        with pytest.raises(ValueError, match="expects a triangular base"):
            links_lemma_check(a)

    def test_links_lemma_witnesses(self):
        a = build_crossed((2,), Z2, t2_flip())
        rep = links_lemma_check(a)
        assert rep["ok"]
        by_status = {}
        for e in rep["elements"]:
            by_status.setdefault(e["status"], []).append(e)
        assert len(by_status["radical"]) == 2
        assert len(by_status["witnessed"]) == 4
        for e in by_status["witnessed"]:
            s, i, j, _ = e["element"]
            assert e["middle"][1] == j


# -- references: Cyc-composed action tables and the six-rank diagonal --------


def reference_gen_table(group, shape, perm, diag) -> dict:
    """A generator's table with Cyc scalars, as LevelAction once built it."""
    m = group.exponent
    return {(s, i, j): (Cyc.zeta(m, diag[perm[s]][i - 1] - diag[perm[s]][j - 1]),
                        (perm[s], i, j))
            for (s, i, j) in multi_matrix_units(shape, triangular=False)}


def reference_compose(t2: dict, t1: dict) -> dict:
    return {k: (c1 * t2[k1][0], t2[k1][1]) for k, (c1, k1) in t1.items()}


def reference_table(group, shape, gens, g) -> dict:
    """alpha_g as the product of Cyc generator tables."""
    t = {k: (Cyc.one(group.exponent), k)
         for k in multi_matrix_units(shape, triangular=False)}
    for (perm, diag), reps in zip(gens, g):
        for _ in range(reps):
            t = reference_compose(reference_gen_table(group, shape, perm, diag),
                                  t)
    return t


def reference_relations_hold(group, shape, gens) -> bool:
    """Generator orders and commutativity, checked on Cyc tables."""
    ident = reference_table(group, shape, gens, group.identity)
    tables = [reference_gen_table(group, shape, *gen) for gen in gens]
    for t, d in zip(tables, group.orders):
        acc = ident
        for _ in range(d):
            acc = reference_compose(t, acc)
        if acc != ident:
            return False
    return all(reference_compose(ti, tj) == reference_compose(tj, ti)
               for n, ti in enumerate(tables) for tj in tables[n + 1:])


LARGER_BASES = [(3, 3), (2, 2, 2), (4,)]


def test_action_tables_match_cyc_composition():
    for shape, group, gens in family_gens(BASES + LARGER_BASES):
        action = LevelAction(group, shape, gens)
        for g in group.elements():
            assert action.table(g) == reference_table(group, shape, gens, g), \
                (shape, group, gens, g)


def test_action_relations_match_cyc_composition():
    verdicts = set()
    for shape in BASES + LARGER_BASES:
        for orders in [(2,), (3,), (2, 2)]:
            group = FiniteAbelianGroup(orders)
            for gens in candidate_gens(shape, group):
                holds = reference_relations_hold(group, shape, gens)
                try:
                    LevelAction(group, shape, gens)
                except ActionRelationError:
                    assert not holds, (shape, orders, gens)
                else:
                    assert holds, (shape, orders, gens)
                verdicts.add(holds)
    assert verdicts == {True, False}


def reference_diag_dims(mats, size, expected):
    """The diagonal report from six ranks, with its three conditions."""
    rows_b = _mats_to_rows(mats, size)
    rows_bstar = _mats_to_rows([_adjoint(m) for m in mats], size)
    rows_exp = _mats_to_rows(expected, size)
    rb, rbs = linalg.rank(rows_b), linalg.rank(rows_bstar)
    dim_diag = rb + rbs - linalg.rank(rows_b + rows_bstar)
    in_b = linalg.rank(rows_b + rows_exp) == rb
    in_bstar = linalg.rank(rows_bstar + rows_exp) == rbs
    dim_exp = linalg.rank(rows_exp)
    report = {"diag_dim": dim_diag, "expected_dim": dim_exp,
              "ok": in_b and in_bstar and dim_diag == dim_exp}
    return report, {"in_b": in_b, "in_bstar": in_bstar,
                    "dim_diag": dim_diag == dim_exp}


def diag_mutants(rng, mats, expected, off_diagonal):
    """(mats, expected) pairs, each broken in one seeded way or two."""
    drop = rng.randrange(len(expected))
    upper = mats[rng.choice(off_diagonal)]
    fewer = expected[:drop] + expected[drop + 1:]
    swapped = list(mats)
    n = rng.randrange(len(mats))
    swapped[n] = _adjoint(mats[n])
    return [(mats, expected), (mats, fewer),
            (mats, expected + [upper]), (mats, expected + [_adjoint(upper)]),
            (mats, fewer + [upper]), (mats, fewer + [_adjoint(upper)]),
            (swapped, expected)]


def test_diag_dims_match_the_six_rank_reference(family):
    rng = random.Random("diag-mutants")
    alone = set()
    for shape, group, action in family:
        a = build_crossed(shape, group, action)
        mats, size = _model_matrices(a)
        diagonal = [r == c for ((_, r, c), _) in a.alg.basis]
        expected = [m for m, d in zip(mats, diagonal) if d]
        off_diagonal = [n for n, d in enumerate(diagonal) if not d]
        for ms, exp in diag_mutants(rng, mats, expected, off_diagonal):
            report, conditions = reference_diag_dims(ms, size, exp)
            assert _diag_dims(ms, size, exp) == report, (shape, group)
            failed = [name for name, holds in conditions.items() if not holds]
            if len(failed) == 1:
                alone.update(failed)
    # each condition is the only one to fail on some mutant
    assert alone == {"in_b", "in_bstar", "dim_diag"}


# -- tightness against the intersection reference -----------------------------


def reference_tightness(shape, group, action, triangular) -> dict:
    """The tightness report with the core ideal computed as the
    intersection Rad cap A U_e (a null space of left combinations of the
    radical rows), and `tight` as a third span comparison."""
    a = build_crossed(shape, group, action, triangular)
    alg, gs = a.alg, group.elements()
    rad = a.radical()
    rows = alg.vectors_to_rows(rad)
    rad_base = a.base.radical_basis()
    # the combinations c with c . rows zero on every non-identity column
    off = [c for c, (_, g) in enumerate(alg.basis) if g != group.identity]
    transposed = [{r: row[c] for r, row in enumerate(rows) if c in row}
                  for c in off]
    vecs = []
    for combo in linalg.nullspace(transposed, len(rows), alg.one):
        v = {}
        for r, cr in combo.items():
            for j, x in rows[r].items():
                v[j] = v.get(j, alg.zero) + cr * x
        vecs.append({j: x for j, x in v.items() if x})
    core = [{alg.basis[j][0]: x for j, x in row.items()}
            for row in linalg.rref(vecs)[0]]

    def lift(vectors, g):
        return [{(k, g): Cyc.from_rational(a.m, c)
                 if not isinstance(c, Cyc) else c for k, c in v.items()}
                for v in vectors]

    span = linalg.Span(rows)
    tight = span.equals(alg.vectors_to_rows(
        [w for g in gs for w in lift(rad_base, g)]))
    graded = span.equals(alg.vectors_to_rows(
        [w for g in gs for w in lift(core, g)]))
    return {"tight": tight,
            "crossed_radical_dim": len(rad),
            "base_radical_dim": len(rad_base),
            "core_ideal_dim": len(core),
            "core_is_base_radical": linalg.same_span(
                alg.vectors_to_rows(lift(rad_base, group.identity)),
                alg.vectors_to_rows(lift(core, group.identity))),
            "radical_is_core_crossed": graded}


def test_tightness_matches_the_intersection_reference():
    # the radical is graded, so its identity-slice projection is the
    # intersection, and `tight` is the conjunction of the other two
    dims = set()
    for shape, group, gens in family_gens(BASES + LARGER_BASES):
        action = LevelAction(group, shape, gens)
        for triangular in (True, False):
            rep = radical_tightness_check(shape, group, action, triangular)
            assert rep == reference_tightness(shape, group, action,
                                              triangular), (shape, group, gens)
            dims.add(rep["core_ideal_dim"])
    assert len(dims) > 3


# -- work counts: Cyc products of the checks, recorded bounds ----------------

PAIR_GENS = [((1, 0), ((0, 0), (0, 0))), ((0, 1), ((0, 1), (0, 1)))]


def mul_calls(monkeypatch, fn) -> int:
    """Cyc.__mul__ calls made while fn() runs."""
    calls = 0
    mul = Cyc.__mul__

    def counting(self, other):
        nonlocal calls
        calls += 1
        return mul(self, other)

    with monkeypatch.context() as patch:
        patch.setattr(Cyc, "__mul__", counting)
        patch.setattr(Cyc, "__rmul__", counting)
        fn()
    return calls


def test_crossed_checks_stay_within_their_recorded_products(monkeypatch):
    group = FiniteAbelianGroup((2, 2))
    # exponent tables compose by adding integers: no product at all
    assert mul_calls(monkeypatch,
                     lambda: LevelAction(group, (2, 2), PAIR_GENS)) == 0
    action = LevelAction(group, (2, 2), PAIR_GENS)
    assert mul_calls(monkeypatch,
                     lambda: diag_check((2, 2), group, action)) <= 2400
    z3 = FiniteAbelianGroup((3,))
    twist = diag_action(z3, (2,), [((0, 1),)])
    assert mul_calls(monkeypatch,
                     lambda: radical_tightness_check((2,), z3, twist)) <= 40


def test_tightness_eliminates_the_crossed_radical_once(monkeypatch):
    # both span comparisons go through the cached `radical_span()`; the
    # two row sets compared with it used to eliminate the radical rows
    # again each, in 12 `rref` calls in all
    calls = []
    rref = linalg.rref

    def counting(rows):
        calls.append(len(rows))
        return rref(rows)

    monkeypatch.setattr(linalg, "rref", counting)
    z3 = FiniteAbelianGroup((3,))
    rep = radical_tightness_check((2,), z3, diag_action(z3, (2,), [((0, 1),)]))
    assert rep["tight"] and rep["radical_is_core_crossed"]
    assert len(calls) < 12


def test_the_semisimple_crossed_radical_inverts_nothing(monkeypatch):
    # the Gram matrix of A x G has at most one nonzero per row, so its
    # elimination clears columns without scaling a row, and `nullspace`
    # hands back the reduced basis with no second elimination (scaling
    # every pivot row costs 48 `Cyc.inverse` calls here, and reducing the
    # null space again one `rref` per radical, base and crossed)
    z3 = FiniteAbelianGroup((3,))
    action = diag_action(z3, (4,), [((0, 1, 2, 0),)])
    inverses = 0
    outer_rrefs = 0
    in_nullspace = False
    inverse, rref, nullspace = Cyc.inverse, linalg.rref, linalg.nullspace

    def counting_inverse(self):
        nonlocal inverses
        inverses += 1
        return inverse(self)

    def counting_rref(rows):
        nonlocal outer_rrefs
        outer_rrefs += not in_nullspace
        return rref(rows)

    def marked_nullspace(rows, ncols, one):
        nonlocal in_nullspace
        in_nullspace = True
        try:
            return nullspace(rows, ncols, one)
        finally:
            in_nullspace = False

    monkeypatch.setattr(Cyc, "inverse", counting_inverse)
    monkeypatch.setattr(linalg, "rref", counting_rref)
    monkeypatch.setattr(linalg, "nullspace", marked_nullspace)
    rep = semisimplicity_permanence_check((4,), z3, action, triangular=False)
    assert rep == {"applicable": True, "base_radical_dim": 0,
                   "crossed_radical_dim": 0}
    assert (inverses, outer_rrefs) == (0, 0)


def test_tightness_takes_the_rank_of_lifted_bases_from_their_length(
        monkeypatch):
    # J_G x G copies a basis into disjoint g-slices, so its rank is its
    # length and is not eliminated
    calls = []
    rref = linalg.rref

    def counting(rows):
        calls.append(len(rows))
        return rref(rows)

    monkeypatch.setattr(linalg, "rref", counting)
    z3 = FiniteAbelianGroup((3,))
    rep = radical_tightness_check((2,), z3, diag_action(z3, (2,), [((0, 1),)]))
    assert rep["tight"] and rep["radical_is_core_crossed"]
    assert len(calls) <= 9


def test_tightness_projects_the_radical_onto_the_identity_slice(monkeypatch):
    # the null spaces are those of the crossed and the base Gram
    # matrices; an intersection with the identity slice was a third
    calls = []
    nullspace = linalg.nullspace

    def counting(rows, ncols, one):
        calls.append(len(rows))
        return nullspace(rows, ncols, one)

    monkeypatch.setattr(linalg, "nullspace", counting)
    z3 = FiniteAbelianGroup((3,))
    rep = radical_tightness_check((2,), z3, diag_action(z3, (2,), [((0, 1),)]))
    assert rep["tight"] and rep["radical_is_core_crossed"]
    assert len(calls) == 2
