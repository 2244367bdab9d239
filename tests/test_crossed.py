"""Crossed products by finite abelian groups over exact cyclotomic scalars."""
import pytest

from limitalg.algebra import multi_matrix_algebra
from limitalg.crossed import (ActionRelationError, Character, CrossedAlgebra,
                              FiniteAbelianGroup, LevelAction, all_characters,
                              apply_table, build_crossed,
                              corollary_formula_check, diag_action, diag_check,
                              dual_action, enumerate_dual_invariant_ideals,
                              enumerate_invariant_ideals, links_lemma_check,
                              perm_action, radical_nilpotency_check,
                              radical_tightness_check,
                              semisimplicity_permanence_check, trivial_action,
                              verify_lattice_iso, _verify_multiplicative)
from limitalg.cyclotomic import Cyc

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
        assert a.alg.span_equal(rad, expected)
        assert a.contains_in_radical(a.alg.vec(((0, 1, 2), (1,))))
        assert not a.contains_in_radical(a.alg.vec(((0, 1, 1), (0,))))
        # a zero coefficient is no entry
        zero = {((0, 1, 1), (0,)): Cyc.zero(2)}
        assert a.contains_in_radical(zero)
        assert a.contains_in_radical({**a.alg.vec(((0, 1, 2), (1,))), **zero})
        assert a.alg.span_equal(rad, rad + [zero])

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
