"""Acceptance suite: end-to-end exact-arithmetic checks on all components.

Each criterion is verified with exact equality (Fraction / cyclotomic
scalars); randomized parts are seeded and cross-checked against
independent brute-force oracles.
"""
import itertools
import random

from limitalg import crossed as C
from limitalg import peters as P
from limitalg.dynamics import technical_index_audit, trivial_tower_action
from limitalg.links import CertifiedLinkless, Linked, link_status
from limitalg.radical import (ChainCycle, InRadical, NotInRadical,
                              UniformNilpotency, donsig_chain,
                              radical_membership, uniform_nilpotency)
from limitalg.tower import (Element, MatrixUnit, TowerSpec, decompose,
                            embed_element, preset)
from conftest import random_lattice_word
from test_occurrence_index import label_positions

E_GROWING = MatrixUnit(1, 0, 1, 2)  # level-1 e_12 of the T_2 summand


# -- criterion 1: nilpotency degrees in the growing TAF example -------------

class TestGrowingExampleNilpotency:
    def test_embedded_square_vanishes_through_level_five(self):
        t = preset("paper-example-taf")
        x1 = Element.from_unit(E_GROWING)
        for level in range(1, 6):
            x = embed_element(t, x1, level)
            assert not x.power(2)

    def test_cube_with_every_unit_vanishes_through_level_four(self):
        t = preset("paper-example-taf")
        for level in range(1, 5):
            x = embed_element(t, Element.from_unit(E_GROWING), level)
            for b in t.units_at(level):
                assert not (x * Element.from_unit(b)).power(3)

    def test_pattern_closure_certificate(self):
        t = preset("paper-example-taf")
        rep = uniform_nilpotency(t, E_GROWING, 3, horizon=4,
                                 pattern_closure=True)
        assert rep.certificate == UniformNilpotency(3, 4, True)


# -- criterion 2: non-decomposability of the same element -------------------

class TestGrowingExampleNonDecomposability:
    def test_no_level_gives_an_all_linkless_decomposition(self):
        t = preset("paper-example-taf")
        for level in range(1, 6):
            dec = decompose(t, E_GROWING, level)
            statuses = [link_status(t, u) for u in dec.units]
            for u, st in zip(dec.units, statuses):
                if u.summand == 0:
                    assert isinstance(st, Linked) and st.level == level + 1
                else:
                    assert st == CertifiedLinkless("frozen")
            assert not all(isinstance(st, CertifiedLinkless)
                           for st in statuses)


# -- criterion 3: radical of TUHF limits at desk scale -----------------------

class TestTuhfRadical:
    def test_refinement_strict_upper_units_are_radical(self):
        t = preset("refinement-2")
        for level in range(4):
            for e in t.units_at(level):
                if e.diagonal:
                    continue
                assert isinstance(link_status(t, e), CertifiedLinkless)
                assert isinstance(radical_membership(t, e), InRadical)

    def test_standard_units_are_linked_and_outside_the_radical(self):
        t = preset("standard-2")
        for level in range(4):
            for e in t.units_at(level):
                st = link_status(t, e)
                assert isinstance(st, Linked) and st.level <= level + 1
                mem = radical_membership(t, e)
                assert isinstance(mem, NotInRadical)
                assert isinstance(mem.certificate, ChainCycle)

    def test_depth_three_chain_verified_by_exact_multiplication(self):
        t = preset("standard-2")
        ch = donsig_chain(t, MatrixUnit(0, 0, 1, 2), 3)
        assert ch is not None and len(ch.s_units) == 3
        assert ch.verify(t)


# -- criterion 4: occurrence-order bounds on random valid words --------------

class TestEmbeddingOrderBounds:
    def check_words(self, n, m, count, seed):
        rng = random.Random(seed)
        ratio = m // n
        for _ in range(count):
            word = random_lattice_word((n,), {0: ratio}, rng)
            assert len(word) == m
            [index] = label_positions(
                TowerSpec([(n,), (m,)], [(word,)]).occurrences(0))
            for i in range(1, n + 1):
                occ = index[(0, i)]
                assert len(occ) == ratio
                assert occ[0] <= (i - 1) * ratio + 1
                assert occ[-1] >= i * ratio

    def test_t2_to_t8(self):
        self.check_words(2, 8, 1000, seed=101)

    def test_t3_to_t12(self):
        self.check_words(3, 12, 1000, seed=202)


# -- criteria 5-7: the crossed-product system family -------------------------

class TestRadicalTightnessFamily:
    def test_family_is_large_enough(self, family):
        assert len(family) >= 40

    def test_tightness_across_the_family(self, family):
        for shape, group, action in family:
            rep = C.radical_tightness_check(shape, group, action)
            assert rep["tight"], (shape, group.orders)
            assert rep["core_is_base_radical"]
            assert rep["radical_is_core_crossed"]

    def test_corollary_span_formula(self, family):
        for shape, group, action in family:
            rep = C.corollary_formula_check(shape, group, action)
            assert rep["equal"], (shape, group.orders)
            strict_upper = sum(k * (k - 1) // 2 for k in shape)
            assert rep["radical_dim"] == strict_upper * group.size


class TestIdealLatticeFamily:
    def test_lattice_bijection_across_the_family(self, family):
        for shape, group, action in family:
            rep = C.verify_lattice_iso(shape, group, action)
            assert rep["ok"], (shape, group.orders)

    def test_t2_flip_lattices_have_five_elements(self):
        group = C.FiniteAbelianGroup((2,))
        action = C.diag_action(group, (2,), [((0, 1),)])
        rep = C.verify_lattice_iso((2,), group, action)
        assert rep["ok"]
        assert rep["base_count"] == rep["crossed_count"] == 5


class TestDiagonalAndPermanence:
    def test_diag_across_the_family(self, family):
        for shape, group, action in family:
            rep = C.diag_check(shape, group, action, ampliation=None)
            assert rep["ok"], (shape, group.orders)
            expected = sum(shape) * group.size
            assert rep["crossed"]["diag_dim"] == expected

    def test_diag_ampliation_spot_checks(self):
        group = C.FiniteAbelianGroup((2,))
        action = C.diag_action(group, (2,), [((0, 1),)])
        rep = C.diag_check((2,), group, action, ampliation=2)
        assert rep["ok"] and rep["ampliation"]["diag_dim"] == 16
        trivial = C.FiniteAbelianGroup(())
        rep = C.diag_check((2,), trivial, C.trivial_action(trivial, (2,)),
                           ampliation=2)
        assert rep["ok"] and rep["ampliation"]["diag_dim"] == 8

    def test_semisimple_bases_stay_semisimple(self):
        z2 = C.FiniteAbelianGroup((2,))
        cases = [
            ((1, 1), C.perm_action(z2, (1, 1), [(1, 0)])),   # C^2, flip
            ((2,), C.diag_action(z2, (2,), [((0, 1),)])),    # M_2, Ad diag
            ((2,), C.trivial_action(z2, (2,))),              # M_2, trivial
        ]
        for shape, action in cases:
            rep = C.semisimplicity_permanence_check(shape, z2, action)
            assert rep["applicable"] and rep["crossed_radical_dim"] == 0


# -- criterion 8: gauge-invariant ideal parametrization -----------------------

def brute_force_sequences(system, horizon):
    subsets = [frozenset(c) for r in range(len(system.points) + 1)
               for c in itertools.combinations(system.points, r)]
    out = set()
    for combo in itertools.product(subsets, repeat=horizon + 1):
        ok = all((combo[n + 1] | system.image(combo[n + 1])) <= combo[n]
                 for n in range(horizon))
        if ok and system.image(combo[-1]) == combo[-1]:
            out.add(P.SubsetSequence(combo))
    return out


class TestPetersParametrization:
    def test_enumeration_counts_against_brute_force(self):
        point = P.FiniteDynSys((1,), {1: 1})
        two_id = P.FiniteDynSys((1, 2), {1: 1, 2: 2})
        swap = P.FiniteDynSys((1, 2), {1: 2, 2: 1})
        for h in range(4):
            seqs = P.enumerate_sequences(point, h)
            assert len(seqs) == h + 2
            assert set(seqs) == brute_force_sequences(point, h)
        assert len(P.enumerate_sequences(two_id, 1)) == 9
        assert len(P.enumerate_sequences(swap, 0)) == 2
        for sys_, h in ((two_id, 1), (two_id, 2), (swap, 0), (swap, 2)):
            assert set(P.enumerate_sequences(sys_, h)) \
                == brute_force_sequences(sys_, h)

    def test_hundred_seeded_roundtrips(self):
        rng = random.Random(88)
        cycle3 = P.FiniteDynSys((1, 2, 3), {1: 2, 2: 3, 3: 1})
        for _ in range(100):
            seq = P.random_sequence(cycle3, 2, rng)
            model = P.TruncatedSemicrossed(cycle3, seq.stabilization + 2)
            ideal = P.ideal_from_sequence(model, seq)
            assert P.shift_relation_check(model, ideal)
            assert P.ideals_to_sets(P.extract_bigstar(model, ideal)) == seq

    def test_corners_of_invariant_ideals_satisfy_bigstar(self):
        rng = random.Random(17)
        two_id = P.FiniteDynSys((1, 2), {1: 1, 2: 2})
        model = P.TruncatedSemicrossed(two_id, 6)
        # every parametrized ideal, plus random invariant closures
        for seq in P.enumerate_sequences(two_id, 4):
            ideal = P.ideal_from_sequence(model, seq)
            iseq = P.extract_bigstar(model, ideal)  # asserts (bigstar)
            assert P.check_bigstar(two_id, iseq)["ok"]
        subsets = [frozenset(), frozenset({1}), frozenset({2}), two_id.space]
        for _ in range(50):
            seed = {(i, j): rng.choice(subsets)
                    for (i, j) in model.entries() if rng.random() < 0.3}
            ideal = P.invariant_closure(model, seed)
            P.extract_bigstar(model, ideal)  # asserts (bigstar) on corners


# -- criterion 9: index-chase audits ------------------------------------------

class TestIndexChaseAudits:
    def test_two_hundred_random_tuhf_towers(self):
        rng = random.Random(909)
        group = C.FiniteAbelianGroup((2,))
        applicable = 0
        for _ in range(200):
            words = [random_lattice_word((2 * 2 ** n,), {0: 2}, rng)
                     for n in range(4)]
            t = TowerSpec([(2 * 2 ** n,) for n in range(5)],
                          [(w,) for w in words])
            action = trivial_tower_action(t, group)
            for e in t.units_at(0):
                rep = technical_index_audit(t, action, e, horizons=(2, 3))
                if not rep["applicable"]:
                    continue
                applicable += 1
                assert rep["ok"] and rep["satisfiable"] == 0
                assert all(not tup["all_satisfied"] for tup in rep["tuples"])
        assert applicable > 0

    def test_links_lemma_across_the_family(self, family_algebras):
        for shape, group, action, a in family_algebras:
            rep = C.links_lemma_check(a)
            assert rep["ok"], (shape, group.orders)
            assert all(e["status"] in ("radical", "witnessed")
                       for e in rep["elements"])
