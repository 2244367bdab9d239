"""Radical membership certificates against the trace-form oracle."""
import random

import pytest

from limitalg import links, radical
from limitalg.algebra import multi_matrix_algebra
from limitalg.links import CertifiedLinkless, certify_linkless, link_status
from limitalg.radical import (ChainCycle, DonsigChain, InRadical,
                              LinklessDecomposition,
                              NotInRadical, Unknown, UniformNilpotency,
                              chain_cycle_certificate, donsig_chain,
                              radical_membership,
                              strictly_upper_units, uniform_nilpotency)
from limitalg.parser import parse_tower
from limitalg.tower import (BlockRule, Element, MatrixUnit, TowerRule,
                            TowerSpec, UnitShapeError, embed_element,
                            embed_unit, images, preset)
from test_least_link import GOLDEN
from test_links import tuhf_prefix_towers
from test_occurrence_index import deep_towers, permutation_rule, random_prefix


def exhaustive_nilpotency(tower, e, exponent, horizon):
    """Reference: the first unit b in `units_at` order, level by level up
    to the horizon, with (embed(e) * b)^exponent != 0, or None."""
    for level in range(e.level, tower.top(horizon) + 1):
        x = embed_element(tower, Element.from_unit(e), level)
        for b in tower.units_at(level):
            prod = x * Element.from_unit(b)
            if prod and prod.power(exponent):
                return b
    return None


def nilpotency_towers():
    """Seeded random multi-summand towers (explicit, and an explicit
    prefix with a `repeat` tail) plus the three presets."""
    towers = []
    for seed in range(12):
        rng = random.Random(300 + seed)
        base = rng.choice(((1, 2), (2, 1), (1, 1, 2), (2, 2)))
        levels, steps = random_prefix(base, 3, rng, cap=12)
        towers.append(TowerSpec(levels, steps))
    for seed in range(4):
        rng = random.Random(400 + seed)
        levels, steps = random_prefix((2, 1), 1, rng, cap=8)
        rule = permutation_rule(levels[-1], rng)
        towers.append(TowerSpec(levels, steps, rule=rule))
    towers += [preset(name) for name in
               ("standard-2", "refinement-2", "paper-example-taf")]
    return towers


def standard_prefix_tower():
    """Seven standard steps T_2 -> ... -> T_256, then identity forever."""
    return parse_tower((GOLDEN / "standard-prefix.tower").read_text())


class TestFiniteOracle:
    def test_triangular_radical_is_strictly_upper(self):
        for shape in ((2,), (3,), (2, 2), (1, 3)):
            rad = multi_matrix_algebra(shape, True).radical_basis()
            keys = sorted(k for v in rad for k in v)
            assert all(len(v) == 1 for v in rad)
            assert keys == sorted(strictly_upper_units(shape))

    def test_semisimple_algebras_have_zero_radical(self):
        assert multi_matrix_algebra((2,), False).radical_basis() == []
        assert multi_matrix_algebra((1, 1), False).radical_basis() == []
        assert multi_matrix_algebra((2, 3), False).radical_basis() == []


class TestDonsigChains:
    def test_standard_chain_with_exact_verification(self):
        t = preset("standard-2")
        ch = donsig_chain(t, MatrixUnit(0, 0, 1, 2), 3)
        assert ch is not None and ch.verify(t)
        assert [u.col for u in ch.t_units] == [2, 4, 8, 16]
        assert [u.row for u in ch.t_units] == [1, 1, 1, 1]
        assert ch.s_units[0] == MatrixUnit(1, 0, 2, 3)

    def test_refinement_chain_dies_immediately(self):
        t = preset("refinement-2")
        assert donsig_chain(t, MatrixUnit(0, 0, 1, 2), 1, horizon=8) is None

    def test_chain_cycle_for_every_standard_unit(self):
        t = preset("standard-2")
        for level in (0, 1):
            for e in t.units_at(level):
                cc = chain_cycle_certificate(t, e)
                assert isinstance(cc, ChainCycle)
                assert cc.chain.verify(t)

    def test_verify_reads_the_product_off_positions(self):
        # the dense product it replaced: embed(T) S embed(T) multiplied
        # out as elements.  Every chain of the chain-cycle tests, links
        # at horizon 5 on seeded towers, and broken chains: S moved by a
        # row or a col, T_(l+1) moved by a row, two steps swapped
        def dense(chain, tower):
            for l, s in enumerate(chain.s_units):
                t = embed_element(tower, Element.from_unit(chain.t_units[l]),
                                  s.level)
                if t * Element.from_unit(s) * t != \
                        Element.from_unit(chain.t_units[l + 1]):
                    return False
            return True

        chains = []
        t = preset("standard-2")
        for level in (0, 1):
            chains += [(chain_cycle_certificate(t, e).chain, t)
                       for e in t.units_at(level)]
        for tower in [preset("paper-example-taf")] + deep_towers():
            for e in tower.units_at(1):
                chain = donsig_chain(tower, e, 2, horizon=5)
                if chain is not None:
                    chains.append((chain, tower))
        broken = 0
        for chain, tower in chains:
            assert chain.verify(tower)
            ts, ss = chain.t_units, chain.s_units
            shape = tower.shape
            moved = [ss[0]._replace(row=ss[0].row + 1),
                     ss[0]._replace(col=ss[0].col + 1),
                     ss[0]._replace(row=ss[0].row - 1)]
            moved += [ss[0]._replace(summand=t)
                      for t in range(len(shape(ss[0].level)))
                      if t != ss[0].summand]
            for s2 in moved:
                if 1 <= s2.row <= s2.col <= shape(s2.level)[s2.summand]:
                    variants = [(ts, (s2,) + ss[1:])]
                    variants += [((ts[0], ts[1]._replace(row=ts[1].row + 1))
                                  + ts[2:], ss)]
                    if len(ss) > 1:
                        variants.append((ts, (ss[1], ss[0]) + ss[2:]))
                    for t_units, s_units in variants:
                        bad = DonsigChain(t_units, s_units)
                        assert bad.verify(tower) == dense(bad, tower)
                        broken += not dense(bad, tower)
        assert len(chains) > 20 and broken > 20

    def test_verify_reads_the_col_in_the_summand_of_s(self):
        # e_12 embeds as e_23 in summand 0 and e_12 in summand 1.  In
        # summand 1, e_12 S e_12 = 0 for S = e_22 there; the summand-0
        # unit has row 2 = col(S) and would give e_13 in summand 1
        tower = TowerSpec([(2, 1), (3, 3)],
                          [(((1, 1), (0, 1), (0, 2)),
                            ((0, 1), (0, 2), (1, 1)))])
        e, s = MatrixUnit(0, 0, 1, 2), MatrixUnit(1, 1, 2, 2)
        assert embed_unit(tower, e, 1).units == (MatrixUnit(1, 0, 2, 3),
                                                 MatrixUnit(1, 1, 1, 2))
        t = embed_element(tower, Element.from_unit(e), 1)
        assert not t * Element.from_unit(s) * t
        assert not DonsigChain((e, MatrixUnit(1, 1, 1, 3)), (s,)).verify(tower)

    def test_no_strictly_upper_unit_of_a_separating_tail_cycles(self):
        # a separating tail links no strictly upper unit past its start,
        # so every Donsig chain from one ends and each lies in the
        # radical; states anchored on prefix levels must not recur
        for tower in tuhf_prefix_towers() + [standard_prefix_tower()]:
            for level in range(min(tower.rule_start, 3)):
                for e in tower.units_at(level):
                    if not e.diagonal:
                        assert chain_cycle_certificate(tower, e) is None, e

    def test_standard_prefix_under_an_identity_tail(self):
        # seven standard steps to T_256: each chain unit below the tail
        # matches the state of the one before it, yet the level-7 image
        # is linkless; at the default horizons no route decides
        tower = standard_prefix_tower()
        e = MatrixUnit(0, 0, 1, 2)
        assert radical_membership(tower, e) == \
            Unknown(radical.DEFAULT_EXPAND_HORIZON, links.DEFAULT_HORIZON)
        st = radical_membership(tower, e, expand_horizon=8)
        assert st.certificate == LinklessDecomposition(
            7, tuple(embed_unit(tower, e, 7).units))
        assert all(certify_linkless(tower, u) == CertifiedLinkless("frozen")
                   for u in st.certificate.units)

    def test_chain_cycle_requires_stationary_tower(self):
        finite = TowerSpec([(2,), (4,)],
                           [(((0, 1), (0, 2), (0, 1), (0, 2)),)])
        with pytest.raises(ValueError):
            chain_cycle_certificate(finite, MatrixUnit(0, 0, 1, 2))


class TestUniformNilpotency:
    def test_exponent_two_passes_per_unit_but_not_closure(self):
        # single units b all give (e b)^2 = 0, yet mixed elements break
        # exponent 2, and the boolean support closure detects that
        t = preset("paper-example-taf")
        e = MatrixUnit(1, 0, 1, 2)
        rep = uniform_nilpotency(t, e, 2, horizon=3, pattern_closure=True)
        assert rep.ok and rep.certificate is None and not rep.pattern_closed
        x = embed_element(t, Element.from_unit(e), 2)
        mixed = Element(2, {(1, 2, 3): 1, (1, 4, 4): 1})
        assert (x * mixed).power(2)

    def test_counterexample_is_reported(self):
        # a diagonal unit is its own exponent-1 counterexample: e*e = e
        t = preset("standard-2")
        e = MatrixUnit(0, 0, 1, 1)
        rep = uniform_nilpotency(t, e, 1, horizon=2)
        assert not rep.ok and rep.counterexample is not None
        x = embed_element(t, Element.from_unit(e),
                          rep.counterexample.level)
        assert (x * Element.from_unit(rep.counterexample)).power(1)

    def test_pattern_closure_certificate(self):
        t = preset("paper-example-taf")
        rep = uniform_nilpotency(t, MatrixUnit(1, 0, 1, 2), 3, horizon=4,
                                 pattern_closure=True)
        assert rep.ok and rep.certificate == UniformNilpotency(3, 4, True)

    def test_per_unit_check_alone_gets_no_limit_certificate(self):
        # standard-2: (e b)^2 = 0 for single units b, but mixed b break it,
        # and the boolean support closure correctly refuses to certify
        t = preset("standard-2")
        rep = uniform_nilpotency(t, MatrixUnit(0, 0, 1, 2), 2, horizon=3,
                                 pattern_closure=True)
        assert rep.ok and rep.certificate is None
        x = embed_element(t, Element.from_unit(MatrixUnit(0, 0, 1, 2)), 1)
        mixed = Element(1, {(0, 2, 3): 1, (0, 4, 4): 1})
        assert (x * mixed).power(2)


class TestClosedFormNilpotency:
    def test_agrees_with_the_exhaustive_loop(self):
        cases = 0
        for tower in nilpotency_towers():
            for level in (0, 1):
                for e in tower.units_at(level):
                    for k in (1, 2, 3):
                        # below, at and above the unit's level
                        for horizon in (level - 1, level, level + 2):
                            rep = uniform_nilpotency(tower, e, k, horizon,
                                                     pattern_closure=True)
                            ref = exhaustive_nilpotency(tower, e, k, horizon)
                            assert rep.ok == (ref is None), (e, k, horizon)
                            assert rep.counterexample == ref, (e, k, horizon)
                            cases += 1
        assert cases > 4000

    def test_finite_certificates_hold_up_to_the_last_level(self):
        # a certificate below the last level still covers every level
        for tower in nilpotency_towers():
            if not tower.finite:
                continue
            for e in tower.units_at(0):
                for k in (1, 2, 3):
                    rep = uniform_nilpotency(tower, e, k, horizon=0)
                    assert (rep.certificate is not None) == (
                        exhaustive_nilpotency(tower, e, k,
                                              tower.max_level) is None)

    def test_a_horizon_below_the_unit_certifies_only_what_holds(self):
        # nothing is checked below the unit's level: a finite tower still
        # gets the closed form's all-level verdict, pattern closure nothing
        finite = TowerSpec([(2,), (4,)],
                           [(((0, 1), (0, 2), (0, 1), (0, 2)),)])
        rep = uniform_nilpotency(finite, MatrixUnit(1, 0, 3, 3), 2, horizon=0)
        assert rep.ok and rep.counterexample is None
        assert rep.certificate is None
        rep = uniform_nilpotency(finite, MatrixUnit(1, 0, 3, 4), 2, horizon=0)
        assert rep.certificate == UniformNilpotency(2, 0, False)
        # exponent 2 fails on mixed elements here (TestUniformNilpotency
        # refuses it at horizon 3), so an empty range must not certify it
        t = preset("paper-example-taf")
        for e in (MatrixUnit(1, 0, 1, 2), MatrixUnit(1, 0, 1, 1)):
            rep = uniform_nilpotency(t, e, 2, horizon=0, pattern_closure=True)
            assert rep.ok and not rep.pattern_closed
            assert rep.certificate is None


class TestUnitShape:
    @pytest.mark.parametrize("unit, message", [
        (MatrixUnit(0, 0, 2, 1), "row > col is not upper triangular"),
        (MatrixUnit(0, 0, 3, 1), r"row and col must lie in 1\.\.2"),
        (MatrixUnit(0, 1, 1, 1), "no summand 1"),
    ])
    def test_entry_points_reject_units_outside_the_algebra(self, unit,
                                                           message):
        t = preset("standard-2")
        with pytest.raises(UnitShapeError, match=message):
            radical_membership(t, unit)
        with pytest.raises(UnitShapeError, match=message):
            link_status(t, unit)
        for horizon in (0, 2):
            with pytest.raises(UnitShapeError, match=message):
                uniform_nilpotency(t, unit, 2, horizon=horizon)

    def test_lower_unit_beyond_the_horizon_is_rejected(self):
        # no route embeds a unit above every horizon it is given
        t = preset("standard-2")
        with pytest.raises(UnitShapeError):
            uniform_nilpotency(t, MatrixUnit(3, 0, 2, 1), 2, horizon=1)
        with pytest.raises(UnitShapeError):
            radical_membership(t, MatrixUnit(3, 0, 2, 1), expand_horizon=1,
                               link_horizon=1)


class TestMembership:
    def test_refinement_strict_upper_in_radical(self):
        t = preset("refinement-2")
        for e in t.units_at(1):
            st = radical_membership(t, e)
            if e.diagonal:
                assert isinstance(st, NotInRadical)
            else:
                assert isinstance(st, InRadical)
                assert isinstance(st.certificate, LinklessDecomposition)

    def test_standard_units_not_in_radical(self):
        t = preset("standard-2")
        for e in t.units_at(1):
            st = radical_membership(t, e)
            assert isinstance(st, NotInRadical)
            assert isinstance(st.certificate, ChainCycle)

    def test_growing_taf_unit_in_radical_by_nilpotency(self):
        t = preset("paper-example-taf")
        st = radical_membership(t, MatrixUnit(1, 0, 1, 2), expand_horizon=4)
        assert isinstance(st, InRadical)
        assert isinstance(st.certificate, UniformNilpotency)
        assert st.certificate.exponent == 3

    def test_unknown_when_no_route_applies(self):
        class OpaqueRefinement(TowerRule):
            def shape(self, level):
                return (2 * 2 ** level,)

            def words(self, level):
                k = 2 * 2 ** level
                return (tuple((0, (q + 1) // 2)
                              for q in range(1, 2 * k + 1)),)

        t = TowerSpec(rule=OpaqueRefinement())
        st = radical_membership(t, MatrixUnit(0, 0, 1, 2),
                                expand_horizon=2, link_horizon=3)
        assert isinstance(st, Unknown)

    def test_unknown_above_the_expand_horizon(self):
        # no level from e.level up to the expand horizon is left to try
        finite = TowerSpec([(2,), (4,), (8,)],
                           [(((0, 1), (0, 1), (0, 2), (0, 2)),),
                            (((0, 1), (0, 2), (0, 1), (0, 2),
                              (0, 3), (0, 4), (0, 3), (0, 4)),)])
        for t, e, expand in ((preset("paper-example-taf"),
                              MatrixUnit(7, 0, 1, 2), 6),
                             (finite, MatrixUnit(2, 0, 1, 2), 1)):
            st = radical_membership(t, e, expand_horizon=expand)
            assert st == Unknown(expand, links.DEFAULT_HORIZON)

    def test_no_exponent_loop_without_pattern_closure(self, monkeypatch):
        # an infinite tower whose rule is not pattern-closed can earn no
        # nilpotency certificate, so radical_membership does not try one
        calls = []
        monkeypatch.setattr(radical, "uniform_nilpotency",
                            lambda *a, **k: calls.append(a))
        t = TowerSpec([(2, 1), (4, 1), (4, 1)],
                      [(((0, 1), (0, 1), (0, 2), (0, 2)), ((1, 1),)),
                       (((0, 1), (0, 2), (0, 3), (0, 4)), ((1, 1),))],
                      rule=BlockRule((4, 1), (((0, 1),), ((1, 1),))))
        st = radical_membership(t, MatrixUnit(0, 0, 1, 2),
                                expand_horizon=0, link_horizon=4)
        assert isinstance(st, Unknown) and calls == []


def linkless_decomposition(tower, e, expand_horizon):
    """Step (1) of `radical_membership` as it ran on every unit."""
    for n, img in images(tower, [e], tower.top(expand_horizon)):
        units = tuple(sorted(img))
        if all(certify_linkless(tower, u) is not None for u in units):
            return LinklessDecomposition(n, units)
    return None


def test_no_linkless_decomposition_holds_a_diagonal_unit():
    # `radical_membership` skips step (1) for a diagonal unit: each unit of
    # its image is diagonal, so linked at its own level
    towers = deep_towers() + [preset(name) for name in
                              ("standard-2", "refinement-2",
                               "paper-example-taf")]
    diagonal = 0
    for tower in towers:
        for level in range(3):
            for e in tower.units_at(level):
                if e.diagonal:
                    diagonal += 1
                    for horizon in range(7):
                        assert linkless_decomposition(tower, e, horizon) \
                            is None, (e, horizon)
    assert diagonal > 100
    # the copy does find the decompositions that step (1) reports
    e = MatrixUnit(0, 0, 1, 2)
    assert linkless_decomposition(preset("refinement-2"), e, 6) == \
        radical_membership(preset("refinement-2"), e).certificate
