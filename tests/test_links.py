"""Link detection and linkless certificates, cross-checked by brute force."""
import random

import pytest

from limitalg import links
from limitalg.links import (CertifiedLinkless, Linked, NotLinkedUpTo,
                            donsig_report, has_link_at, link_status)
from limitalg.tower import (Element, LevelRangeError, MatrixUnit, TowerSpec,
                            embed_element, preset)

from limitalg.parser import parse_tower

from conftest import random_lattice_word
from test_least_link import GOLDEN, SEEDS, random_tower
from test_occurrence_index import RandomTUHFRule, repeat_tail_tower


def brute_force_link(tower, e, level):
    """Oracle: some unit f at `level` with embed(e) * f * embed(e) != 0."""
    x = embed_element(tower, Element.from_unit(e), level)
    for f in tower.units_at(level):
        if x * Element.from_unit(f) * x:
            return True
    return False


def test_has_link_matches_brute_force_on_random_towers():
    rng = random.Random(21)
    for _ in range(15):
        w1 = random_lattice_word((2,), {0: 2}, rng)
        w2 = random_lattice_word((4,), {0: 2}, rng)
        t = TowerSpec([(2,), (4,), (8,)], [(w1,), (w2,)])
        for e in t.units_at(0):
            for n in range(3):
                assert (has_link_at(t, e, n) is not None) \
                    == brute_force_link(t, e, n)


def test_witness_products_are_nonzero():
    t = preset("standard-2")
    e = MatrixUnit(0, 0, 1, 2)
    w = has_link_at(t, e, 1)
    assert w == MatrixUnit(1, 0, 2, 3)
    x = embed_element(t, Element.from_unit(e), 1)
    assert x * Element.from_unit(w) * x


def test_standard_units_link_at_next_level():
    t = preset("standard-2")
    for level in range(3):
        for e in t.units_at(level):
            st = link_status(t, e)
            assert isinstance(st, Linked)
            assert st.level <= e.level + 1


def test_refinement_strict_upper_units_certified_linkless():
    t = preset("refinement-2")
    for level in range(3):
        for e in t.units_at(level):
            st = link_status(t, e)
            if e.diagonal:
                assert isinstance(st, Linked) and st.level == e.level
            else:
                assert st == CertifiedLinkless("separation", st.detail)
                # separation state recurs at the (1/2, 1/2) fixed point
                assert brute_force_link(t, e, e.level) is False


def test_frozen_certificate_on_carried_summands():
    t = preset("paper-example-taf")
    for level in (1, 2, 3):
        for s in range(1, level + 1):
            st = link_status(t, MatrixUnit(level, s, 1, 2))
            assert st == CertifiedLinkless("frozen")
        st0 = link_status(t, MatrixUnit(level, 0, 1, 2))
        assert isinstance(st0, Linked) and st0.level == level + 1


def test_finite_tower_certificate_and_unknown():
    w = ((0, 1), (0, 1), (0, 2), (0, 2))
    finite = TowerSpec([(2,), (4,)], [(w,)])
    st = link_status(finite, MatrixUnit(0, 0, 1, 2))
    assert st == CertifiedLinkless("finite-tower")

    # same refinement words, but through a rule that advertises no
    # exploitable structure: no certificate applies, so the status
    # honestly reports the bounded search
    from limitalg.tower import TowerRule

    class OpaqueRefinement(TowerRule):
        def shape(self, level):
            return (2 * 2 ** level,)

        def words(self, level):
            k = 2 * 2 ** level
            return (tuple((0, (q + 1) // 2) for q in range(1, 2 * k + 1)),)

    t = TowerSpec(rule=OpaqueRefinement())
    e = MatrixUnit(0, 0, 1, 2)
    assert link_status(t, e, horizon=3) == NotLinkedUpTo(3)


def test_linkless_units_and_donsig_verdicts():
    ref = preset("refinement-2")
    linkless = [u for u in ref.units_at(1)
                if isinstance(link_status(ref, u), CertifiedLinkless)]
    assert [u.col - u.row > 0 for u in linkless] == [True] * 6
    assert donsig_report(ref, 2)["verdict"] == "not semisimple"
    std = preset("standard-2")
    assert donsig_report(std, 2)["verdict"] == "semisimple (evidence)"
    taf = preset("paper-example-taf")
    assert donsig_report(taf, 2)["verdict"] == "not semisimple"


def test_donsig_rejects_a_negative_level():
    # level -1 has no units: a "semisimple" verdict over them says nothing
    with pytest.raises(LevelRangeError, match="at least 0"):
        donsig_report(preset("standard-2"), -1)


def donsig_towers():
    """Presets, the golden corpus towers, seeded finite towers and seeded
    `repeat`-tail towers."""
    towers = [preset(name) for name in
              ("standard-2", "refinement-2", "paper-example-taf")]
    towers += [parse_tower((GOLDEN / name).read_text()) for name in
               ("finite.tower", "prefix.tower", "two-summand.tower",
                "swap.tower", "action.tower")]
    towers += [random_tower(seed)[0] for seed in SEEDS]
    return towers + [repeat_tail_tower(seed) for seed in range(3)] + [
        parse_tower(TUHF_THEN_SPLIT)]


# a self-similar tower whose TUHF level 0 is followed by two summands:
# a separation walk that starts there must stop at level 1
TUHF_THEN_SPLIT = """
level 0 = [2]
level 1 = [2,2]
level 2 = [2,2]
embed 0 -> 1 {
  target 0 : (0,1) (0,2)
  target 1 : (0,1) (0,2)
}
embed 1 -> 2 {
  target 0 : (1,1) (1,2)
  target 1 : (0,1) (0,2)
}
repeat
"""


def test_donsig_entries_are_the_link_status_of_their_units():
    # one walk decides every unit of every level; each entry must still
    # be the unit's own link_status, at a horizon at the level, just
    # above it and well above it
    for tower in donsig_towers():
        for level in range(6):
            top = tower.top(level)
            units = [u for n in range(top + 1) for u in tower.units_at(n)]
            for horizon in sorted({level, level + 1, 6}):
                report = donsig_report(tower, level, horizon)
                assert [entry["unit"] for entry in report["units"]] == \
                    [list(u) for u in units]
                for entry, u in zip(report["units"], units):
                    assert entry == {"unit": list(u), **link_status(
                        tower, u, horizon).to_json()}, (u, horizon)


def test_one_walk_decides_each_unit_as_a_walk_of_its_own():
    # the units of every level walk together; each verdict and
    # separation trace must be the unit's own, also when the
    # separation walk is cut after few steps and with no certificate
    # tried.  Seeded ballot words make units of one walk link after
    # different numbers of steps; their separation walks are cut short,
    # as their words double in length at every level
    cases = [(tower, 4, (1, 2, 64)) for tower in donsig_towers()]
    cases += [(TowerSpec(rule=RandomTUHFRule(seed)), 3, (1, 2, 3))
              for seed in range(6)]
    for tower, level, cuts in cases:
        top = tower.top(level)
        units = [u for n in range(top + 1) for u in tower.units_at(n)]
        for certify in (True, False):
            for max_steps in cuts:
                verdicts = links._decide(
                    tower, units, top, certify, max_steps=max_steps)
                for q, u in enumerate(units):
                    [alone] = links._decide(
                        tower, [u], top, certify, max_steps=max_steps)
                    assert verdicts[q] == alone, (u, certify, max_steps)
