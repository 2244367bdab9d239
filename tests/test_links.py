"""Link detection and linkless certificates, cross-checked by brute force."""
import random

import pytest

from limitalg import links
from limitalg.links import (CertifiedLinkless, Linked, NotLinkedUpTo,
                            certify_linkless, donsig_report, has_link_at,
                            link_status)
from limitalg.tower import (BlockRule, Element, LevelRangeError, MatrixUnit,
                            TowerSpec, embed_element, embed_unit, preset)

from limitalg.parser import parse_tower, render_tower

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
                assert st == CertifiedLinkless("separation")
                assert not any(brute_force_link(t, e, n)
                               for n in range(level, level + 3))


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


# a TUHF level 0 under a `repeat` tail on two summands: a unit of the
# one-summand level walks on under a rule that is not separating
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
    # the units of every level walk together; each verdict must be the
    # unit's own, with and without certificates.  Seeded ballot words
    # make units of one walk link after different numbers of steps
    cases = [(tower, 4) for tower in donsig_towers() + tuhf_prefix_towers()]
    cases += [(TowerSpec(rule=RandomTUHFRule(seed)), 3) for seed in range(6)]
    for tower, level in cases:
        top = tower.top(level)
        units = [u for n in range(top + 1) for u in tower.units_at(n)]
        for certify in (True, False):
            verdicts = links._decide(tower, units, top, certify)
            for q, u in enumerate(units):
                [alone] = links._decide(tower, [u], top, certify)
                assert verdicts[q] == alone, (u, certify)


def tuhf_prefix_towers():
    """Seeded TUHF towers: T_2, then two or three doubling steps drawn
    from refinement, standard and seeded ballot words.  Each prefix ends
    in an identity step and a `repeat` tail (a tower file), and also,
    without that step, in a rule that refines by 2 at every level; both
    tails are separating.  Then `sep.tower`."""
    towers = []
    for seed in range(8):
        rng = random.Random(f"tuhf-prefix:{seed}")
        levels, steps = [(2,)], []
        for _ in range(rng.randint(2, 3)):
            [k] = levels[-1]
            kind = rng.choice(("refinement", "standard", "ballot"))
            if kind == "refinement":
                word = tuple((0, p) for p in range(1, k + 1) for _ in range(2))
            elif kind == "standard":
                word = tuple((0, p) for _ in range(2) for p in range(1, k + 1))
            else:
                word = random_lattice_word((k,), {0: 2}, rng)
            levels.append((2 * k,))
            steps.append((word,))
        [k] = levels[-1]
        towers.append(TowerSpec(levels, steps,
                                rule=BlockRule((k,), (((0, 2),),))))
        identity = ((0, p) for p in range(1, k + 1))
        text = render_tower(TowerSpec(levels + [(k,)],
                                      steps + [(tuple(identity),)]))
        towers.append(parse_tower(text + "repeat\n"))
    return towers + [parse_tower((GOLDEN / "sep.tower").read_text())]


def check_verdict(tower, u, status):
    """A linkless verdict has no link at any level up to two past the
    later of u's level and the rule's start; a linked one names the
    least level with a link, and its witness there."""
    if isinstance(status, CertifiedLinkless):
        last = max(u.level, tower.rule_start) + 2
        assert all(has_link_at(tower, u, n) is None
                   for n in range(u.level, last + 1)), (u, status)
    elif isinstance(status, Linked):
        assert all(has_link_at(tower, u, n) is None
                   for n in range(u.level, status.level)), (u, status)
        assert has_link_at(tower, u, status.level) == status.witness, u


def test_prefix_verdicts_hold_at_every_level_before_the_tail():
    # a separating tail certifies a unit one step past the rule's start;
    # the explicit steps before it may still link, as in `sep.tower`
    separation = 0
    for tower in tuhf_prefix_towers():
        level = tower.rule_start + 1
        units = [u for n in range(level + 1) for u in tower.units_at(n)]
        report = donsig_report(tower, level)
        for u, entry in zip(units, report["units"]):
            status = link_status(tower, u)
            check_verdict(tower, u, status)
            assert entry == {"unit": list(u), **status.to_json()}
            cert = certify_linkless(tower, u)
            check_verdict(tower, u, cert)
            assert cert == (status if isinstance(status, CertifiedLinkless)
                            else None)
            separation += status == CertifiedLinkless("separation")
    assert separation


def test_a_standard_step_after_a_refinement_links():
    # a level-2 image e13 + e24 + e57 + e68: e13 e35 e57 = e17 != 0
    tower = parse_tower((GOLDEN / "sep.tower").read_text())
    e = MatrixUnit(0, 0, 1, 2)
    assert embed_unit(tower, e, 2).units == tuple(
        MatrixUnit(2, 0, i, j) for i, j in ((1, 3), (2, 4), (5, 7), (6, 8)))
    assert link_status(tower, e) == Linked(2, MatrixUnit(2, 0, 3, 5))
    assert certify_linkless(tower, e) is None
