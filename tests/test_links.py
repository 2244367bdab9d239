"""Link detection and linkless certificates, cross-checked by brute force."""
import random

import pytest

from limitalg.links import (CertifiedLinkless, Linked, NotLinkedUpTo,
                            donsig_report, has_link_at, link_status)
from limitalg.tower import (Element, LevelRangeError, MatrixUnit, TowerSpec,
                            embed_element, preset)

from conftest import random_lattice_word
from test_occurrence_index import repeat_tail_tower


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


def test_donsig_entries_are_the_link_status_of_their_units():
    # the report decides each level in one pass, with the frozen
    # certificate read once per summand; each entry must still be the
    # unit's own link_status
    towers = [(preset(name), 4) for name in
              ("standard-2", "refinement-2", "paper-example-taf")]
    towers += [(repeat_tail_tower(seed), 4) for seed in range(3)]
    for tower, level in towers:
        report = donsig_report(tower, level, 6)
        units = [u for n in range(level + 1) for u in tower.units_at(n)]
        assert [entry["unit"] for entry in report["units"]] == \
            [list(u) for u in units]
        for entry, u in zip(report["units"], units):
            assert entry == {"unit": list(u),
                             **link_status(tower, u, 6).to_json()}, u
