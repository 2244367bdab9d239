"""The shared least-link scan and level walk against reference scans.

`links.has_link_at`, `links.first_link` and `dynamics.twisted_link` all
read their witness from `links.least_link`.  The references below try
every pair of units, as each of those scans once did on its own.
`links.first_link` walks the levels of `tower.images`; `link_status` and
`certify_linkless` are checked against the per-level loops they once ran.
"""
import random
from pathlib import Path

import pytest

from limitalg import dynamics, links
from limitalg import tower as tower_module
from limitalg.crossed import FiniteAbelianGroup
from limitalg.dynamics import (TowerAction, technical_index_audit,
                               trivial_tower_action, twisted_link)
from limitalg.links import (CertifiedLinkless, Linked, NotLinkedUpTo,
                            certify_linkless, first_link, has_link_at,
                            least_link, link_status)
from limitalg.parser import parse_tower
from limitalg.radical import (chain_cycle_certificate, donsig_chain,
                              radical_membership)
from limitalg.tower import (BlockRule, MatrixUnit, TowerSpec, UnitShapeError,
                            embed_unit, images, preset)

from conftest import random_lattice_word

TOP = 6
GOLDEN = Path(__file__).resolve().parent / "golden"


def all_pairs(left, right, level):
    """Least (summand, a.col, b.row) over all pairs with a.col <= b.row,
    as the pair (e_{a.col, b.row}, e_{a.row, b.col}) at `level`."""
    best = None
    for a in left:
        for b in right:
            if a.summand == b.summand and a.col <= b.row:
                cand = (MatrixUnit(level, a.summand, a.col, b.row),
                        MatrixUnit(level, a.summand, a.row, b.col))
                if best is None or cand[0].key() < best[0].key():
                    best = cand
    return best


def reference_link_at(tower, e, level):
    img = embed_unit(tower, e, level).units
    found = all_pairs(img, img, level)
    return None if found is None else found[0]


def reference_chain_step(tower, t, horizon):
    for n in range(t.level, tower.top(horizon) + 1):
        img = embed_unit(tower, t, n).units
        found = all_pairs(img, img, n)
        if found is not None:
            return found
    return None


def reference_twisted_link(tower, action, e, g, horizon):
    img_g, lvl_g = action.apply_units(g, [e], e.level)
    for n in range(max(e.level, lvl_g), min(horizon, TOP) + 1):
        left = embed_unit(tower, e, n).units
        right = [v for u in img_g for v in embed_unit(tower, u, n).units]
        found = all_pairs(left, right, n)
        if found is not None:
            return found[0]
    return None


def random_step(source, rng):
    """Words into two target summands: one takes every source summand
    once, the other a random non-empty subset of them."""
    picks = [s for s in range(len(source)) if rng.random() < 0.5] or [0]
    words = [random_lattice_word(source, {s: 1 for s in range(len(source))},
                                 rng),
             random_lattice_word(source, {s: int(s in picks)
                                          for s in range(len(source))}, rng)]
    return tuple(words), tuple(len(w) for w in words)


def random_tower(seed):
    """A finite multi-summand tower on levels 0..TOP, plus a second word
    collection per level to serve as a twisted action step n -> n+1."""
    rng = random.Random(seed)
    shapes = [(rng.randint(1, 2), rng.randint(1, 2))]
    steps, twists = [], {}
    for n in range(TOP):
        words, target = random_step(shapes[-1], rng)
        steps.append(words)
        shapes.append(target)
    tower = TowerSpec(shapes, steps)
    for n in range(TOP):
        # a second draw of words with the same multiplicities
        twists[n] = (n + 1, tuple(
            random_lattice_word(shapes[n], {s: w.count((s, 1))
                                            for s in range(len(shapes[n]))},
                                rng)
            for w in steps[n]))
    return tower, twists


SEEDS = range(6)


@pytest.mark.parametrize("seed", SEEDS)
def test_has_link_at_matches_all_pairs(seed):
    tower, _ = random_tower(seed)
    for start in range(3):
        for e in tower.units_at(start):
            for n in range(start, TOP + 1):
                assert has_link_at(tower, e, n) == \
                    reference_link_at(tower, e, n), (e, n)


@pytest.mark.parametrize("seed", SEEDS)
def test_chain_step_matches_all_pairs(seed):
    # a Donsig chain step is `first_link` up to the horizon
    tower, _ = random_tower(seed)
    for start in range(3):
        for t in tower.units_at(start):
            for horizon in (start, start + 2, TOP):
                assert first_link(tower, t, tower.top(horizon)) == \
                    reference_chain_step(tower, t, horizon), (t, horizon)


PRESETS = ("standard-2", "refinement-2", "paper-example-taf")


def walk_towers():
    return [random_tower(seed)[0] for seed in SEEDS] + \
        [preset(name) for name in PRESETS]


def test_images_match_embed_unit_at_every_level():
    for tower in walk_towers():
        for start in range(3):
            for e in tower.units_at(start):
                walked = list(images(tower, [e], tower.top(start + 4)))
                assert [n for n, _ in walked] == \
                    list(range(start, tower.top(start + 4) + 1))
                for n, units in walked:
                    assert tuple(sorted(units)) == \
                        embed_unit(tower, e, n).units, (e, n)
                assert list(images(tower, [e], start - 1)) == []


@pytest.mark.parametrize("seed", SEEDS)
def test_images_of_a_unit_list_are_the_images_of_its_units(seed):
    tower, _ = random_tower(seed)
    for start in range(3):
        units = list(tower.units_at(start))
        walks = [dict(images(tower, [u], TOP)) for u in units]
        for n, img in images(tower, units, TOP):
            assert sorted(img) == \
                sorted(v for walk in walks for v in walk[n]), n


def separating(rule):
    """Whether `rule` is a one-summand `BlockRule` whose block is one
    token (0, r): e_IJ goes to a sum whose extremal pair is
    (r*I, r*(J-1)+1), so a unit with J > I never links under it."""
    return isinstance(rule, BlockRule) and len(rule.blocks) == 1 \
        and len(rule.blocks[0]) == 1


def reference_certify_linkless(tower, e):
    """`certify_linkless` as one `has_link_at` call per level.

    A finite tower is scanned to its top.  On a separating rule the scan
    goes two levels past the later of e's level and the rule's start, one
    level past the last one `links._decide` reads, so that the closed
    form is checked there as well.
    """
    if has_link_at(tower, e, e.level) is not None:
        return None
    if links._reachable_frozen(tower, e):
        return CertifiedLinkless("frozen")
    if tower.finite:
        kind, last = "finite-tower", tower.max_level
    elif separating(tower.rule):
        kind, last = "separation", max(e.level, tower.rule_start) + 2
    else:
        return None
    if all(has_link_at(tower, e, n) is None for n in range(e.level, last + 1)):
        return CertifiedLinkless(kind)
    return None


def reference_link_status(tower, e, horizon):
    """`link_status` as one `has_link_at` call per level."""
    cert = reference_certify_linkless(tower, e)
    if cert is not None:
        return cert
    for n in range(e.level, tower.top(horizon) + 1):
        w = has_link_at(tower, e, n)
        if w is not None:
            return Linked(n, w)
    return NotLinkedUpTo(horizon)


def test_link_verdicts_match_per_level_loops():
    for tower in walk_towers():
        for start in range(3):
            for e in tower.units_at(start):
                assert certify_linkless(tower, e) == \
                    reference_certify_linkless(tower, e), e
                for horizon in range(start, 9):
                    assert link_status(tower, e, horizon) == \
                        reference_link_status(tower, e, horizon), (e, horizon)


@pytest.mark.parametrize("unit, message", [
    (MatrixUnit(0, 0, 2, 1), "row > col is not upper triangular"),
    (MatrixUnit(0, 0, 1, 3), r"row and col must lie in 1\.\.2"),
    (MatrixUnit(0, 0, 3, 3), r"row and col must lie in 1\.\.2"),
    (MatrixUnit(0, 1, 1, 2), "no summand 1"),
])
def test_walk_entry_points_check_the_unit(unit, message):
    # the unit check runs in `tower.images`, in every generator step
    # (`TowerAction.apply_gen`, which slices the index by row and col), and
    # up front where a shortcut (a diagonal unit, a chain of depth 0) walks
    # no level
    t = preset("standard-2")
    action = trivial_tower_action(t, FiniteAbelianGroup((2,)))
    calls = [lambda: link_status(t, unit),
             lambda: certify_linkless(t, unit),
             lambda: donsig_chain(t, unit, 2),
             lambda: donsig_chain(t, unit, 0),
             lambda: chain_cycle_certificate(t, unit),
             lambda: technical_index_audit(t, action, unit),
             lambda: twisted_link(t, action, unit, (1,), 3),
             lambda: action.apply_gen(0, [unit], unit.level),
             lambda: radical_membership(t, unit)]
    for call in calls:
        with pytest.raises(UnitShapeError, match=message):
            call()


@pytest.mark.parametrize("seed", SEEDS)
def test_twisted_link_matches_all_pairs(seed):
    tower, twists = random_tower(seed)
    action = TowerAction(tower, FiniteAbelianGroup((2,)), [twists])
    for start in range(3):
        for e in tower.units_at(start):
            for g in ((0,), (1,)):
                assert twisted_link(tower, action, e, g, TOP) == \
                    reference_twisted_link(tower, action, e, g, TOP), (e, g)


def count_pairing_steps(monkeypatch):
    """A list that grows by one per `pair_occurrences` call, from the level
    walk or from a generator step."""
    steps = []
    original = tower_module.pair_occurrences

    def counting(*args):
        steps.append(args[2])
        return original(*args)

    monkeypatch.setattr(tower_module, "pair_occurrences", counting)
    monkeypatch.setattr(dynamics, "pair_occurrences", counting)
    return steps


def test_twisted_link_walks_each_side_once(monkeypatch):
    # one generator step, then 12 levels for e and 12 for alpha_g(e); a
    # re-embedding from each unit's own level made 1 + 2 * (0 + ... + 12)
    t = preset("refinement-2")
    action = trivial_tower_action(t, FiniteAbelianGroup((2,)))
    steps = count_pairing_steps(monkeypatch)
    assert twisted_link(t, action, MatrixUnit(0, 0, 1, 2), (1,), 12) is None
    assert len(steps) == 25
    steps.clear()
    twisted_link(t, action, MatrixUnit(0, 0, 1, 2), (1,), 6)
    assert len(steps) == 13


def test_link_status_walks_a_finite_tower_once(monkeypatch):
    # the link at level 2 is found on the extremal pairs; the image is
    # built once, up to level 1, for the witness read off step 1's index,
    # and not at all for a link beyond the horizon
    t = parse_tower((GOLDEN / "two-summand.tower").read_text())
    steps = count_pairing_steps(monkeypatch)
    e = MatrixUnit(0, 0, 1, 2)
    assert link_status(t, e, 2) == Linked(2, MatrixUnit(2, 0, 2, 5))
    assert len(steps) == 1
    steps.clear()
    assert link_status(t, e, 1) == NotLinkedUpTo(1)
    assert len(steps) == 0


def test_least_link_with_repeated_rows_and_cols():
    # the twisted image of an action may repeat rows, and two images may
    # share a col; the witness must not depend on which copy is taken
    rng = random.Random(7)
    for _ in range(300):
        def units(k):
            return [MatrixUnit(0, rng.randrange(3), rng.randint(1, 5),
                               rng.randint(1, 5)) for _ in range(k)]
        left, right = units(rng.randint(0, 6)), units(rng.randint(0, 6))
        right += right[:2]
        found = least_link(left, right)
        expected = all_pairs(left, right, 0)
        if expected is None:
            assert found is None
        else:
            a, b = found
            assert a in left and b in right
            assert MatrixUnit(0, a.summand, a.col, b.row) == expected[0]


REPEAT_TOWER = """
level 0 = [2,1]
level 1 = [2,2,1]
level 2 = [2,2,1]
embed 0 -> 1 {
  target 0 : (0,1) (0,2)
  target 1 : (0,1) (0,2)
  target 2 : (1,1)
}
embed 1 -> 2 {
  target 0 : (1,1) (1,2)
  target 1 : (0,1) (0,2)
  target 2 : (2,1)
}
repeat
"""


def test_frozen_carry_from_the_words():
    taf = preset("paper-example-taf")
    rep = parse_tower(REPEAT_TOWER)
    for level in range(9):
        # paper-example-taf carries each T_4 to the next slot, never T_2
        assert [taf.frozen_carry(level, s)
                for s in range(len(taf.shape(level)))] == \
            [None] + list(range(2, level + 2))
        # the repeat tower doubles summand 0 once, then swaps 0 and 1
        assert [rep.frozen_carry(level, s)
                for s in range(len(rep.shape(level)))] == \
            ([None, 2] if level == 0 else [1, 0, 2])
    assert all(rep.rule.frozen_forever(s) for s in range(3))
    assert taf.rule.frozen_forever(1) and not taf.rule.frozen_forever(0)
