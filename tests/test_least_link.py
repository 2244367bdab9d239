"""The shared least-link scan against all-pairs reference scans.

`links.has_link_at`, `radical._chain_step` and `dynamics.twisted_link`
all read their witness from `links.least_link`.  The references below
try every pair of units, as each of those scans once did on its own.
"""
import random

import pytest

from limitalg.crossed import FiniteAbelianGroup
from limitalg.dynamics import TowerAction, twisted_link
from limitalg.links import has_link_at, least_link
from limitalg.parser import parse_tower
from limitalg.radical import _chain_step
from limitalg.tower import (MatrixUnit, TowerSpec, embed_unit, preset,
                            random_lattice_word)

TOP = 6


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
    for n in range(t.level, min(horizon, TOP) + 1):
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
    tower, _ = random_tower(seed)
    for start in range(3):
        for t in tower.units_at(start):
            for horizon in (start, start + 2, TOP):
                assert _chain_step(tower, t, horizon) == \
                    reference_chain_step(tower, t, horizon), (t, horizon)


@pytest.mark.parametrize("seed", SEEDS)
def test_twisted_link_matches_all_pairs(seed):
    tower, twists = random_tower(seed)
    action = TowerAction(tower, FiniteAbelianGroup((2,)), [twists])
    for start in range(3):
        for e in tower.units_at(start):
            for g in ((0,), (1,)):
                assert twisted_link(tower, action, e, g, TOP) == \
                    reference_twisted_link(tower, action, e, g, TOP), (e, g)


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
    assert all(rep.rule.frozen_forever(0, s) for s in range(3))
    assert taf.rule.frozen_forever(0, 1) and not taf.rule.frozen_forever(0, 0)
