"""Group actions on towers: validation, twisted links, and the index audit."""
import functools
import random

import pytest

from limitalg.crossed import FiniteAbelianGroup
from limitalg.dynamics import (ActionCompatibilityError, TowerAction,
                               identity_words,
                               technical_index_audit, trivial_tower_action,
                               twisted_link, validate_action)
from limitalg import dynamics
from limitalg.tower import (BlockRule, MatrixUnit, TowerSpec,
                            TowerValidationError, embed_unit, preset)

from conftest import random_lattice_word

Z2 = FiniteAbelianGroup((2,))

SWAP_WORDS = (((1, 1), (1, 2)), ((0, 1), (0, 2)))
KEEP_WORDS = (((0, 1), (0, 2)), ((1, 1), (1, 2)))


def swap_tower():
    # SWAP_WORDS at every level
    return TowerSpec(rule=BlockRule((2, 2), (((1, 1),), ((0, 1),))))


def keep_tower():
    # KEEP_WORDS at every level
    return TowerSpec(rule=BlockRule((2, 2), (((0, 1),), ((1, 1),))))


def swap_action(tower):
    return TowerAction(tower, Z2, [{0: (0, SWAP_WORDS)}], names=["s"])


def test_swap_and_keep_towers_repeat_their_words():
    for tower, words in ((swap_tower(), SWAP_WORDS),
                         (keep_tower(), KEEP_WORDS)):
        assert [tower.words(n) for n in range(4)] == [words] * 4


def test_identity_words():
    assert identity_words((2,)) == (((0, 1), (0, 2)),)
    assert identity_words((1, 2)) == (((0, 1),), ((1, 1), (1, 2)))


def test_swap_action_validates_and_squares_commute():
    t = swap_tower()
    act = swap_action(t)
    rep = validate_action(t, act, horizon=3)
    assert rep["ok"] and rep["problems"] == []


def test_apply_action_and_order_two():
    t = swap_tower()
    act = swap_action(t)
    e = MatrixUnit(0, 0, 1, 2)
    assert act.apply_units((1,), [e], 0) == ([MatrixUnit(0, 1, 1, 2)], 0)
    # g^2 = identity because exponents reduce mod the generator order
    assert act.apply_units((2,), [e], 0) == ([e], 0)
    assert act.apply_units((0,), [e], 0) == ([e], 0)


def test_mapped_levels_reuse_the_validation_index(monkeypatch):
    t = swap_tower()
    act = swap_action(t)
    calls = []
    monkeypatch.setattr("limitalg.dynamics.index_step",
                        lambda *step: calls.append(step))
    units, level = act.apply_gen(0, [MatrixUnit(0, 0, 1, 2)], 0)
    assert (units, level) == ([MatrixUnit(0, 1, 1, 2)], 0)
    assert calls == []


def test_map_fallback_reuses_same_shape_entry():
    t = swap_tower()
    act = swap_action(t)
    # only level 0 is recorded; level 5 has the same shape, so the
    # level-preserving pattern is reused rather than defaulting to identity
    assert act.map_at(0, 5) == (5, SWAP_WORDS)
    e5 = MatrixUnit(5, 0, 2, 2)
    assert act.apply_units((1,), [e5], 5) == ([MatrixUnit(5, 1, 2, 2)], 5)


def test_incompatible_action_is_reported_by_validation():
    t = keep_tower()
    # swap at level 0 but identity at level 1 breaks the commuting square
    act = TowerAction(t, Z2, [{0: (0, SWAP_WORDS),
                               1: (1, identity_words((2, 2)))}])
    rep = validate_action(t, act, horizon=2)
    assert not rep["ok"]
    assert any(p["kind"] == "square" for p in rep["problems"])


def three_point_tower():
    # three 1x1 summands carried by identity words, so every summand
    # permutation commutes with the embedding
    return TowerSpec([(1, 1, 1), (1, 1, 1)], [identity_words((1, 1, 1))])


def transposition(a, b):
    """Words that swap summands a and b of (1, 1, 1)."""
    perm = {a: b, b: a}
    return tuple(((perm.get(t, t), 1),) for t in range(3))


def test_noncommuting_generators_are_reported_by_validation():
    t = three_point_tower()
    act = TowerAction(t, FiniteAbelianGroup((2, 2)),
                      [{0: (0, transposition(0, 1))},
                       {0: (0, transposition(1, 2))}])
    rep = validate_action(t, act)
    assert not rep["ok"]
    assert {p["kind"] for p in rep["problems"]} == {"commute"}


def test_a_generator_of_the_wrong_order_is_reported_by_validation():
    t = three_point_tower()
    act = TowerAction(t, FiniteAbelianGroup((3,)),
                      [{0: (0, transposition(0, 1))}])
    rep = validate_action(t, act)
    assert not rep["ok"]
    assert {p["kind"] for p in rep["problems"]} == {"order"}


def test_malformed_actions_raise():
    t = swap_tower()
    with pytest.raises(ActionCompatibilityError):
        TowerAction(t, Z2, [{1: (0, SWAP_WORDS)}])  # target below source
    with pytest.raises(ActionCompatibilityError):
        # word repeats position 1 of summand 0 out of order
        TowerAction(t, Z2, [{0: (0, (((0, 2), (0, 1)),
                                     ((1, 1), (1, 2))))}])


def test_trivial_action_twisted_link_reduces_to_plain_link():
    t = preset("standard-2")
    act = trivial_tower_action(t, Z2)
    e = MatrixUnit(0, 0, 1, 2)
    w = twisted_link(t, act, e, (0,), horizon=3)
    assert w == MatrixUnit(1, 0, 2, 3)
    # the trivial action makes every group element behave identically
    assert twisted_link(t, act, e, (1,), horizon=3) == w


def test_swap_action_separates_twisted_occurrences():
    t = swap_tower()
    act = swap_action(t)
    e = MatrixUnit(0, 0, 1, 2)
    # e and alpha_g(e) live in opposite summands at every level
    assert twisted_link(t, act, e, (1,), horizon=6) is None
    # and e itself never meets its own embedding upper-triangularly
    assert twisted_link(t, act, e, (0,), horizon=6) is None


def test_index_audit_requires_linkless_unit():
    t = preset("standard-2")
    act = trivial_tower_action(t, Z2)
    rep = technical_index_audit(t, act, MatrixUnit(0, 0, 1, 2))
    assert not rep["applicable"]
    assert "link" in rep["reason"]


def test_index_audit_on_refinement_never_satisfies_the_chain():
    t = preset("refinement-2")
    act = trivial_tower_action(t, Z2)
    rep = technical_index_audit(t, act, MatrixUnit(0, 0, 1, 2))
    assert rep["applicable"] and rep["ok"]
    assert all(not tup["all_satisfied"] for tup in rep["tuples"])


@pytest.mark.parametrize("level, horizons",
                         [(5, (3, 4)), (0, (5, 4)), (0, (4, 4))])
def test_index_audit_refuses_horizons_with_nothing_to_scan(level, horizons):
    # unless e.level <= h1 < h2 no tuple is scanned, and an empty scan
    # must not read as ok
    t = preset("refinement-2")
    act = trivial_tower_action(t, Z2)
    with pytest.raises(ValueError, match="<= h1 < h2$"):
        technical_index_audit(t, act, MatrixUnit(level, 0, 1, 2), horizons)


@pytest.mark.parametrize("level", [0, 2])
def test_index_audit_refuses_a_horizon_past_a_finite_top(level):
    # a finite TUHF tower with levels 0..2: an h2 past level 2 is named,
    # not clamped into a scan that is empty for a unit at level 2
    t = TowerSpec([(2,), (4,), (8,)],
                  [(((0, 1), (0, 1), (0, 2), (0, 2)),),
                   (((0, 1), (0, 2), (0, 1), (0, 2),
                     (0, 3), (0, 4), (0, 3), (0, 4)),)])
    act = trivial_tower_action(t, Z2)
    with pytest.raises(ValueError,
                       match="horizon 5 lies past the tower's last level 2"):
        technical_index_audit(t, act, MatrixUnit(level, 0, 1, 2), (4, 5))
    assert technical_index_audit(t, act, MatrixUnit(0, 0, 1, 2),
                                 (1, 2))["applicable"]


def test_index_audit_rejects_multi_summand_towers():
    t = preset("paper-example-taf")
    act = trivial_tower_action(t, Z2)
    with pytest.raises(TowerValidationError):
        technical_index_audit(t, act, MatrixUnit(1, 1, 1, 2))


def test_random_tuhf_audits_hold():
    rng = random.Random(7)
    for _ in range(10):
        # build a 4-step explicit TUHF tower from random lattice words
        words = [random_lattice_word((2 * 2 ** n,), {0: 2}, rng)
                 for n in range(4)]
        t = TowerSpec([(2 * 2 ** n,) for n in range(5)],
                      [(wn,) for wn in words])
        act = trivial_tower_action(t, Z2)
        for e in t.units_at(0):
            rep = technical_index_audit(t, act, e, horizons=(2, 3))
            if rep["applicable"]:
                assert rep["ok"]


# position helpers as the audit once had them: one embed_unit per unit
def reference_diag_positions(tower, level, idx, target):
    img = embed_unit(tower, MatrixUnit(level, 0, idx, idx), target)
    return sorted(u.row for u in img.units)


def reference_twisted_positions(tower, action, level, idx, g, target):
    units, lvl = action.apply_units(g, [MatrixUnit(level, 0, idx, idx)], level)
    if lvl > target:
        return None
    return sorted(v.row for u in units
                  for v in embed_unit(tower, u, target).units)


# the trivial action and both order-2 words into level 1 of the benchmark
REFINEMENT_ACTIONS = [{}] + [
    {0: (1, (tuple((0, p) for p in word),))}
    for word in ((1, 2, 1, 2), (1, 1, 2, 2))]


@pytest.mark.parametrize("gen_map", REFINEMENT_ACTIONS)
def test_index_audit_matches_per_unit_positions(gen_map, monkeypatch):
    t = preset("refinement-2")
    act = TowerAction(t, Z2, [gen_map])
    for level in range(3):
        for idx in range(1, t.shape(level)[0] + 1):
            for target in range(level, 5):
                assert dynamics._twisted_positions(
                    t, act, level, idx, Z2.identity, target) == \
                    reference_diag_positions(t, level, idx, target)
                for g in Z2.elements():
                    assert dynamics._twisted_positions(
                        t, act, level, idx, g, target) == \
                        reference_twisted_positions(t, act, level, idx, g,
                                                    target)
    e = MatrixUnit(0, 0, 1, 2)
    reports = [technical_index_audit(t, act, e, (3, 4))]

    def reference(tower, action, level, idx, g, target):
        if g == action.group.identity:
            return reference_diag_positions(tower, level, idx, target)
        return reference_twisted_positions(tower, action, level, idx, g,
                                           target)

    monkeypatch.setattr(dynamics, "_twisted_positions", reference)
    reports.append(technical_index_audit(t, act, e, (3, 4)))
    assert reports[0] == reports[1]


def reference_audit_tuples(tower, action, e, horizons):
    """The audit's tuple loop as it was before its invariants were
    hoisted: both separation tests per m, and every position list read
    through the cache inside the innermost loop."""
    h1, h2 = (tower.top(h) for h in horizons)
    twisted_positions = functools.cache(
        functools.partial(dynamics._twisted_positions, tower, action))

    def diag_positions(level, idx, target):
        return twisted_positions(level, idx, action.group.identity, target)

    def separated(level, lo, hi, bound):
        pos_hi = diag_positions(level, hi, bound)
        pos_lo = diag_positions(level, lo, bound)
        return pos_hi[0] > pos_lo[-1]

    tuples = []
    for n1 in range(e.level, h1 + 1):
        size1 = tower.shape(n1)[0]
        for n2 in range(n1 + 1, h2 + 1):
            ratio = tower.shape(n2)[0] // size1
            for k in range(1, size1 + 1):
                for l in range(k + 1, size1 + 1):
                    for m in range(l + 1, size1 + 1):
                        if not (separated(n1, l, m, h2)
                                and separated(n1, k, l, h2)):
                            continue
                        for g in action.group.elements():
                            kp = twisted_positions(n1, k, g, n2)
                            lp = twisted_positions(n1, l, g, n2)
                            if kp is None or lp is None:
                                continue
                            m_pos = diag_positions(n1, m, n2)
                            l_pos = diag_positions(n1, l, n2)
                            if m_pos[0] > kp[-1]:
                                continue
                            tuples.append(dynamics.AuditTuple(
                                n1, n2, k, l, m, g, {
                                    "fourth": l * ratio <= l_pos[-1],
                                    "first": l_pos[-1] < m_pos[0],
                                    "third": m_pos[0] <= kp[-1],
                                    "second": kp[-1] < lp[0],
                                    "fifth": lp[0] <= (l - 1) * ratio + 1,
                                }).to_json())
    return tuples


def test_index_audit_tuples_match_the_unhoisted_loop():
    # the refinement-2 actions of the benchmark, and seeded TUHF towers
    # with a random order-2 word into level 1 and one into level 2; the
    # seeds are ones whose audit yields tuples: the same tuples, in the
    # same order
    cases = [(preset("refinement-2"), gen_map, MatrixUnit(0, 0, 1, 2))
             for gen_map in REFINEMENT_ACTIONS]
    for seed in (7, 222):
        rng = random.Random(seed)
        words = [random_lattice_word((2 * 2 ** n,), {0: 2}, rng)
                 for n in range(4)]
        t = TowerSpec([(2 * 2 ** n,) for n in range(5)],
                      [(wn,) for wn in words])
        for level, source in ((0, (2,)), (1, (4,))):
            word = tuple(random_lattice_word(source, {0: 2}, rng))
            cases += [(t, {level: (level + 1, (word,))}, e)
                      for e in list(t.units_at(0)) + list(t.units_at(1))]
    with_tuples = 0
    for t, gen_map, e in cases:
        act = TowerAction(t, Z2, [gen_map])
        for horizons in ((2, 3), (3, 4)):
            rep = technical_index_audit(t, act, e, horizons)
            if rep["applicable"]:
                assert rep["tuples"] == reference_audit_tuples(
                    t, act, e, horizons), (gen_map, e, horizons)
                with_tuples += bool(rep["tuples"])
    assert with_tuples >= 5
