"""Tower embeddings: word validation, image rule, order bounds."""
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import limitalg
from limitalg.links import Linked, link_status
from limitalg.radical import radical_membership
from limitalg.parser import parse_tower_file
from limitalg.tower import (PRESETS, BlockRule, Element, MatrixUnit,
                            MatrixUnitSum, TowerSpec, LevelRangeError,
                            TowerValidationError, UnitShapeError,
                            embed_element, embed_unit, decompose, preset,
                            validate_embedding, verify_embedding_order)
from limitalg.tower import _ratio
from conftest import random_lattice_word
from test_occurrence_index import label_positions


def kinds(report):
    return {v["kind"] for v in report.violations}


def reference_validate(source, target, words):
    """The position-by-position validator that the indexed one replaced:
    (ok, violations, per-word occurrence indexes)."""
    violations = []
    if len(words) != len(target):
        violations.append({"kind": "SHAPE",
                           "detail": "one word per target summand required"})
        return False, violations, ()
    for t, word in enumerate(words):
        if len(word) != target[t]:
            violations.append({"kind": "SHAPE", "target": t,
                               "detail": f"word length {len(word)} != target size {target[t]}"})
        for q, (s, p) in enumerate(word):
            if not (0 <= s < len(source)) or not (1 <= p <= source[s]):
                violations.append({"kind": "LABEL", "target": t,
                                   "position": q + 1, "label": [s, p]})
        counts = {}
        for lab in word:
            counts[lab] = counts.get(lab, 0) + 1
        for s in range(len(source)):
            per_pos = [counts.get((s, p), 0) for p in range(1, source[s] + 1)]
            if len(set(per_pos)) > 1:
                violations.append({"kind": "COUNT", "target": t, "source": s,
                                   "counts": per_pos})
        running = {}
        witness_done = set()
        for q, (s, p) in enumerate(word):
            running[(s, p)] = running.get((s, p), 0) + 1
            if p > 1 and (t, s) not in witness_done:
                if running[(s, p)] > running.get((s, p - 1), 0):
                    violations.append({"kind": "LATTICE", "target": t, "source": s,
                                       "positions": [p - 1, p],
                                       "prefix": q + 1})
                    witness_done.add((t, s))
    reached = set()
    for word in words:
        reached.update(s for s, _ in word)
    for s in range(len(source)):
        if s not in reached:
            violations.append({"kind": "INJECTIVE", "source": s})
    indexes = []
    for word in words:
        index = {}
        for q, lab in enumerate(word, start=1):
            index.setdefault(lab, []).append(q)
        indexes.append(index)
    return not violations, violations, tuple(indexes)


def _mutated(word, source, rng):
    """`word` after a few random edits: swaps, relabels inside and outside
    the source, deletions, insertions and reversed segments."""
    word = list(word)
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        edit = rng.randrange(6)
        q = rng.randrange(len(word)) if word else 0
        if edit == 0 and word:
            r = rng.randrange(len(word))
            word[q], word[r] = word[r], word[q]
        elif edit == 1 and word:
            s = word[q][0]
            size = source[s] if 0 <= s < len(source) else 2
            word[q] = (s, rng.randint(1, max(size, 1)))
        elif edit == 2 and word:
            word[q] = (rng.randint(-1, len(source)),
                       rng.randint(0, max(source) + 1))
        elif edit == 3 and word:
            del word[q]
        elif edit == 4:
            word.insert(q, (rng.randrange(len(source)),
                            rng.randint(1, max(source) + 1)))
        elif word:
            r = rng.randint(q, len(word))
            word[q:r] = word[q:r][::-1]
    return tuple(word)


def random_word_collection(rng):
    """(source, target, words): near-valid ballot words with random edits,
    or random junk, covering every violation kind."""
    source = [rng.choice((1, 2, 2, 3, 4, 4)) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.05:
        source[rng.randrange(len(source))] = 0
    source = tuple(source)
    words = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.1:
            word = tuple((rng.randint(-1, len(source)),
                          rng.randint(0, max(source) + 1))
                         for _ in range(rng.randrange(8)))
        else:
            reps = {s: rng.randint(0, 2) for s in range(len(source))}
            word = _mutated(random_lattice_word(source, reps, rng), source, rng)
        words.append(word)
    target = [len(w) + (rng.random() < 0.1) for w in words]
    if rng.random() < 0.05:
        target.append(rng.randint(1, 4))
    return source, tuple(target), tuple(words)


def _alias(label, source, rng):
    """A label whose code s*big + p, big = max(source) + 1, equals or
    neighbours that of `label`: p shifted by big into the next or previous
    source, p = 0 or p >= big, or a negative s or p."""
    s, p = label
    big = max(source) + 1
    return rng.choice(((s + 1, p - big), (s - 1, p + big), (s, 0), (s, big),
                       (s, big + p), (-1, p), (s, -p), (-s - 1, -p),
                       (s, p - big), (s + 1, 0)))


def aliased_word_collection(rng):
    """A valid step, or a near-valid one, with a few labels replaced by
    aliases, and sometimes the aliased label put back right after."""
    source = tuple(rng.choice((1, 2, 2, 3, 4)) for _ in range(rng.randint(1, 3)))
    words = []
    for _ in range(rng.randint(1, 3)):
        reps = {s: rng.randint(1, 2) for s in range(len(source))}
        word = list(random_lattice_word(source, reps, rng))
        for _ in range(rng.choice((1, 1, 2))):
            q = rng.randrange(len(word))
            alias = _alias(word[q], source, rng)
            if rng.random() < 0.3:
                word.insert(q + 1, alias)
            else:
                word[q] = alias
        words.append(tuple(word))
    return source, tuple(len(w) for w in words), tuple(words)


# (0,3) in a (2,2) step reads as (1,0) under s*3 + p, (-1,4) as (0,1),
# (1,-2) as (0,1): each beside or in place of the label it aliases
ALIASED_STEPS = [
    ((2, 2), (4,), (((0, 1), (0, 3), (1, 1), (1, 2)),)),
    ((2, 2), (5,), (((0, 1), (0, 2), (1, 0), (1, 1), (1, 2)),)),
    ((2, 2), (4,), (((-1, 4), (0, 2), (1, 1), (1, 2)),)),
    ((2, 2), (4,), (((0, 1), (0, 2), (1, -2), (1, 2)),)),
    ((2, 2), (4, 2), (((0, 1), (0, 2), (1, 1), (1, 2)), ((0, 0), (0, 3)))),
    ((2,), (2,), (((0, 1), (0, 0)),)),
    ((3, 1), (4,), (((0, 1), (0, 2), (0, 3), (1, 4)),)),
    ((3, 1), (4,), (((0, 1), (0, 2), (0, 3), (0, 4)),)),
]


class TestValidation:
    def test_standard_and_refinement_words_are_valid(self):
        std = ((0, 1), (0, 2), (0, 1), (0, 2))
        ref = ((0, 1), (0, 1), (0, 2), (0, 2))
        for w in (std, ref):
            assert validate_embedding((2,), (4,), (w,)).ok

    def test_shape_violation(self):
        rep = validate_embedding((2,), (4,), (((0, 1), (0, 2)),))
        assert not rep.ok and "SHAPE" in kinds(rep)

    def test_label_violation(self):
        rep = validate_embedding((2,), (2,), (((0, 1), (0, 3)),))
        assert not rep.ok and "LABEL" in kinds(rep)

    def test_count_violation(self):
        w = ((0, 1), (0, 1), (0, 2), (0, 1))
        rep = validate_embedding((2,), (4,), (w,))
        assert not rep.ok and "COUNT" in kinds(rep)

    def test_lattice_violation_with_prefix_witness(self):
        w = ((0, 2), (0, 1), (0, 2), (0, 1))
        rep = validate_embedding((2,), (4,), (w,))
        assert not rep.ok
        lat = [v for v in rep.violations if v["kind"] == "LATTICE"]
        assert lat and lat[0]["prefix"] == 1

    def test_injective_violation(self):
        w = ((0, 1), (0, 2), (0, 1), (0, 2))
        rep = validate_embedding((2, 3), (4,), (w,))
        assert not rep.ok and "INJECTIVE" in kinds(rep)

    def test_matches_the_position_scan_on_seeded_words(self):
        rng = random.Random(20240909)
        seen = set()
        collections = [random_word_collection(rng) for _ in range(3000)]
        collections += [aliased_word_collection(rng) for _ in range(1500)]
        collections += ALIASED_STEPS
        for source, target, words in collections:
            rep = validate_embedding(source, target, words)
            ok, violations, indexes = reference_validate(source, target, words)
            # a rejected step keeps no index
            assert (rep.ok, rep.violations, label_positions(rep.occurrences)) \
                == (ok, violations, indexes if ok else ()), (source, target,
                                                             words)
            seen.update(v["kind"] for v in violations)
        assert seen == {"SHAPE", "LABEL", "COUNT", "LATTICE", "INJECTIVE"}

    def test_labels_must_be_pairs(self):
        # flattened, ((0, 1, 0), (2,)) would read as the labels (0, 1), (0, 2)
        for word in (((0, 1, 0), (2,)), ((0, 1, 1), (0, 2)), ((0, 1), (0,))):
            with pytest.raises(TowerValidationError, match="pair"):
                validate_embedding((2,), (2,), (word,))
            with pytest.raises(TowerValidationError, match="pair"):
                TowerSpec([(2,), (2,)], [(word,)])


class TestImages:
    def test_standard_image_rule(self):
        t = preset("standard-2")
        for level in (0, 1):
            k = t.shape(level)[0]
            for e in t.units_at(level):
                img = embed_unit(t, e, level + 1)
                assert img.units == (
                    MatrixUnit(level + 1, 0, e.row, e.col),
                    MatrixUnit(level + 1, 0, e.row + k, e.col + k))

    def test_refinement_image_rule(self):
        t = preset("refinement-2")
        for level in (0, 1):
            for e in t.units_at(level):
                img = embed_unit(t, e, level + 1)
                assert img.units == (
                    MatrixUnit(level + 1, 0, 2 * e.row - 1, 2 * e.col - 1),
                    MatrixUnit(level + 1, 0, 2 * e.row, 2 * e.col))

    def test_doubling_presets_keep_their_label_rules(self):
        # the block templates give the words of the per-position label
        # rules they replaced, q -> (q-1) % K + 1 and q -> (q+1) // 2
        # for target positions q = 1..2K
        rules = {"standard-2": lambda q, k: (q - 1) % k + 1,
                 "refinement-2": lambda q, k: (q + 1) // 2}
        for name, label in rules.items():
            t = preset(name)
            for level in range(13):
                k = 2 * 2 ** level
                assert t.shape(level) == (k,)
                assert t.words(level) == (tuple(
                    (0, label(q, k)) for q in range(1, 2 * k + 1)),), \
                    (name, level)
            assert not t.rule.frozen_forever(0)

    def test_block_templates_against_their_words(self):
        # seeded templates on 1-4 summands, every source named by some
        # token: each step validates with the template's shapes, and
        # frozen_forever, read from the tokens, agrees with a walk of
        # word-level identity carries over 4 levels (a walk that ends
        # does so within 3 steps)
        rng = random.Random(17)
        for _ in range(200):
            r = rng.randint(1, 4)
            base = tuple(rng.randint(1, 3) for _ in range(r))
            while True:
                blocks = tuple(
                    tuple((rng.randrange(r), rng.choice((1, 1, 1, 2)))
                          for _ in range(rng.choice((1, 1, 1, 2))))
                    for _ in range(r))
                if {s for block in blocks for s, _ in block} == set(range(r)):
                    break
            rule = BlockRule(base, blocks)
            tower = TowerSpec(rule=rule)
            for n in range(4):
                assert validate_embedding(rule.shape(n), rule.shape(n + 1),
                                          rule.words(n)).ok
            for s in range(r):
                summand = s
                for n in range(4):
                    if summand is not None:
                        summand = tower.frozen_carry(n, summand)
                assert rule.frozen_forever(s) == (summand is not None), \
                    (base, blocks, s)

    def test_growing_taf_preset_structure(self):
        t = preset("paper-example-taf")
        assert t.shape(0) == (2,)
        assert t.shape(3) == (2, 4, 4, 4)
        e = MatrixUnit(1, 0, 1, 2)
        img = embed_unit(t, e, 2)
        assert img.units == (MatrixUnit(2, 0, 1, 2), MatrixUnit(2, 1, 1, 2),
                             MatrixUnit(2, 1, 3, 4))
        # old T_4 summands carry over by identity words
        f = MatrixUnit(1, 1, 2, 3)
        assert embed_unit(t, f, 3).units == (MatrixUnit(3, 3, 2, 3),)
        assert t.frozen_carry(1, 1) == 2 and t.frozen_carry(1, 0) is None

    def test_embedding_is_multiplicative(self):
        rng = random.Random(3)
        for _ in range(10):
            w1 = random_lattice_word((2,), {0: 2}, rng)
            w2 = random_lattice_word((4,), {0: 2}, rng)
            t = TowerSpec([(2,), (4,), (8,)], [(w1,), (w2,)])
            units = list(t.units_at(0))
            for e in units:
                for f in units:
                    lhs = embed_element(t, Element.from_unit(e)
                                        * Element.from_unit(f), 2)
                    rhs = embed_element(t, Element.from_unit(e), 2) \
                        * embed_element(t, Element.from_unit(f), 2)
                    assert lhs == rhs

    def test_identity_is_preserved(self):
        t = preset("paper-example-taf")
        for level in range(3):
            ident = Element(level, {(s, i, i): 1
                                    for s, k in enumerate(t.shape(level))
                                    for i in range(1, k + 1)})
            img = embed_element(t, ident, level + 1)
            expected = Element(level + 1, {(s, i, i): 1
                                           for s, k in enumerate(t.shape(level + 1))
                                           for i in range(1, k + 1)})
            assert img == expected

    def test_level_range_errors(self):
        t = preset("standard-2")
        with pytest.raises(LevelRangeError):
            embed_unit(t, MatrixUnit(2, 0, 1, 1), 1)
        finite = TowerSpec([(2,), (4,)],
                           [(((0, 1), (0, 2), (0, 1), (0, 2)),)])
        with pytest.raises(LevelRangeError):
            embed_unit(finite, MatrixUnit(0, 0, 1, 1), 2)


    def test_zero_size_summands_are_rejected(self):
        with pytest.raises(TowerValidationError, match=r"level 0 summand "
                           r"sizes must be at least 1, got \[0\]"):
            TowerSpec([(0,)], [])
        with pytest.raises(TowerValidationError, match=r"level 1 summand "
                           r"sizes must be at least 1, got \[2, 0\]"):
            TowerSpec([(2,), (2, 0)], [(((0, 1), (0, 2)), ())])

    def test_levels_without_summands_are_rejected(self):
        # an empty level would leave every report vacuously true
        with pytest.raises(TowerValidationError,
                           match="level 0 has no summands"):
            TowerSpec([()], [])
        with pytest.raises(TowerValidationError,
                           match="level 1 has no summands"):
            TowerSpec([(2,), ()], [()])

    def test_steps_without_levels_are_rejected(self):
        # with a rule a tower may have no levels, but then no steps either
        rule = BlockRule((2,), (((0, 1),),))
        with pytest.raises(TowerValidationError, match="one embedding per"):
            TowerSpec([], [[((0, 1), (0, 2))]], rule=rule)
        assert TowerSpec([], [], rule=rule).levels == []

    @pytest.mark.parametrize("base, blocks, message", [
        ((2, 1), (((0, 1),), ((2, 1),)),
         r"block 1 token \(2, 1\) names no base summand"),
        ((2, 1), (((0, 1),), ((-1, 1),)),
         r"block 1 token \(-1, 1\) names no base summand"),
        ((2,), (((0, 0),),), r"block 0 token \(0, 0\) has r < 1"),
        ((2, 1), (((0, 1), (1, 1)), ()), "block 1 is empty"),
        ((2, 1), (((0, 1),), ((0, 2),)),
         "names no token for source summand 1"),
        ((2, 0), (((0, 1),), ((1, 1),)), r"size at least 1, got \[2, 0\]"),
        ((), (), r"size at least 1, got \[\]"),
        ((2,), (((0, 1),), ((0, 1),)), "one block per base summand"),
        ((2,), (((0, 1.5),),),
         r"block 0 token \(0, 1\.5\) is not a pair of integers"),
        ((2,), ((("0", 1),),),
         r"block 0 token \('0', 1\) is not a pair of integers"),
    ], ids=["summand-outside-base", "negative-summand", "r-below-1",
            "empty-block", "unnamed-source", "zero-size-base", "empty-base",
            "block-count", "float-r", "string-summand"])
    def test_block_rules_reject_invalid_blocks(self, base, blocks, message):
        # a block rule is checked when it is made, so a bad template is
        # named as one before any of its steps is read
        with pytest.raises(TowerValidationError, match=message):
            BlockRule(base, blocks)

    def test_negative_levels_are_out_of_range(self):
        finite = TowerSpec([(2,), (4,)],
                           [(((0, 1), (0, 2), (0, 1), (0, 2)),)])
        for t in (finite, preset("standard-2")):
            with pytest.raises(LevelRangeError):
                t.shape(-1)
            with pytest.raises(LevelRangeError):
                t.words(-1)
            with pytest.raises(LevelRangeError):
                embed_unit(t, MatrixUnit(-1, 0, 1, 2), 0)
        with pytest.raises(LevelRangeError):
            finite.words(1)

    def test_units_outside_the_shape_are_rejected(self):
        # standard-2 has shape (2,) at level 0
        t = preset("standard-2")
        with pytest.raises(UnitShapeError, match=r"row and col must lie in 1\.\.2"):
            radical_membership(t, MatrixUnit(0, 0, 3, 1))
        with pytest.raises(UnitShapeError, match=r"row and col must lie in 1\.\.2"):
            link_status(t, MatrixUnit(0, 0, 1, 5))
        with pytest.raises(UnitShapeError, match=r"no summand 1 in level 0 shape \[2\]"):
            embed_unit(t, MatrixUnit(0, 1, 1, 2), 1)
        with pytest.raises(UnitShapeError,
                           match="row > col is not upper triangular"):
            t.check_unit(MatrixUnit(0, 0, 2, 1))
        with pytest.raises(UnitShapeError, match="level -1 is not a level"):
            t.check_unit(MatrixUnit(-1, 0, 1, 2))
        t.check_unit(MatrixUnit(0, 0, 1, 2))
        assert isinstance(link_status(t, MatrixUnit(0, 0, 1, 2)), Linked)


class TestSharedPresets:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_one_tower_per_name(self, name):
        shared = preset(name)
        assert preset(name) is shared
        # the `preset NAME` directive of a spec file reads the same tower
        assert parse_tower_file(f"preset {name}\n")[0] is shared
        # the factories still build a new tower on each call
        fresh = PRESETS[name]()
        assert fresh is not shared and PRESETS[name]() is not fresh

    def test_an_unknown_name_is_refused_and_not_kept(self):
        held = preset.cache_info().currsize
        for _ in range(2):
            with pytest.raises(TowerValidationError,
                               match="^unknown preset 'nope'$"):
                preset("nope")
        assert preset.cache_info().currsize == held


class TestElements:
    def test_unit_sum_rejects_overlapping_supports(self):
        with pytest.raises(ValueError, match="overlapping supports"):
            MatrixUnitSum(0, (MatrixUnit(0, 0, 1, 2), MatrixUnit(0, 0, 1, 3)))
        with pytest.raises(ValueError, match="level mismatch"):
            MatrixUnitSum(0, (MatrixUnit(1, 0, 1, 2),))

    def test_support_checks_survive_optimized_mode(self):
        # each check must still raise with asserts stripped
        code = ("from limitalg.crossed import (FiniteAbelianGroup, build_crossed,"
                " links_lemma_check, perm_action, trivial_action)\n"
                "from limitalg.cyclotomic import Cyc\n"
                "from limitalg.dynamics import TowerAction\n"
                "from limitalg.peters import FiniteDynSys\n"
                "from limitalg.tower import MatrixUnit, MatrixUnitSum, preset\n"
                "checks = [\n"
                "    lambda: MatrixUnitSum(0, (MatrixUnit(0, 0, 1, 2),"
                " MatrixUnit(0, 0, 1, 3))),\n"
                "    lambda: perm_action(FiniteAbelianGroup((2,)), (1, 2),"
                " [(1, 0)]),\n"
                "    lambda: Cyc.zero(5).inverse(),\n"
                "    lambda: FiniteDynSys('ab', {'a': 'a', 'b': 'a'}),\n"
                "    lambda: links_lemma_check(build_crossed((2,),"
                " FiniteAbelianGroup(()), trivial_action(FiniteAbelianGroup(()),"
                " (2,)), triangular=False)),\n"
                "    lambda: Cyc(3, [1, 2, 3, 4]) + Cyc.one(3),\n"
                "    lambda: TowerAction(preset('standard-2'),"
                " FiniteAbelianGroup((2,)), []),\n"
                "]\n"
                "for check in checks:\n"
                "    try:\n"
                "        check()\n"
                "    except (ValueError, ZeroDivisionError) as exc:\n"
                "        print(type(exc).__name__, exc)\n")
        src = str(Path(limitalg.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "ValueError overlapping supports in MatrixUnitSum\n"
            "ActionRelationError permuted summands must have equal sizes\n"
            "ZeroDivisionError division by zero in Q(zeta_m)\n"
            "ValueError phi must be a bijection\n"
            "ValueError links lemma check expects a triangular base\n"
            "ValueError coefficient vector too long; reduce first\n"
            "ValueError need exactly one generator map per group factor\n")

    def test_block_multiplication_and_power(self):
        x = Element(0, {(0, 1, 2): 2, (0, 2, 3): 3, (1, 1, 1): 1})
        y = x * x
        assert y.coeffs == {(0, 1, 3): 6, (1, 1, 1): 1}
        assert x.power(3).coeffs == {(1, 1, 1): 1}
        assert x.power(2) == y


class TestOrderBounds:
    def test_preset_steps_satisfy_occurrence_bounds(self):
        for name in ("standard-2", "refinement-2"):
            t = preset(name)
            for level in range(3):
                assert verify_embedding_order(t, level)["ok"]

    def test_random_words_satisfy_occurrence_bounds(self):
        rng = random.Random(12345)
        for _ in range(50):
            w = random_lattice_word((3,), {0: 3}, rng)
            t = TowerSpec([(3,), (9,)], [(w,)])
            assert verify_embedding_order(t, 0)["ok"]

    def test_random_lattice_words_always_validate(self):
        rng = random.Random(99)
        for _ in range(50):
            w = random_lattice_word((2, 3), {0: 2, 1: 1}, rng)
            assert validate_embedding((2, 3), (7,), (w,)).ok


def rescanning_lattice_word(source, reps_per_source, rng):
    """`random_lattice_word` as it was, rescanning every label per step."""
    remaining = {(s, p): reps_per_source[s]
                 for s in range(len(source)) for p in range(1, source[s] + 1)}
    used = {k: 0 for k in remaining}
    word = []
    total = sum(remaining.values())
    for _ in range(total):
        options = [lab for lab, rem in remaining.items()
                   if rem > 0 and (lab[1] == 1 or used[(lab[0], lab[1] - 1)] > used[lab])]
        lab = rng.choice(sorted(options))
        word.append(lab)
        remaining[lab] -= 1
        used[lab] += 1
    return tuple(word)


def test_random_lattice_word_draws_the_rescanning_words():
    # the same option list in the same order, so rng.choice draws the
    # same labels and leaves the generator in the same state
    for seed in range(200):
        rng = random.Random(seed)
        source = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 4)))
        reps = {s: rng.randint(0, 3) for s in range(len(source))}
        a, b = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert random_lattice_word(source, reps, a) == \
                rescanning_lattice_word(source, reps, b)
        assert a.random() == b.random()


def test_decompose_extremal_indices():
    t = preset("refinement-2")
    dec = decompose(t, MatrixUnit(0, 0, 1, 2), 1)
    assert dec.units == (MatrixUnit(1, 0, 1, 3), MatrixUnit(1, 0, 2, 4))
    assert dec.extremal == {0: (2, 3)}
    # the growing TAF example: in summand 1 the max row passes the min col
    taf = preset("paper-example-taf")
    assert decompose(taf, MatrixUnit(1, 0, 1, 2), 2).extremal[1] == (3, 2)


def test_order_audit_bounds_print_as_fractions():
    for num in range(0, 40):
        for den in range(1, 13):
            assert _ratio(num, den) == str(Fraction(num, den))
