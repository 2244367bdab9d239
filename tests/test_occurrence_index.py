"""The per-level occurrence index against a brute-force r-th-occurrence pairing.

Seeded random towers (multi-summand explicit prefixes, a level-dependent
rule tail with rule_start > 0, and a `repeat` tail) are embedded up to
level 8; every image must equal the pairing computed by scanning the
words directly.  The sorted index of each word must give every label the
positions that a label -> positions dict gives it.
"""
import random
from fractions import Fraction

import pytest

from limitalg import links, tower as tower_mod
from limitalg.crossed import FiniteAbelianGroup
from limitalg.dynamics import TowerAction
from limitalg.links import (CertifiedLinkless, Linked, NotLinkedUpTo,
                            certify_linkless, first_link, has_link_at,
                            least_link, link_status)
from limitalg.tower import (PRESETS, BlockRule, MatrixUnit,
                            PaperExampleRule, TowerRule, TowerSpec,
                            TowerValidationError, embed_unit, flat_word,
                            index_step, validate_embedding,
                            verify_embedding_order)
from conftest import random_lattice_word
from test_least_link import (SEEDS, random_tower, reference_chain_step,
                             separating)

TOP = 8


def index_word(word):
    """Label -> increasing 1-based positions: the dict index that the
    sorted one replaced."""
    index = {}
    for q, lab in enumerate(word, start=1):
        index.setdefault(lab, []).append(q)
    return index


def label_positions(indexes):
    """A step's sorted word indexes as label -> positions dicts."""
    out = []
    for order, spans in indexes:
        out.append({(s, p): order[a + (p - 1) * m:a + p * m]
                    for s, (a, m, size) in enumerate(spans) if m
                    for p in range(1, size + 1)})
    return tuple(out)


def brute_pair(words, units, level):
    """Scan each word for the r-th occurrences of every unit's labels."""
    out = []
    for t, word in enumerate(words):
        for u in units:
            rows = [q for q, lab in enumerate(word, 1) if lab == (u.summand, u.row)]
            cols = [q for q, lab in enumerate(word, 1) if lab == (u.summand, u.col)]
            out.extend(MatrixUnit(level, t, r, c) for r, c in zip(rows, cols))
    return out


def random_step(source, mult, rng):
    """Words for target summands receiving mult[t][s] copies of source s."""
    words = tuple(random_lattice_word(source, dict(enumerate(row)), rng)
                  for row in mult)
    target = tuple(len(w) for w in words)
    assert validate_embedding(source, target, words).ok
    return target, words


def random_prefix(base, depth, rng, cap=48):
    """Explicit multi-summand levels: a fresh multiplicity matrix per step,
    entries 0-2, summands of at most `cap`."""
    levels, steps = [tuple(base)], []
    r = len(base)
    for _ in range(depth):
        while True:
            mult = [[rng.choice((0, 1, 1, 2)) for _ in range(r)] for _ in range(r)]
            sizes = [sum(m * k for m, k in zip(row, levels[-1])) for row in mult]
            if (0 < min(sizes) and max(sizes) <= cap
                    and all(any(col) for col in zip(*mult))):
                break
        target, words = random_step(levels[-1], mult, rng)
        levels.append(target)
        steps.append(words)
    return levels, steps


def permutation_words(shape, rng):
    """Identity words of a random permutation of equal-size summands."""
    sigma = list(range(len(shape)))
    for k in sorted(set(shape)):
        same = [s for s in sigma if shape[s] == k]
        for t, s in zip(same, rng.sample(same, len(same))):
            sigma[t] = s
    words = tuple(tuple((sigma[t], p) for p in range(1, k + 1))
                  for t, k in enumerate(shape))
    assert validate_embedding(shape, shape, words).ok
    return words


def permutation_rule(shape, rng):
    """The rule that repeats `permutation_words(shape, rng)` at every
    level: target t takes one standard copy of the summand it carries."""
    words = permutation_words(shape, rng)
    return BlockRule(shape, tuple(((word[0][0], 1),) for word in words))


class FixedRule(TowerRule):
    """One word collection on one shape at every level, valid or not."""

    def __init__(self, shape, words):
        self._shape = shape
        self._words = words

    def shape(self, level):
        return self._shape

    def words(self, level):
        return self._words


class DoublingRule(TowerRule):
    """(a*2^r, a*2^r) with fresh seeded random words at every rule level r."""

    MULT = ((2, 0), (1, 1))

    def __init__(self, a, seed):
        self.a = a
        self.seed = seed

    def shape(self, level):
        return (self.a * 2 ** level,) * 2

    def words(self, level):
        rng = random.Random(f"{self.seed}:{level}")
        return random_step(self.shape(level), self.MULT, rng)[1]


def oracle_words(steps, rule, rule_start):
    def words_at(n):
        return steps[n] if n < len(steps) else rule.words(n - rule_start)
    return words_at


def check_embeddings(tower, words_at, start_levels):
    for start in start_levels:
        # every third unit, the first one included, keeps it quick
        for e in list(tower.units_at(start))[::3]:
            units = [e]
            for n in range(start, TOP):
                units = brute_pair(words_at(n), units, n + 1)
                assert embed_unit(tower, e, n + 1).units == tuple(sorted(units))


class TestEmbedUnitMatchesBruteForce:
    def test_multi_summand_explicit_towers(self):
        for seed in range(4):
            rng = random.Random(seed)
            base = rng.choice(((1, 2), (2, 1), (1, 1, 2)))
            levels, steps = random_prefix(base, TOP, rng)
            tower = TowerSpec(levels, steps)
            check_embeddings(tower, lambda n: steps[n], (0, 3))

    def test_prefix_then_level_dependent_rule_tail(self):
        for seed in range(3):
            rng = random.Random(100 + seed)
            # prefix (1,1) -> (2,2) -> (4,4); the rule starts at (4,4) = rule
            # level 0, so absolute level n is rule level n - 2
            levels, steps = [(1, 1)], []
            for _ in range(2):
                target, words = random_step(levels[-1], DoublingRule.MULT, rng)
                levels.append(target)
                steps.append(words)
            rule = DoublingRule(4, seed)
            tower = TowerSpec(levels, steps, rule=rule)
            check_embeddings(tower, oracle_words(steps, rule, 2),
                             (0, 2, 3))

    def test_prefix_then_repeat_tail(self):
        for seed in range(3):
            rng = random.Random(200 + seed)
            levels, steps = random_prefix((2, 2, 2), 2, rng)
            rule = permutation_rule(levels[-1], rng)
            tower = TowerSpec(levels, steps, rule=rule)
            check_embeddings(tower, oracle_words(steps, rule, len(steps)), (0, 1))


class TestIndexCache:
    def test_prefix_and_tail_levels_keep_separate_entries(self):
        rng = random.Random(7)
        levels, steps = [(1, 1)], []
        for _ in range(2):
            target, words = random_step(levels[-1], DoublingRule.MULT, rng)
            levels.append(target)
            steps.append(words)
        rule = DoublingRule(4, 7)
        tower = TowerSpec(levels, steps, rule=rule)
        # absolute level 2 is rule level 0: it must not reuse step 0's entry
        for n in range(TOP):
            expected = steps[n] if n < 2 else rule.words(n - 2)
            assert label_positions(tower.occurrences(n)) == tuple(
                index_word(w) for w in expected)
        for n in (0, 1):
            assert label_positions(tower.occurrences(n)) != \
                label_positions(tower.occurrences(n + 2))

    def test_words_read_once_per_level(self):
        # the index reads each step's words in the form it indexes them
        tower = TowerSpec(rule=DoublingRule(1, 3))
        calls = []
        original = tower.flat_words

        def counting(n):
            calls.append(n)
            return original(n)

        tower.flat_words = counting
        for e in list(tower.units_at(0)) + list(tower.units_at(2)):
            embed_unit(tower, e, 6)
        assert sorted(calls) == list(range(6))

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_levels_are_indexed_once_without_words(self, name,
                                                          monkeypatch):
        # a preset's steps are indexed by `index_step`, as every step is:
        # each level's words are read, and its index built, once, when
        # the level is first read
        tower = PRESETS[name]()
        words, indexed = [], []
        original_words, original_index = tower.flat_words, tower_mod.index_step

        def reading(level):
            words.append(level)
            return original_words(level)

        def counting(source, target, flat):
            indexed.append(source)
            return original_index(source, target, flat)

        tower.flat_words = reading
        monkeypatch.setattr(tower_mod, "index_step", counting)
        for e in list(tower.units_at(0)) + list(tower.units_at(2)):
            embed_unit(tower, e, 6)
            link_status(tower, e, 6)
        assert sorted(words) == list(range(6))
        assert indexed == [tower.shape(n) for n in range(6)]


def repeat_tail_tower(seed):
    """A random multi-summand prefix of 2 steps, then a summand
    permutation repeated forever, as a `repeat` tail gives."""
    rng = random.Random(500 + seed)
    levels, steps = random_prefix((2, 1, 2), 2, rng)
    rule = permutation_rule(levels[-1], rng)
    return TowerSpec(levels, steps, rule=rule)


def deep_towers():
    """Seeded random finite towers to level 8, and `repeat`-tail towers."""
    towers = [TowerSpec(*random_prefix(base, TOP, random.Random(seed), 16))
              for seed, base in enumerate(((1, 2), (2, 1), (1, 1, 2)))]
    return towers + [repeat_tail_tower(seed) for seed in range(3)]


def test_first_link_matches_all_pairs_to_level_eight():
    # the extremal (I, J) recurrence against the least link of the built
    # image at every level
    linked = 0
    for tower in deep_towers():
        for start in range(3):
            for e in tower.units_at(start):
                found = first_link(tower, e, TOP)
                assert found == reference_chain_step(tower, e, TOP), e
                linked += found is not None and found[0].level > start
    assert linked


def test_witness_read_off_the_index_is_the_least_link_of_the_image():
    # `links._link_at` reads level n from step n-1's index; `least_link`
    # on the image built at n is the witness it replaced.  Every level at
    # which a unit links is tried, not only the least one
    cases = [(PRESETS[name](), 3) for name in PRESETS]
    cases += [(tower, TOP) for tower in deep_towers()]
    linked = 0
    for tower, top in cases:
        for start in range(min(top, 3) + 1):
            for e in tower.units_at(start):
                for n in range(start, top + 1):
                    img = embed_unit(tower, e, n).units
                    found = least_link(img, img)
                    if found is None:
                        continue
                    a, b = found
                    assert links._link_at(tower, e, n) == (
                        MatrixUnit(n, a.summand, a.col, b.row),
                        MatrixUnit(n, a.summand, a.row, b.col)), (e, n)
                    linked += n > start
    assert linked > 1000


class TestApplyGenMatchesBruteForce:
    def test_generator_chains_to_level_eight(self):
        for seed in range(3):
            rng = random.Random(300 + seed)
            levels, steps = random_prefix((2, 2), TOP, rng)
            tower = TowerSpec(levels, steps)
            # generator 0 steps one level up with its own random words;
            # generator 1 permutes equal-size summands within a level
            up, same = {}, {}
            for n in range(TOP):
                mult = [[sum(1 for lab in w if lab == (s, 1))
                         for s in range(len(levels[n]))] for w in steps[n]]
                up[n] = (n + 1, random_step(levels[n], mult, rng)[1])
                same[n] = (n, permutation_words(levels[n], rng))
            action = TowerAction(tower, FiniteAbelianGroup((TOP + 1, 2)),
                                 [up, same])
            for e in tower.units_at(0):
                units, level = [e], 0
                expected = [e]
                while level < TOP:
                    for gen in (1, 0):
                        target, words = action.map_at(gen, level)
                        expected = brute_pair(words, expected, target)
                        units, level = action.apply_gen(gen, units, level)
                        assert level == target
                        assert units == expected
            # a second pass reads the cached index and gives the same images
            for e in tower.units_at(1):
                first = action.apply_gen(0, [e], 1)
                assert action.apply_gen(0, [e], 1) == first
                assert first[0] == brute_pair(up[1][1], [e], 2)


class TestSortedIndexMatchesLabelPositions:
    def test_seeded_multi_source_ballot_words(self):
        rng = random.Random(4242)
        for _ in range(400):
            source = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 4)))
            words = tuple(
                random_lattice_word(source, {s: rng.randint(0, 3)
                                             for s in range(len(source))}, rng)
                for _ in range(rng.randint(1, 3)))
            # every source reaches the first word, so the step is injective
            words = (random_lattice_word(
                source, {s: 1 for s in range(len(source))}, rng),) + words
            target = tuple(len(w) for w in words)
            indexes = index_step(source, target, list(map(flat_word, words)))
            assert indexes is not None
            assert label_positions(indexes) == tuple(map(index_word, words))
            for (order, spans), word in zip(indexes, words):
                assert sorted(order) == list(range(1, len(word) + 1))
                assert len(spans) == len(source)

    def test_least_link_random_towers(self):
        for seed in SEEDS:
            tower, twists = random_tower(seed)
            for n in range(tower.max_level):
                assert label_positions(tower.occurrences(n)) == tuple(
                    map(index_word, tower.words(n)))
                target, words = twists[n]
                assert label_positions(index_step(
                    tower.shape(n), tower.shape(target),
                    list(map(flat_word, words)))) == tuple(
                        map(index_word, words))

    def test_preset_levels(self):
        for name, make in PRESETS.items():
            tower = make()
            for n in range(10):
                assert label_positions(tower.occurrences(n)) == tuple(
                    map(index_word, tower.words(n))), (name, n)

    def test_rule_base_unlike_the_last_level_is_validated(self):
        # a rule's steps start from its own base, so a tower refuses a
        # rule whose base differs from its last explicit level when it is
        # made, before any step is read
        refine = BlockRule((2,), (((0, 2),),))
        for levels, steps in (([(3,)], []), ([(2, 2)], []),
                              ([(1,), (2,), (4,)],
                               [(((0, 1), (0, 1)),),
                                (((0, 1), (0, 2), (0, 1), (0, 2)),)])):
            with pytest.raises(TowerValidationError,
                               match=r"rule base \[2\] differs from the last"):
                TowerSpec(levels, steps, rule=refine)

    def test_a_separating_tail_reads_the_step_into_it(self):
        # a unit is certified one step past the rule's start, so a walk
        # from at or below it reads the step into the rule; a base unlike
        # the last explicit level is refused before any unit is certified,
        # and one like it certifies the units that step leaves unlinked
        step = [(((0, 1), (0, 1), (0, 2), (0, 2)),)]
        with pytest.raises(TowerValidationError,
                           match=r"rule base \[2\] differs from the last "
                                 r"level 1 shape \[4\]"):
            TowerSpec([(2,), (4,)], step, rule=BlockRule((2,), (((0, 2),),)))
        tower = TowerSpec([(2,), (4,)], step,
                          rule=BlockRule((4,), (((0, 2),),)))
        for e in (MatrixUnit(0, 0, 1, 2), MatrixUnit(1, 0, 1, 2)):
            assert link_status(tower, e) == CertifiedLinkless("separation")

    def test_invalid_rule_step_raises_on_first_use(self):
        # the step into a rule is indexed, and so validated, on first use
        tower = TowerSpec(rule=FixedRule((2,), (((0, 2), (0, 1)),)))
        with pytest.raises(TowerValidationError, match="LATTICE"):
            tower.occurrences(0)
        # no rule vouches for its own step: a block rule and the paper's
        # example are refused once their words break the ballot order
        for rule in (BlockRule((2,), (((0, 1),),)), PaperExampleRule()):
            words = rule.flat_words(0)
            words[0][1::2] = reversed(words[0][1::2])
            rule.flat_words = lambda level, words=words: words
            with pytest.raises(TowerValidationError, match="LATTICE"):
                TowerSpec(rule=rule).occurrences(0)


def reference_certificate(tower, e):
    """`links.certify_linkless` from words scanned label by label.

    e's image is paired by `brute_pair`, and a separation certificate
    needs no link at any level from e's own to two past the later of
    e's level and the rule's start: one past the last level that
    `links._decide` reads.
    """
    if e.diagonal:
        return None
    if links._reachable_frozen(tower, e):
        return CertifiedLinkless("frozen")
    if not separating(tower.rule):
        return None
    units = [e]
    for n in range(e.level, max(e.level, tower.rule_start) + 2):
        units = brute_pair(tower.words(n), units, n + 1)
        cols = {}
        for u in units:
            cols[u.summand] = min(u.col, cols.get(u.summand, u.col))
        if any(cols[u.summand] <= u.row for u in units):
            return None
    return CertifiedLinkless("separation")


class RandomTUHFRule(TowerRule):
    """T_(2^(n+1)) -> T_(2^(n+2)) with a fresh seeded ballot word per level."""

    def __init__(self, seed):
        self.seed = seed

    def shape(self, level):
        return (2 * 2 ** level,)

    def words(self, level):
        rng = random.Random(f"{self.seed}:{level}")
        return (random_lattice_word(self.shape(level), {0: 2}, rng),)


def scanned_link_level(words, e, top):
    """The least level <= top at which the TUHF unit e links, or None,
    where `words[n]` is the word of step n -> n+1.

    Each level's extremal pair (I, J), the largest row and the least col
    of e's image, is read by scanning a dict index of the word over every
    p <= I and every p >= J: the reads that `links._climb` makes in O(1).
    """
    max_row, min_col, level = e.row, e.col, e.level
    while min_col > max_row:
        if level == top:
            return None
        occ = index_word(words[level])
        max_row = max(qs[-1] for (_, p), qs in occ.items() if p <= max_row)
        min_col = min(qs[0] for (_, p), qs in occ.items() if p >= min_col)
        level += 1
    return level


def test_climb_reads_match_the_scan_on_seeded_ballot_words():
    # the O(1) reads of the last occurrence of (0, I) and the first of
    # (0, J) against the scan over every p <= I and p >= J
    top = 4
    above = 0
    for seed in range(20):
        tower = TowerSpec(rule=RandomTUHFRule(seed))
        words = [tower.words(n)[0] for n in range(top)]
        for level in range(3):
            for e in tower.units_at(level):
                n = scanned_link_level(words, e, top)
                assert link_status(tower, e, top) == (
                    NotLinkedUpTo(top) if n is None
                    else Linked(n, has_link_at(tower, e, n))), e
                above += n is not None and n > level + 1
    assert above


def reference_order_audit(tower, level):
    """`verify_embedding_order` reading a dict index's first and last
    positions."""
    n = tower.shape(level)[0]
    m = tower.shape(level + 1)[0]
    index = index_word(tower.words(level)[0])
    entries, violations = [], []
    for i in range(1, n + 1):
        occ = index[(0, i)]
        lo_bound = Fraction(i - 1, 1) * Fraction(m, n) + 1
        hi_bound = Fraction(i, 1) * Fraction(m, n)
        ok = Fraction(occ[0]) <= lo_bound and Fraction(occ[-1]) >= hi_bound
        entries.append({"diagonal": i, "first": occ[0], "last": occ[-1],
                        "first_bound": str(lo_bound),
                        "last_bound": str(hi_bound), "ok": ok})
        if not ok:
            violations.append(i)
    return {"level": level, "source": n, "target": m,
            "entries": entries, "violations": violations, "ok": not violations}


@pytest.mark.parametrize("name", ["standard-2", "refinement-2",
                                  "paper-example-taf"])
def test_walk_reads_match_the_dict_index_scans(name):
    tower = PRESETS[name]()
    for level in range(4):
        for e in tower.units_at(level):
            assert certify_linkless(tower, e) == \
                reference_certificate(tower, e), e
        if tower.is_tuhf_at(level) and tower.is_tuhf_at(level + 1):
            assert verify_embedding_order(tower, level) == \
                reference_order_audit(tower, level)
        else:
            with pytest.raises(TowerValidationError):
                verify_embedding_order(tower, level)
