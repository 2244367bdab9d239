"""Finite stages of triangular limit algebras presented by embedding words.

A tower is a sequence of multi-matrix triangular algebras (level shapes)
together with one embedding word collection per consecutive level pair.
Each target summand carries a word of diagonal labels (source summand,
diagonal position); the embedding sends the r-th occurrence of a row
label to pair with the r-th occurrence of a column label.  Diagonal
unitary twists are ignored throughout: only supports matter for every
criterion implemented here.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import chain, repeat
from math import gcd
from operator import itemgetter, lt
from typing import NamedTuple

from .algebra import multi_matrix_units

Label = tuple[int, int]  # (source summand index, 1-based diagonal position)
Word = tuple[Label, ...]
# The form words travel in from the parser to the index: [s0, p0, s1, p1, ...]
FlatWord = list[int]
# A word's 1-based positions stably sorted by label, and per source s the
# span (start, m, size): the m positions of (s, p) are
# order[start + (p-1)*m : start + p*m], in increasing order.
Span = tuple[int, int, int]
WordIndex = tuple[list[int], tuple[Span, ...]]


class LevelRangeError(ValueError):
    pass


class UnitShapeError(LevelRangeError):
    """A matrix unit that is not a unit of its level's algebra."""


class TowerValidationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# matrix units and exact elements


class MatrixUnit(NamedTuple):
    level: int
    summand: int
    row: int
    col: int

    def key(self) -> tuple[int, int, int]:
        return (self.summand, self.row, self.col)

    @property
    def diagonal(self) -> bool:
        return self.row == self.col


_new_unit = tuple.__new__  # _new_unit(MatrixUnit, fields): no Python frame
_ROW_SUPPORT = itemgetter(1, 2)  # (summand, row)
_COL_SUPPORT = itemgetter(1, 3)  # (summand, col)


@dataclass(frozen=True)
class MatrixUnitSum:
    level: int
    units: tuple[MatrixUnit, ...]

    def __post_init__(self):
        if any(u.level != self.level for u in self.units):
            raise ValueError("level mismatch in MatrixUnitSum")
        units = tuple(sorted(set(self.units)))
        object.__setattr__(self, "units", units)
        # orthogonal supports per summand
        for axis in (_ROW_SUPPORT, _COL_SUPPORT):
            if len(set(map(axis, units))) != len(units):
                raise ValueError("overlapping supports in MatrixUnitSum")

    def to_element(self) -> "Element":
        return Element(self.level, {u.key(): Fraction(1) for u in self.units})


class Element:
    """Exact linear combination of matrix-unit coordinates at one level.

    Coefficients may be Fraction or Cyc; zero coefficients are dropped.
    Arithmetic does not enforce upper-triangularity (the extremal
    factorization checks need lower-triangular units), but everything
    produced by tower embeddings stays upper-triangular.
    """

    __slots__ = ("level", "coeffs")

    def __init__(self, level: int, coeffs: dict):
        self.level = level
        self.coeffs = {k: v for k, v in coeffs.items() if v}

    @staticmethod
    def from_unit(u: MatrixUnit) -> "Element":
        return Element(u.level, {u.key(): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, Element) and self.level == other.level
                and self.coeffs == other.coeffs)

    def __mul__(self, other: "Element") -> "Element":
        if self.level != other.level:
            raise ValueError("level mismatch in Element multiplication")
        out: dict = {}
        right_by_row: dict = {}
        for (s, r, c), v in other.coeffs.items():
            right_by_row.setdefault((s, r), []).append((c, v))
        for (s, i, j), a in self.coeffs.items():
            for c, b in right_by_row.get((s, j), ()):
                k = (s, i, c)
                out[k] = out.get(k, 0) + a * b
        return Element(self.level, out)

    def power(self, n: int) -> "Element":
        if n < 1:
            raise ValueError("power requires n >= 1")
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __repr__(self):
        items = ", ".join(f"{k}:{v}" for k, v in sorted(self.coeffs.items()))
        return f"Element(level={self.level}, {{{items}}})"


# ---------------------------------------------------------------------------
# embedding word validation


def flat_word(word: Word) -> FlatWord:
    """[s0, p0, s1, p1, ...] from the labels (s0, p0), (s1, p1), ..."""
    if not set(map(len, word)) <= {2}:
        raise TowerValidationError("every label must be a pair (s, p)")
    return list(chain.from_iterable(word))


def label_word(flat: FlatWord) -> Word:
    """The labels of a flat word: the one decoder back to tuple words."""
    numbers = iter(flat)
    return tuple(zip(numbers, numbers))


@dataclass
class ValidationReport:
    """The verdict on one embedding step.

    `violations` names every broken invariant of a rejected step.
    `occurrences` holds, per target summand, the sorted index of its word
    (`index_step`) when the step is valid, and is empty otherwise.
    """

    ok: bool
    violations: list[dict] = field(default_factory=list)
    occurrences: tuple[WordIndex, ...] = field(default=(), repr=False)


def index_step(source: tuple[int, ...], target: tuple[int, ...],
               words: list[FlatWord]) -> tuple[WordIndex, ...] | None:
    """The sorted index of every (flat) word of a valid step, or None.

    Label (s, p) gets the code s*big + p with big = max(source) + 1, and
    a label with p outside 1..big-1 gets -1, so distinct labels in range
    get distinct codes and source s owns the codes s*big+1 .. s*big+big-1.
    One stable sort of the positions by code gives `order`.  In the sorted
    codes `sc`, each source met owns one run [a, b), found by one bisect;
    COUNT and LABEL hold for s iff the run splits into `size` blocks of m
    whose first and last codes are s*big+1, s*big+2, ..., and the runs
    cover the whole word.  LATTICE (every prefix holds at least as many
    (s, p-1) as (s, p)) is then order[i] < order[i+m] across the run.
    SHAPE and INJECTIVE are length and reach checks.  Only the list of
    codes is built label by label, and a word takes no Python step for a
    source it does not meet: that span stays (0, 0, size).
    """
    if len(words) != len(target) or min(source, default=1) < 1:
        return None
    big = max(source, default=0) + 1
    top = len(source) * big
    unmet = list(zip(repeat(0), repeat(0), source))
    reached: set[int] = set()
    indexes = []
    for word, n in zip(words, target):
        if len(word) != 2 * n:
            return None
        numbers = iter(word)
        codes = [s * big + p if 0 < p < big else -1
                 for s, p in zip(numbers, numbers)]
        sc = sorted(codes)
        if sc and not 0 < sc[0] <= sc[-1] < top:
            return None
        # labels already in code order (identity and refinement words)
        # keep their positions in place and cannot break the ballot
        ordered = sc == codes
        if ordered:
            order = list(range(1, n + 1))
        else:
            codes.insert(0, 0)  # position q reads codes[q]
            order = sorted(range(1, n + 1), key=codes.__getitem__)
        spans = unmet.copy()
        b = 0
        while b < n:
            a = b
            s = sc[a] // big
            lo, size = s * big, source[s]
            b = bisect_left(sc, lo + big, a)
            m, rest = divmod(b - a, size)
            run = list(range(lo + 1, lo + size + 1))
            if rest or sc[a:b:m] != run or sc[a + m - 1:b:m] != run:
                return None
            if not (ordered or all(map(lt, order[a:b], order[a + m:b]))):
                return None
            reached.add(s)
            spans[s] = (a, m, size)
        indexes.append((order, tuple(spans)))
    if len(reached) != len(source):
        return None
    return tuple(indexes)


def _violations(source: tuple[int, ...], target: tuple[int, ...],
                words: tuple[Word, ...]) -> list[dict]:
    """Every violation of a step, named in one scan per word.

    Per word: SHAPE, then LABEL per position, COUNT per source from the
    label counts, and LATTICE at the first prefix where the running count
    of some (s, p) exceeds that of (s, p-1), once per source.  INJECTIVE
    names each source that no word meets.
    """
    if len(words) != len(target):
        return [{"kind": "SHAPE",
                 "detail": "one word per target summand required"}]
    violations: list[dict] = []
    reached: set[int] = set()
    for t, (word, n) in enumerate(zip(words, target)):
        if len(word) != n:
            violations.append({"kind": "SHAPE", "target": t,
                               "detail": f"word length {len(word)} != target size {n}"})
        violations += [{"kind": "LABEL", "target": t, "position": q,
                        "label": [s, p]}
                       for q, (s, p) in enumerate(word, start=1)
                       if not (0 <= s < len(source) and 1 <= p <= source[s])]
        counts = Counter(word)
        for s, size in enumerate(source):
            per_pos = [counts[s, p] for p in range(1, size + 1)]
            if len(set(per_pos)) > 1:
                violations.append({"kind": "COUNT", "target": t, "source": s,
                                   "counts": per_pos})
        running: Counter = Counter()
        broken: set[int] = set()
        for q, (s, p) in enumerate(word, start=1):
            running[s, p] += 1
            if p > 1 and s not in broken and running[s, p] > running[s, p - 1]:
                broken.add(s)
                violations.append({"kind": "LATTICE", "target": t, "source": s,
                                   "positions": [p - 1, p], "prefix": q})
        reached.update(s for s, _ in word)
    violations += [{"kind": "INJECTIVE", "source": s}
                   for s in range(len(source)) if s not in reached]
    return violations


def validate_embedding(source: tuple[int, ...], target: tuple[int, ...],
                       words: tuple[Word, ...]) -> ValidationReport:
    """Check COUNT, LATTICE, INJECTIVE and shape invariants; report-style.

    A valid step is decided and indexed by `index_step` alone, on the
    flat words, and the report keeps its index.  Only a step it rejects
    is scanned label by label, to name every violation.
    """
    indexes = index_step(source, target, [flat_word(w) for w in words])
    if indexes is not None:
        return ValidationReport(True, [], indexes)
    return ValidationReport(False, _violations(source, target, words))


def _invalid_step(n: int, source: tuple[int, ...], target: tuple[int, ...],
                  words: list[FlatWord]) -> TowerValidationError:
    """The error for step n -> n+1, which `index_step` rejected."""
    violations = _violations(source, target, tuple(map(label_word, words)))
    return TowerValidationError(f"embedding {n}->{n + 1} invalid: {violations}")


# ---------------------------------------------------------------------------
# tower rules (level generators for stationary / preset towers)


class TowerRule:
    """Generates shapes and embedding steps for every level.

    A rule defines `words` or `flat_words`; each defaults to the other.
    Its steps are validated and indexed by `index_step`, as every other
    step is (`TowerSpec.occurrences`).
    """

    self_similar = False      # transfer maps commute with K-normalization
    pattern_closed = False    # Example-4.3 shape: identity carries + fixed new word
    separating = False        # one summand, one token (s, r): no new links

    def shape(self, level: int) -> tuple[int, ...]:
        raise NotImplementedError

    def words(self, level: int) -> tuple[Word, ...]:
        return tuple(map(label_word, self.flat_words(level)))

    def flat_words(self, level: int) -> list[FlatWord]:
        return [flat_word(w) for w in self.words(level)]

    def frozen_forever(self, summand: int) -> bool:
        """Whether `summand` is identity-carried at every rule level."""
        return False


class BlockRule(TowerRule):
    """A stationary block template on a fixed number of summands.

    `blocks[t]` lists target t's tokens (s, r): t takes source summand s
    as an r-fold refinement, each label (s, p) repeated r times in a run,
    and r = 1 is a standard copy.  Level 0 has shape `base`, and
    K(n+1)_t = sum of r * K(n)_s over t's tokens.
    """

    self_similar = True

    def __init__(self, base: tuple[int, ...],
                 blocks: tuple[tuple[tuple[int, int], ...], ...]):
        base = tuple(base)
        if not base or min(base) < 1:
            raise TowerValidationError(
                f"block rule base must have summands of size at least 1, "
                f"got {list(base)}")
        if len(blocks) != len(base):
            raise TowerValidationError(
                f"block rule needs one block per base summand: "
                f"{len(blocks)} blocks for {len(base)} summands")
        for t, block in enumerate(blocks):
            if not block:
                raise TowerValidationError(f"block {t} is empty")
            for s, r in block:
                if not (isinstance(s, int) and isinstance(r, int)):
                    raise TowerValidationError(
                        f"block {t} token ({s!r}, {r!r}) is not a pair of "
                        f"integers")
                if not 0 <= s < len(base):
                    raise TowerValidationError(
                        f"block {t} token ({s}, {r}) names no base summand")
                if r < 1:
                    raise TowerValidationError(
                        f"block {t} token ({s}, {r}) has r < 1")
        named = Counter(s for block in blocks for s, _ in block)
        unnamed = [s for s in range(len(base)) if not named[s]]
        if unnamed:
            raise TowerValidationError(
                f"block rule names no token for source summand {unnamed[0]}")
        self.blocks = blocks
        self.separating = len(blocks) == 1 and len(blocks[0]) == 1
        self._shapes = [base]
        # s -> t where t's whole block is ((s, 1),) and no other token names s
        self._carry = {block[0][0]: t for t, block in enumerate(blocks)
                       if len(block) == 1 and block[0][1] == 1
                       and named[block[0][0]] == 1}

    def shape(self, level: int) -> tuple[int, ...]:
        shapes = self._shapes
        while len(shapes) <= level:
            k = shapes[-1]
            shapes.append(tuple(sum(r * k[s] for s, r in block)
                                for block in self.blocks))
        return shapes[level]

    def flat_words(self, level: int) -> list[FlatWord]:
        k = self.shape(level)
        words = []
        for block in self.blocks:
            word: FlatWord = []
            for s, r in block:
                run = [s] * (2 * r * k[s])
                run[1::2] = sorted(list(range(1, k[s] + 1)) * r)
                word += run
            words.append(word)
        return words

    def frozen_forever(self, summand: int) -> bool:
        # the carries form a partial injection, so a walk that does not
        # end returns to `summand`: identity-carried at every level
        s = self._carry.get(summand)
        while s is not None and s != summand:
            s = self._carry.get(s)
        return s is not None


class PaperExampleRule(TowerRule):
    """T_2 plus a growing stack of identically-carried T_4 summands.

    Level n has shape (2, 4, ..., 4) with n copies of 4.  The step keeps
    the T_2 summand, doubles it into a fresh T_4, and carries every old
    T_4 to the next slot by an identity word.
    """

    pattern_closed = True

    def shape(self, level: int) -> tuple[int, ...]:
        return (2,) + (4,) * level

    def flat_words(self, level: int) -> list[FlatWord]:
        return [[0, 1, 0, 2], [0, 1, 0, 2, 0, 1, 0, 2]] + [
            [m, 1, m, 2, m, 3, m, 4] for m in range(1, level + 1)]

    def frozen_forever(self, summand: int) -> bool:
        return summand >= 1


# ---------------------------------------------------------------------------
# tower spec


class TowerSpec:
    """Levels, embedding words, and optional generating rule.

    The explicit steps are kept as flat words (`flat_steps`); `steps` and
    `words(n)` decode them to tuple words (`label_word`) when asked.
    The rule, if any, takes over after the explicit steps: `rule_start`
    is `len(flat_steps)`, the last explicit level is the rule's level 0
    (a rule whose base has another shape is refused), and absolute level
    n is rule level n - rule_start.
    """

    def __init__(self, levels: list[tuple[int, ...]] | None = None,
                 steps: list[tuple[Word, ...]] | None = None,
                 rule: TowerRule | None = None):
        self._build(levels, [[flat_word(w) for w in s] for s in steps or ()],
                    rule)

    @classmethod
    def from_flat_steps(cls, levels: list[tuple[int, ...]],
                        flat_steps: list[list[FlatWord]],
                        rule: TowerRule | None) -> "TowerSpec":
        """A tower whose explicit steps are given as flat words."""
        tower = cls.__new__(cls)
        tower._build(levels, flat_steps, rule)
        return tower

    def _build(self, levels, flat_steps, rule) -> None:
        self.levels = [tuple(l) for l in (levels or [])]
        self.flat_steps = list(flat_steps)
        self.rule = rule
        self.rule_start = len(self.flat_steps)
        self._occurrences: dict[int, tuple[WordIndex, ...]] = {}
        if rule is None and not self.levels:
            raise TowerValidationError("tower needs levels or a rule")
        if ((self.levels or self.flat_steps)
                and len(self.flat_steps) != len(self.levels) - 1):
            raise TowerValidationError("need exactly one embedding per level pair")
        for n, shape in enumerate(self.levels):
            if not shape:
                raise TowerValidationError(f"level {n} has no summands")
            if any(k < 1 for k in shape):
                raise TowerValidationError(
                    f"level {n} summand sizes must be at least 1, "
                    f"got {list(shape)}")
        for n, words in enumerate(self.flat_steps):
            source, target = self.levels[n], self.levels[n + 1]
            index = index_step(source, target, words)
            if index is None:
                raise _invalid_step(n, source, target, words)
            self._occurrences[n] = index
        if rule is not None and self.levels and rule.shape(0) != self.levels[-1]:
            raise TowerValidationError(
                f"rule base {list(rule.shape(0))} differs from the last "
                f"level {len(self.levels) - 1} shape {list(self.levels[-1])}")

    @property
    def finite(self) -> bool:
        return self.rule is None

    @property
    def max_level(self) -> int | None:
        return None if self.rule is not None else len(self.levels) - 1

    def has_level(self, n: int) -> bool:
        if n < 0:
            return False
        return self.rule is not None or n < len(self.levels)

    def top(self, horizon: int) -> int:
        """The last level a search up to `horizon` can reach."""
        return horizon if self.max_level is None else min(horizon, self.max_level)

    def shape(self, n: int) -> tuple[int, ...]:
        if 0 <= n < len(self.levels):
            return self.levels[n]
        if not self.has_level(n):
            raise LevelRangeError(f"level {n} out of range")
        return self.rule.shape(n - self.rule_start)

    @property
    def steps(self) -> list[tuple[Word, ...]]:
        """The explicit steps' words, decoded to tuple words."""
        return [tuple(map(label_word, words)) for words in self.flat_steps]

    def words(self, n: int) -> tuple[Word, ...]:
        """Embedding words for the step level n -> n+1."""
        return tuple(map(label_word, self.flat_words(n)))

    def flat_words(self, n: int) -> list[FlatWord]:
        """`words(n)` as flat words, the form an explicit step is kept in
        (the tower's own lists: not to be changed)."""
        if n < 0 or not self.has_level(n + 1):
            raise LevelRangeError(f"no embedding at level {n}")
        if n < len(self.flat_steps):
            return self.flat_steps[n]
        return self.rule.flat_words(n - self.rule_start)

    def occurrences(self, n: int) -> tuple[WordIndex, ...]:
        """Per target summand of step n -> n+1: the sorted index of its
        word (`index_step`), whose slices give each label's positions.

        An explicit step keeps the index its validation built.  A rule
        step is indexed on first use from `flat_words(n)` by `index_step`,
        which raises TowerValidationError if the step is not a valid
        embedding, and kept for the tower's life, keyed by the absolute
        level n.
        """
        index = self._occurrences.get(n)
        if index is None:
            words = self.flat_words(n)  # refuses a level with no step
            source, target = self.shape(n), self.shape(n + 1)
            index = index_step(source, target, words)
            if index is None:
                raise _invalid_step(n, source, target, words)
            self._occurrences[n] = index
        return index

    def check_unit(self, e: MatrixUnit) -> None:
        """Raise UnitShapeError unless `e` is a unit of its level's
        triangular algebra: in the level's shape, with row <= col."""
        if not self.has_level(e.level):
            raise UnitShapeError(
                f"level {e.level} is not a level of the tower")
        shape = self.shape(e.level)
        if not 0 <= e.summand < len(shape):
            raise UnitShapeError(f"no summand {e.summand} in level {e.level} "
                                 f"shape {list(shape)}")
        size = shape[e.summand]
        if not (1 <= e.row <= size and 1 <= e.col <= size):
            raise UnitShapeError(f"row and col must lie in 1..{size}")
        if e.row > e.col:
            raise UnitShapeError("row > col is not upper triangular")

    def frozen_carry(self, level: int, summand: int) -> int | None:
        """Target summand that identity-carries `summand` exclusively,
        if any."""
        words = self.flat_words(level)
        targets = [t for t, w in enumerate(words) if summand in w[0::2]]
        if len(targets) != 1:
            return None
        size = self.shape(level)[summand]
        carry = chain.from_iterable(zip(repeat(summand), range(1, size + 1)))
        return targets[0] if words[targets[0]] == list(carry) else None

    def units_at(self, level: int):
        """All matrix units at a level, canonical (summand,row,col) order."""
        return (MatrixUnit(level, *key)
                for key in multi_matrix_units(self.shape(level), True))

    def is_tuhf_at(self, level: int) -> bool:
        return len(self.shape(level)) == 1


# ---------------------------------------------------------------------------
# embedding of units and elements


def pair_occurrences(index: tuple[WordIndex, ...],
                     units: list[MatrixUnit], level: int) -> list[MatrixUnit]:
    """Images of `units` under indexed words: the r-th occurrence of the
    row label pairs with the r-th occurrence of the column label.

    Every unit must lie in the source shape of the index.
    """
    out: list[MatrixUnit] = []
    # infinite iterators, shared by every zip below
    cls, levels = repeat(MatrixUnit), repeat(level)
    for t, (order, spans) in enumerate(index):
        targets = repeat(t)
        for _, s, i, j in units:
            a, m, _ = spans[s]
            if m:
                out += map(_new_unit, cls, zip(
                    levels, targets, order[a + (i - 1) * m:a + i * m],
                    order[a + (j - 1) * m:a + j * m]))
    return out


def images(tower: TowerSpec, units: list[MatrixUnit], top: int):
    """Yield (n, images of `units` at level n) for n = level..top, where
    `units` is a non-empty list of units of one level.

    Each level is paired from the one before, and every unit is checked
    (`TowerSpec.check_unit`) on the first step even when top < level,
    where nothing is yielded.
    """
    level = units[0].level
    for u in units:
        tower.check_unit(u)
    for n in range(level, top + 1):
        if n > level:
            units = pair_occurrences(tower.occurrences(n - 1), units, n)
        yield n, units


def embed_unit(tower: TowerSpec, e: MatrixUnit, target_level: int) -> MatrixUnitSum:
    """Image of a matrix unit at a later level (r-th-occurrence pairing)."""
    if target_level < e.level or not tower.has_level(target_level):
        raise LevelRangeError(
            f"target level {target_level} out of range for unit at {e.level}")
    for _, units in images(tower, [e], target_level):
        pass
    return MatrixUnitSum(target_level, tuple(units))


def embed_element(tower: TowerSpec, x: Element, target_level: int) -> Element:
    if target_level < x.level:
        raise LevelRangeError("cannot embed to an earlier level")
    out: dict = {}
    for (s, i, j), v in x.coeffs.items():
        img = embed_unit(tower, MatrixUnit(x.level, s, i, j), target_level)
        for u in img.units:
            k = u.key()
            out[k] = out.get(k, 0) + v
    return Element(target_level, out)


@dataclass
class Decomposition:
    units: tuple[MatrixUnit, ...]
    extremal: dict[int, tuple[int, int]]  # summand -> (I = max row, J = min col)


def decompose(tower: TowerSpec, e: MatrixUnit, level: int) -> Decomposition:
    """Subordinates of e at `level` plus per-summand extremal index pairs."""
    img = embed_unit(tower, e, level)
    extremal: dict[int, tuple[int, int]] = {}
    for u in img.units:
        big_i, small_j = extremal.get(u.summand, (0, None))
        extremal[u.summand] = (max(big_i, u.row),
                               u.col if small_j is None else min(small_j, u.col))
    return Decomposition(img.units, extremal)


# ---------------------------------------------------------------------------
# embedding-order audit (diagonal occurrence bounds for unital TUHF steps)


def _ratio(num: int, den: int) -> str:
    """`str(Fraction(num, den))` for den > 0, reduced by one gcd."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def verify_embedding_order(tower: TowerSpec, level: int) -> dict:
    """Audit min/max occurrence bounds of diagonal units across one step.

    For a unital single-summand step T_n -> T_m every valid word satisfies
    min_occ(i) <= (i-1)m/n + 1 and max_occ(i) >= i*m/n; a violation here
    indicates a bug in word validation or generation.
    """
    if not (tower.is_tuhf_at(level) and tower.is_tuhf_at(level + 1)):
        raise TowerValidationError("embedding-order audit requires a TUHF step")
    n = tower.shape(level)[0]
    m = tower.shape(level + 1)[0]
    # each label occurs `reps` times, from order[a + (i-1)*reps] on
    order, ((a, reps, _),) = tower.occurrences(level)[0]
    entries = []
    violations = []
    for i in range(1, n + 1):
        first, last = order[a + (i - 1) * reps], order[a + i * reps - 1]
        # both bounds times n, so the comparisons stay in integers
        lo_num, hi_num = (i - 1) * m + n, i * m
        ok = first * n <= lo_num and last * n >= hi_num
        entries.append({"diagonal": i, "first": first, "last": last,
                        "first_bound": _ratio(lo_num, n),
                        "last_bound": _ratio(hi_num, n), "ok": ok})
        if not ok:
            violations.append(i)
    return {"level": level, "source": n, "target": m,
            "entries": entries, "violations": violations, "ok": not violations}


# ---------------------------------------------------------------------------
# presets


PRESETS = {
    # word [1..K, 1..K]: e_ij -> e_ij + e_(i+K)(j+K)
    "standard-2": lambda: TowerSpec(rule=BlockRule((2,), (((0, 1), (0, 1)),))),
    # word [1,1,2,2,...]: e_ij -> e_(2i-1)(2j-1) + e_(2i)(2j)
    "refinement-2": lambda: TowerSpec(rule=BlockRule((2,), (((0, 2),),))),
    "paper-example-taf": lambda: TowerSpec(rule=PaperExampleRule()),
}


@cache
def preset(name: str) -> TowerSpec:
    """The preset tower `name`, one shared TowerSpec per name for the
    life of the process: its shapes and step indexes are built once, by
    whichever query first reaches them, and kept.  An unknown name raises,
    and a raise is not cached.  `PRESETS[name]()` builds a fresh tower."""
    if name not in PRESETS:
        raise TowerValidationError(f"unknown preset {name!r}")
    return PRESETS[name]()
