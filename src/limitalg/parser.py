r"""Line-oriented parsers for tower spec files and finite system files.

Tower spec format::

    level 0 = [2]
    level 1 = [2,4]
    embed 0 -> 1 {
      target 0 : (0,1) (0,2)
      target 1 : (0,1) (0,2) (0,1) (0,2)
    }
    repeat                     # repeat last embedding pattern forever
    action g order 2 {         # optional finite abelian action data
      level 0 -> 0 {
        target 0 : (0,1) (0,2)
      }
    }

'#' starts a comment.  `repeat` requires the last two level shapes to be
equal, so the final words permute summands by identity words, and a
`BlockRule` repeats them forever.  Every summand size must be at least 1.

A word's grammar is `(?:\s*\(\d+\s*,\s*\d+\))*\s*` (`_WORD_RE`).  Blanking
`(),` and splitting gives its `count` tokens; once the text is known to
hold only labels and whitespace, they are exactly the label numbers in
order (`str.split` and `\s` share one definition of whitespace).  Each
number goes through one per-file table from digit string to `int`, and
the word leaves the parser flat, `[s0, p0, s1, p1, ...]` (the form
`tower.index_step` reads).

An ASCII word is gated without a per-character regex step, by string
methods that run in C.  Let k be the number of `(`, `skeleton` the text
with whitespace and digits dropped, and `blanked` the text with every
whitespace character and `,` mapped to a space.  The text is accepted iff

1. `count == 2k`;
2. `skeleton == "(,)" * k`;
3. `"( "` does not occur in `blanked`; and
4. `" )"` does not occur in `blanked`.

(3) says that neither `"( "` nor `"(,"` occurs once whitespace is
spaced, and (4) the same of `" )"` and `",)"`: two scans for four.
This is exactly the grammar.  Every grammatical text passes: its
skeleton is one `(,)` per label, its tokens are the two numbers of each
label, and no blank or `,` follows a `(` or precedes a `)`.  Conversely,
(2) leaves only digits, whitespace and k labels' `(,)` in order, so the
text reads `D0 ( D1 , D2 ) D3 ( D4 , D5 ) ...`, each D a run of digits
and whitespace.  By (3) each D just after a `(` starts with a digit, and
by (4) each D just before a `)` ends with one, so each of these 2k runs
holds a token.  A token is a run of digits inside a single D, so
`count == 2k` leaves exactly one token in each of them and none in the
runs between labels.  So each label reads `(` digits, blanks, `,`,
blanks, digits `)`, and only blanks lie between labels: that is the
grammar, as `\s` and `str.isspace` agree, and so do `\d` and `0-9`,
on ASCII text.  Beyond ASCII, `\d` and `\s` are Unicode-wide,
so a non-ASCII word keeps the `fullmatch`.  Only a word that fails the
gate is scanned label by label, to report the line column of its first
character that no label covers.

System file format (a finite set and a permutation of it)::

    points = a b c
    phi: a->b b->c c->a

`points` before `=` and `phi` before `:` are whole keywords.  A file has
one `points` line; its pairs may spread over several `phi` lines, each
source once.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from .peters import FiniteDynSys
from .tower import (BlockRule, FlatWord, TowerSpec, TowerValidationError,
                    Word, label_word, preset as builtin_preset)


class TowerSyntaxError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass
class ActionSpecData:
    """Raw action data: one generator with its per-level embedding words."""
    name: str
    order: int
    maps: dict[int, tuple[int, tuple[Word, ...]]] = field(default_factory=dict)


_LABEL_RE = re.compile(r"\((\d+)\s*,\s*(\d+)\)")
_WORD_RE = re.compile(r"(?:\s*\(\d+\s*,\s*\d+\))*\s*")
_LABEL_PUNCTUATION = str.maketrans("(),", "   ")
_ASCII_SPACE = "".join(c for c in map(chr, range(128)) if c.isspace())
_SKELETON = str.maketrans("", "", _ASCII_SPACE + "0123456789")
_BLANKED = str.maketrans(_ASCII_SPACE + ",", " " * len(_ASCII_SPACE + ","))


class _Labels(dict):
    """Digit string -> int, each distinct spelling converted once per file."""

    def __missing__(self, digits: str) -> int:
        value = self[digits] = int(digits)
        return value


def _in_grammar(text: str, count: int) -> bool:
    """Whether `text`, which splits into `count` tokens, is a word (see
    the module docstring for the ASCII gate and why it is exact)."""
    if not text.isascii():
        return _WORD_RE.fullmatch(text) is not None
    k = text.count("(")
    if count != 2 * k or text.translate(_SKELETON) != "(,)" * k:
        return False
    blanked = text.translate(_BLANKED)
    return "( " not in blanked and " )" not in blanked


def _parse_word(text: str, lineno: int, column: int,
                labels: _Labels) -> FlatWord:
    """The flat labels of a word that starts at line column `column`.

    The text must be in the word grammar (labels and whitespace only);
    after that check, blanking the punctuation and splitting leaves
    exactly the label numbers, in order.
    """
    numbers = text.translate(_LABEL_PUNCTUATION).split()
    if not _in_grammar(text, len(numbers)):
        # the first character that no label covers
        blanked = _LABEL_RE.sub(lambda m: " " * len(m.group()), text)
        offset = len(blanked) - len(blanked.lstrip())
        token = _LABEL_RE.sub("", text).split()[0]
        raise TowerSyntaxError(f"unexpected token {token!r} in word",
                               lineno, column + offset)
    return list(map(labels.__getitem__, numbers))


def _parse_shape(text: str, lineno: int) -> tuple[int, ...]:
    m = re.fullmatch(r"\[\s*(\d+(?:\s*,\s*\d+)*)\s*\]", text.strip())
    if not m:
        raise TowerSyntaxError(f"malformed level shape {text.strip()!r}", lineno)
    return tuple(int(x) for x in m.group(1).split(","))


def parse_tower_file(text: str):
    """Parse tower source; returns (TowerSpec, list[ActionSpecData])."""
    lines = text.splitlines()
    levels: dict[int, tuple[int, ...]] = {}
    embeds: dict[int, list[FlatWord]] = {}
    actions: list[ActionSpecData] = []
    repeat = False
    preset_name: str | None = None

    i = 0
    labels = _Labels()

    def strip(line: str) -> str:
        return line.split("#", 1)[0].strip()

    def read_block(start: int):
        """Collect `target t : word` lines until the closing brace."""
        j = start
        targets: dict[int, FlatWord] = {}
        while j < len(lines):
            line = lines[j]
            s = strip(line)
            j += 1
            if not s:
                continue
            if s == "}":
                if not targets:
                    raise TowerSyntaxError("empty block", j)
                n = max(targets) + 1
                if sorted(targets) != list(range(n)):
                    raise TowerSyntaxError("target indices must be 0..r-1", j)
                return [targets[t] for t in range(n)], j
            m = re.match(r"target\s+(\d+)\s*:\s*(.*)$", s)
            if not m:
                raise TowerSyntaxError(
                    f"expected 'target t : ...' or '}}', got {s!r}", j)
            t = int(m.group(1))
            if t in targets:
                raise TowerSyntaxError(f"duplicate target {t}", j)
            indent = len(line) - len(line.lstrip())
            targets[t] = _parse_word(m.group(2), j, indent + m.start(2) + 1,
                                     labels)
        raise TowerSyntaxError("unterminated block", len(lines))

    while i < len(lines):
        s = strip(lines[i])
        i += 1
        if not s:
            continue
        if m := re.match(r"level\s+(\d+)\s*=\s*(.*)$", s):
            n = int(m.group(1))
            if n in levels:
                raise TowerSyntaxError(f"duplicate level {n}", i)
            levels[n] = _parse_shape(m.group(2), i)
        elif m := re.match(r"embed\s+(\d+)\s*->\s*(\d+)\s*\{\s*$", s):
            a, b = int(m.group(1)), int(m.group(2))
            if b != a + 1:
                raise TowerSyntaxError(
                    "embeddings must map consecutive levels", i)
            if a in embeds:
                raise TowerSyntaxError(f"duplicate embedding {a} -> {b}", i)
            words, i = read_block(i)
            embeds[a] = words
        elif s == "repeat":
            repeat = True
        elif m := re.match(r"preset\s+(\S+)\s*$", s):
            preset_name = m.group(1)
        elif m := re.match(r"action\s+(\w+)\s+order\s+(\d+)\s*\{\s*$", s):
            act = ActionSpecData(m.group(1), int(m.group(2)))
            while i < len(lines):
                t = strip(lines[i])
                i += 1
                if not t:
                    continue
                if t == "}":
                    break
                mm = re.match(r"level\s+(\d+)\s*->\s*(\d+)\s*\{\s*$", t)
                if not mm:
                    raise TowerSyntaxError(
                        f"expected 'level n -> N {{' in action block, "
                        f"got {t!r}", i)
                src, dst = int(mm.group(1)), int(mm.group(2))
                words, i = read_block(i)
                act.maps[src] = (dst, tuple(map(label_word, words)))
            else:
                raise TowerSyntaxError("unterminated action block", len(lines))
            actions.append(act)
        else:
            raise TowerSyntaxError(f"unrecognized directive {s!r}", i)

    if preset_name is not None:
        if levels or embeds or repeat:
            raise TowerSyntaxError(
                "'preset' cannot be combined with level/embed/repeat", 1)
        return builtin_preset(preset_name), actions

    if not levels:
        raise TowerSyntaxError("no levels defined", max(1, len(lines)))
    count = max(levels) + 1
    if sorted(levels) != list(range(count)):
        raise TowerSyntaxError("levels must be numbered 0..N contiguously", 1)
    shapes = [levels[n] for n in range(count)]
    steps = []
    for n in range(count - 1):
        if n not in embeds:
            raise TowerSyntaxError(f"missing embedding {n} -> {n + 1}", 1)
        steps.append(embeds[n])
    if set(embeds) - set(range(count - 1)):
        raise TowerSyntaxError("embedding refers to an undefined level", 1)

    rule = None
    if repeat:
        if count < 2:
            raise TowerValidationError("repeat needs at least one embedding")
        if shapes[-1] != shapes[-2]:
            raise TowerValidationError(
                "repeat requires the last two level shapes to be equal "
                f"(got {shapes[-2]} -> {shapes[-1]})")
        # a valid last step between equal shapes sends each source to one
        # target, once (its word lengths add up to the sum of the sizes),
        # and the ballot order forces identity words, so its blocks pass
        # BlockRule's checks.  The rule's level 0 is the last explicit
        # level.
        try:
            rule = BlockRule(shapes[-1], tuple(
                tuple((s, 1) for s, p in zip(word[0::2], word[1::2])
                      if p == 1)
                for word in steps[-1]))
        except TowerValidationError:
            # so only an invalid step makes blocks that BlockRule
            # refuses: name the step, as a tower without `repeat` does
            TowerSpec.from_flat_steps(shapes, steps, None)
            raise
    return TowerSpec.from_flat_steps(shapes, steps, rule), actions


def parse_tower(text: str) -> TowerSpec:
    return parse_tower_file(text)[0]


def parse_system_file(text: str) -> FiniteDynSys:
    points: list[str] | None = None
    phi: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, rest = line.partition("=")
        if eq and key.strip() == "points":
            if points is not None:
                raise ValueError(f"line {lineno}: repeated points line")
            points = rest.split()
            continue
        key, colon, rest = line.partition(":")
        if not (colon and key.strip() == "phi"):
            raise ValueError(f"line {lineno}: unrecognized system line {line!r}")
        for pair in rest.split():
            src, _, dst = pair.partition("->")
            if not dst:
                raise ValueError(f"line {lineno}: bad phi pair {pair!r}")
            if src in phi:
                raise ValueError(f"line {lineno}: repeated phi source {src!r}")
            phi[src] = dst
    if not points:
        raise ValueError("system file defines no points")
    try:
        return FiniteDynSys(points, phi)
    except ValueError as exc:
        raise ValueError(f"invalid system: {exc}") from None


def render_tower(tower: TowerSpec) -> str:
    """Render a finite tower back to spec text."""
    if not tower.finite:
        raise ValueError("only a finite tower renders to spec text")
    out = [f"level {n} = [{','.join(map(str, shape))}]"
           for n, shape in enumerate(tower.levels)]
    for n, words in enumerate(tower.steps):
        out.append(f"embed {n} -> {n + 1} {{")
        for t, word in enumerate(words):
            labels = " ".join(f"({s},{p})" for s, p in word)
            out.append(f"  target {t} : {labels}")
        out.append("}")
    return "\n".join(out) + "\n"
