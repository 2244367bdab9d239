"""Tower spec and system file parsing, rendering, and error reporting."""
import random
import re
import sys
from pathlib import Path

import pytest

from limitalg import parser, tower as tower_mod
from limitalg.links import link_status
from limitalg.parser import (_LABEL_PUNCTUATION, _WORD_RE, TowerSyntaxError,
                             _in_grammar, parse_system_file, parse_tower,
                             parse_tower_file, render_tower)
from limitalg.tower import (MatrixUnit, TowerSpec, TowerValidationError,
                            embed_unit)
from test_occurrence_index import (label_positions, permutation_words,
                                   random_prefix)
from test_tower import random_word_collection, reference_validate

BASIC = """
# a two-level tower
level 0 = [2]
level 1 = [2,4]
embed 0 -> 1 {
  target 0 : (0,1) (0,2)
  target 1 : (0,1) (0,2) (0,1) (0,2)
}
"""


def test_parse_basic_tower():
    t = parse_tower(BASIC)
    assert t.finite and t.shape(0) == (2,) and t.shape(1) == (2, 4)
    img = embed_unit(t, MatrixUnit(0, 0, 1, 2), 1)
    assert img.units == (MatrixUnit(1, 0, 1, 2), MatrixUnit(1, 1, 1, 2),
                         MatrixUnit(1, 1, 3, 4))


def test_render_roundtrip():
    t = parse_tower(BASIC)
    assert parse_tower(render_tower(t)).levels == t.levels
    assert parse_tower(render_tower(t)).steps == t.steps
    # a rule's levels do not end, so no spec text lists them
    with pytest.raises(ValueError, match="only a finite tower"):
        render_tower(tower_mod.preset("standard-2"))


def test_repeat_makes_a_stationary_tower():
    text = """
level 0 = [2,2]
level 1 = [2,2]
embed 0 -> 1 {
  target 0 : (1,1) (1,2)
  target 1 : (0,1) (0,2)
}
repeat
"""
    t = parse_tower(text)
    assert not t.finite
    assert t.shape(7) == (2, 2)
    img = embed_unit(t, MatrixUnit(0, 0, 1, 2), 2)
    assert img.units == (MatrixUnit(2, 0, 1, 2),)


def test_repeat_requires_equal_final_shapes():
    with pytest.raises(TowerValidationError):
        parse_tower(BASIC + "repeat\n")


def test_repeat_after_an_invalid_step_names_the_step():
    # the last step's p = 1 labels would make an empty block, which
    # BlockRule rejects; the step itself is checked first and named
    text = """
level 0 = [2]
level 1 = [2]
embed 0 -> 1 {
  target 0 : (0,2) (0,2)
}
repeat
"""
    with pytest.raises(TowerValidationError,
                       match=r"embedding 0->1 invalid: .*'COUNT'"):
        parse_tower(text)


def test_repeat_tail_is_the_last_step_with_every_summand_frozen():
    # a valid step between equal shapes is a summand permutation with
    # identity words, so the `repeat` rule gives back the file's last step
    # at every later level, and every summand is carried for ever
    for seed in range(30):
        rng = random.Random(500 + seed)
        base = rng.choice(((2, 2, 2), (1, 2, 1), (2, 1), (3, 3)))
        levels, steps = random_prefix(base, seed % 3, rng, cap=12)
        steps.append(permutation_words(levels[-1], rng))
        levels.append(levels[-1])
        t = parse_tower(render_tower(TowerSpec(levels, steps)) + "repeat\n")
        # the rule's level 0 is the last explicit level
        assert t.rule_start == len(levels) - 1
        for n in range(len(steps) - 1, len(steps) + 5):
            assert t.words(n) == steps[-1]
            assert t.shape(n + 1) == levels[-1]
        assert all(t.rule.frozen_forever(s)
                   for s in range(len(levels[-1])))


def test_preset_directive():
    t = parse_tower("preset standard-2\n")
    assert not t.finite and t.shape(2) == (8,)
    with pytest.raises(TowerSyntaxError):
        parse_tower("preset standard-2\nlevel 0 = [2]\n")


def test_syntax_errors_carry_line_numbers():
    with pytest.raises(TowerSyntaxError) as exc:
        parse_tower("level 0 = [2]\nlevel 0 = [3]\n")
    assert exc.value.line == 2
    with pytest.raises(TowerSyntaxError):
        parse_tower("level 0 = [2]\nlevel 1 = [4]\nembed 0 -> 1 {\n")
    with pytest.raises(TowerSyntaxError):
        parse_tower("bogus directive\n")
    with pytest.raises(TowerSyntaxError):
        parse_tower(BASIC.replace("(0,2) (0,1) (0,2)", "(0,2) x (0,2)"))


def test_huge_indices_are_refused_by_count():
    # distinct naturals are 0..n-1 iff their maximum is n-1: no list as
    # long as the largest index is built to check it
    huge = 10**12
    for text, message in (
            ("level 0 = [1]\nlevel 1 = [1]\nembed 0 -> 1 {\n"
             f"  target {huge} : (0,1)\n}}\n",
             "line 5, column 1: target indices must be 0..r-1"),
            (f"level 0 = [1]\nlevel {huge} = [1]\n",
             "line 1, column 1: levels must be numbered 0..N contiguously")):
        with pytest.raises(TowerSyntaxError) as exc:
            parse_tower(text)
        assert str(exc.value) == message


def test_every_number_is_bounded_before_conversion():
    # one check for every digit string, at its line and column, before
    # `int()`: the verdict does not depend on the interpreter's own limit,
    # here set as low as it goes, to the parser's bound
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(parser._MAX_DIGITS)
    try:
        for digits in (parser._MAX_DIGITS, parser._MAX_DIGITS + 1):
            n = "0" * (digits - 1) + "1"
            block = "  target 0 : (0,1) (0,2)\n}\n"
            for text, line, column in (
                    ("level 0 = [2]\nlevel 1 = [2]\nembed 0 -> 1 {\n"
                     f"  target 0 : (0,1)  (0,{n})\n}}\n", 4, 24),
                    (f"level 0 = [2,\t{n}]\n", 1, 15),
                    ("level 0 = [2]\nlevel 1 = [2]\nembed 0 -> 1 {\n"
                     f"\ttarget {n} : (0,1) (0,2)\n}}\n", 4, 9),
                    (f"level 0 = [1]\n  level {n} = [1]\n", 2, 9),
                    (f"level 0 = [2]\nembed {n} -> 1 {{\n" + block, 2, 7),
                    (f"level 0 = [2]\nembed 0 ->  {n} {{\n" + block, 2, 13),
                    (f"level 0 = [2]\naction g order {n} {{\n"
                     "  level 0 -> 0 {\n" + block + "}\n", 2, 16),
                    ("level 0 = [2]\naction g order 2 {\n"
                     f" level {n} -> 0 {{\n" + block + "}\n", 3, 8),
                    ("level 0 = [2]\naction g order 2 {\n"
                     f"  level 0 -> {n} {{\n" + block + "}\n", 3, 14)):
                assert text.splitlines()[line - 1][column - 1:].startswith(
                    n), text
                try:
                    parse_tower_file(text)
                except (TowerSyntaxError, TowerValidationError) as exc:
                    refused = str(exc)
                else:
                    refused = ""
                long = (f"line {line}, column {column}: number of {digits} "
                        f"digits (at most {parser._MAX_DIGITS})")
                assert (refused == long) == (digits > parser._MAX_DIGITS), (
                    text, refused)
    finally:
        sys.set_int_max_str_digits(old)


def test_word_syntax_error_names_the_line_column():
    # the column of the first character that no label covers, counted
    # from the start of the line
    for word, column, token in (("(0,1) x", 20, "x"), ("(0,1) 1x", 20, "1x"),
                                ("(0,1)(0,2) ,", 25, ","),
                                ("(0,1)\t(0,2)y(0,1)", 25, "y")):
        text = ("level 0 = [2]\nlevel 1 = [2]\nembed 0 -> 1 {\n"
                f"  target 0 : {word}\n}}\n")
        with pytest.raises(TowerSyntaxError) as exc:
            parse_tower(text)
        assert (exc.value.line, exc.value.column) == (4, column), word
        assert str(exc.value) == (
            f"line 4, column {column}: unexpected token {token!r} in word")


_REFERENCE_LABEL = re.compile(r"\((\d+)\s*,\s*(\d+)\)")


def reference_parse_word(text):
    """The regex parse that the grammar gate replaced: the word's labels,
    or the token it reported for text outside the grammar."""
    stripped = _REFERENCE_LABEL.sub("", text).strip()
    if stripped:
        return stripped.split()[0]
    return tuple((int(s), int(p)) for s, p in _REFERENCE_LABEL.findall(text))


def reference_column(text):
    """0-based offset of the first character of `text` that is neither
    blank nor inside a label."""
    i = 0
    while i < len(text):
        m = _REFERENCE_LABEL.match(text, i)
        if m:
            i = m.end()
        elif text[i].isspace():
            i += 1
        else:
            return i
    return None


STRAYS = ("x", ",", "1", "(", ")", "(1,)", "( 1,2)", "(1,2 )", "-", "#c")


def _render_word(word, rng):
    """`word` as spec text with random blanks, tabs, zero padding and,
    now and then, a stray token."""
    parts = []
    for s, p in word:
        a, b = (f"{n:0{rng.choice((1, 1, 1, 3))}d}" if n >= 0 else str(n)
                for n in (s, p))
        parts.append(rng.choice(("({},{})", "({} , {})", "({},\t{})",
                                 "({}  ,{})")).format(a, b))
    if rng.random() < 0.15:
        parts.insert(rng.randint(0, len(parts)), rng.choice(STRAYS))
    return "".join(rng.choice(("", " ", "\t", "  ")) + part
                   for part in parts) + rng.choice(("", " ", "\t# note"))


def _expected_outcome(source, target, lines):
    """What parsing a tower with these target lines must give, from the
    reference parse and the reference validator."""
    words = []
    for lineno, line in lines:
        text = line.split("#", 1)[0].strip().split(":", 1)[1]
        word = reference_parse_word(text)
        if isinstance(word, str):
            start = line.index(":") + 1
            column = start + reference_column(line[start:].split("#", 1)[0]) + 1
            return (TowerSyntaxError,
                    f"line {lineno}, column {column}: "
                    f"unexpected token {word!r} in word")
        words.append(word)
    for n, shape in enumerate((source, target)):
        if any(k < 1 for k in shape):
            return (TowerValidationError,
                    f"level {n} summand sizes must be at least 1, "
                    f"got {list(shape)}")
    ok, violations, indexes = reference_validate(source, target, tuple(words))
    if not ok:
        return TowerValidationError, f"embedding 0->1 invalid: {violations}"
    return tuple(words), indexes


def test_parse_matches_the_regex_reference_on_seeded_words():
    rng = random.Random(7031)
    for _ in range(1500):
        source, target, words = random_word_collection(rng)
        lines = [(5 + t, rng.choice(("  ", "\t", "")) + f"target {t} : "
                  + _render_word(w, rng)) for t, w in enumerate(words)]
        text = (f"level 0 = [{','.join(map(str, source))}]\n"
                f"level 1 = [{','.join(map(str, target))}]\n"
                "# one step\nembed 0 -> 1 {\n"
                + "".join(line + "\n" for _, line in lines) + "}\n")
        expected = _expected_outcome(source, target, lines)
        try:
            tower = parse_tower(text)
        except (TowerSyntaxError, TowerValidationError) as exc:
            assert (type(exc), str(exc)) == expected, text
        else:
            assert (tower.steps[0], label_positions(tower.occurrences(0))) \
                == expected, text


def test_one_label_table_serves_every_parse(monkeypatch):
    # padded and non-ASCII spellings of one number share the process's
    # table, each under its own key
    texts = [BASIC.replace("target 0 : (0,1) (0,2)", f"target 0 : {word}")
             for word in ("(0,1) (0,2)", "(0,01) (00,2)",
                          "(\u0660,\u0661) (0,\u0662)")]
    for text in texts:
        first, second = parse_tower(text), parse_tower(text)
        tokens = [line.split(":", 1)[1].translate(_LABEL_PUNCTUATION).split()
                  for line in text.splitlines() if "target" in line]
        assert first.flat_steps == [[list(map(int, t)) for t in tokens]]
        assert second.flat_steps == first.flat_steps
        assert second.occurrences(0) == first.occurrences(0)
    assert {"01", "00", "\u0660", "\u0661", "\u0662"} <= parser._LABELS.keys()
    assert all(value == int(key) for key, value in parser._LABELS.items())
    # a spelling of 20 characters or more is converted and not kept, and
    # so is a new one once the table is full
    long = "0" * 19 + "2"
    tower = parse_tower(texts[0].replace("(0,2)\n", f"(0,{long})\n", 1))
    assert tower.flat_steps[0][0] == [0, 1, 0, 2]
    assert long not in parser._LABELS
    size = len(parser._LABELS)
    monkeypatch.setattr(parser, "_LABELS_MAX", size)
    padded = next(p for p in ("0" * k + "2" for k in range(1, 99))
                  if p not in parser._LABELS)
    tower = parse_tower(texts[0].replace("(0,2)\n", f"(0,{padded})\n", 1))
    assert tower.flat_steps[0][0] == [0, 1, 0, 2]
    assert len(parser._LABELS) == size and padded not in parser._LABELS


def _gate(text):
    return _in_grammar(text, len(text.translate(_LABEL_PUNCTUATION).split()))


def _gate_inputs(rng):
    """Random strings over label characters, all of ASCII and a few
    non-ASCII digits and blanks; and valid words with one character
    inserted, deleted or replaced."""
    near = "0123456789(),(),( )  \t"
    wide = "".join(map(chr, range(128))) + "\u0661\xa0\u2003"
    for _ in range(6000):
        alphabet = rng.choice((near, near, wide, near + "\u0661\xa0\u2003"))
        yield "".join(rng.choice(alphabet) for _ in range(rng.randrange(12)))
    for _ in range(6000):
        word = tuple((rng.randint(0, 12), rng.randint(0, 12))
                     for _ in range(rng.randint(1, 4)))
        text = _render_word(word, rng).split("#")[0]
        q = rng.randrange(len(text) + 1)
        extra = rng.choice(near + "\x0b\x1c\u0661\xa0\u2003")
        yield rng.choice((text, text[:q] + extra + text[q:],
                          text[:q] + text[q + 1:],
                          text[:q] + extra + text[q + 1:]))


def test_word_gate_agrees_with_the_grammar_regex():
    rng = random.Random(1913)
    accepted = 0
    for text in _gate_inputs(rng):
        assert _gate(text) == (_WORD_RE.fullmatch(text) is not None), text
        accepted += _gate(text)
    assert accepted > 1000


def test_ascii_blanks_and_digits_are_the_regex_classes():
    # the gate's premise: on ASCII, `\s` is `str.isspace` and `\d` is 0-9
    for c in map(chr, range(128)):
        assert (re.fullmatch(r"\s", c) is not None) == c.isspace(), repr(c)
        assert (re.fullmatch(r"\d", c) is not None) == (c in "0123456789")


GOLDEN = Path(__file__).resolve().parent / "golden"


def _reference_steps(text):
    """The words of each `embed` block of a spec text, by the regex
    reference parse."""
    steps, block = [], None
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("embed"):
            block = []
        elif line == "}" and block is not None:
            steps.append(tuple(block))
            block = None
        elif block is not None:
            block.append(reference_parse_word(line.split(":", 1)[1]))
    return steps


def _reference_towers():
    """(spec text, tower) for every golden tower file with explicit
    steps and for 30 seeded `render_tower` round trips."""
    for path in sorted(GOLDEN.glob("*.tower")):
        text = path.read_text()
        if "embed" in text:
            yield text, parse_tower(text)
    for seed in range(30):
        rng = random.Random(900 + seed)
        levels, steps = random_prefix(rng.choice(((2,), (2, 1), (1, 2, 2))),
                                      1 + seed % 3, rng, cap=16)
        text = render_tower(TowerSpec(levels, steps))
        yield text, parse_tower(text)


def test_steps_and_words_decode_to_the_reference_parse():
    for text, tower in _reference_towers():
        expected = _reference_steps(text)
        assert tower.steps == expected, text
        assert [tower.words(n) for n in range(len(expected))] == expected
        if not tower.finite:
            # a `repeat` tail gives back the last explicit step
            assert tower.words(len(expected) + 3) == expected[-1]


def test_parse_and_link_status_decode_no_tuple_word(monkeypatch):
    original = tower_mod.label_word
    calls = []

    def counting(flat):
        calls.append(flat)
        return original(flat)

    for name, mod in list(sys.modules.items()):
        if name.startswith("limitalg"):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting)
    for path in ("finite.tower", "two-summand.tower"):
        tower = parse_tower((GOLDEN / path).read_text())
        for level in range(len(tower.levels)):
            for e in tower.units_at(level):
                link_status(tower, e, len(tower.levels))
    assert calls == []
    # the counter sees the decoder where the API does return tuple words
    assert tower.words(0) == tuple(map(original, tower.flat_words(0)))
    assert len(calls) == len(tower.flat_words(0)) == 2


def test_invalid_embedding_is_rejected():
    text = """
level 0 = [2]
level 1 = [4]
embed 0 -> 1 {
  target 0 : (0,2) (0,1) (0,2) (0,1)
}
"""
    with pytest.raises(TowerValidationError):
        parse_tower(text)


def test_each_explicit_step_is_validated_once(monkeypatch):
    # an explicit step is decided by one `index_step` call on its flat
    # words; a rejected one is named as `validate_embedding` names it
    original = tower_mod.index_step
    word = ((0, 2), (0, 1))
    expected = tower_mod.validate_embedding(
        (2,), (2, 4), (word, ((0, 1), (0, 2), (0, 1), (0, 2))))
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    # rebind every module-level name of the package bound to the original
    for name, mod in list(sys.modules.items()):
        if name.startswith("limitalg"):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting)
    bad = BASIC.replace("target 0 : (0,1) (0,2)", "target 0 : (0,2) (0,1)")
    with pytest.raises(TowerValidationError) as exc:
        parse_tower(bad)
    assert str(exc.value) == f"embedding 0->1 invalid: {expected.violations}"
    assert len(calls) == 1
    calls.clear()
    parse_tower(BASIC.replace("level 1 = [2,4]", "level 1 = [2,4]\n"
                              "level 2 = [2,4]") + """
embed 1 -> 2 {
  target 0 : (0,1) (0,2)
  target 1 : (1,1) (1,2) (1,3) (1,4)
}
""")
    assert len(calls) == 2


def test_action_blocks():
    text = BASIC + """
action g order 2 {
  level 0 -> 0 {
    target 0 : (0,1) (0,2)
  }
}
"""
    t, actions = parse_tower_file(text)
    assert len(actions) == 1
    act = actions[0]
    assert act.name == "g" and act.order == 2
    assert act.maps == {0: (0, (((0, 1), (0, 2)),))}
    assert t.shape(1) == (2, 4)


def test_system_keywords_allow_spacing_and_several_phi_lines():
    sys_ = parse_system_file("points=a b c\nphi : a->b\n  phi:b->c c->a\n")
    assert sys_.points == ("a", "b", "c")
    assert sys_.phi == {"a": "b", "b": "c", "c": "a"}


@pytest.mark.parametrize("text,message", [
    ("pointsxyz = a b\nphi: a->b b->a\n",
     "line 1: unrecognized system line 'pointsxyz = a b'"),
    ("points = a b\nphiq: a->b b->a\n",
     "line 2: unrecognized system line 'phiq: a->b b->a'"),
    ("points a b\nphi: a->b b->a\n",
     "line 1: unrecognized system line 'points a b'"),
    ("points = a b\npoints = c\nphi: c->c\n", "line 2: repeated points line"),
    ("points = a b\nphi: a->b\n# b\nphi: b->a a->a\n",
     "line 4: repeated phi source 'a'"),
], ids=["points-prefix", "phi-prefix", "points-no-equals", "repeated-points",
        "repeated-phi-source"])
def test_malformed_system_lines_are_rejected(text, message):
    with pytest.raises(ValueError) as info:
        parse_system_file(text)
    assert str(info.value) == message
