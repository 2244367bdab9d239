"""Tower spec file parsing, rendering, and error reporting."""
import sys

import pytest

from limitalg import tower as tower_mod
from limitalg.parser import (TowerSyntaxError, parse_tower, parse_tower_file,
                             render_tower)
from limitalg.tower import MatrixUnit, TowerValidationError, embed_unit

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
    assert t.stationary
    assert t.shape(7) == (2, 2)
    img = embed_unit(t, MatrixUnit(0, 0, 1, 2), 2)
    assert img.units == (MatrixUnit(2, 0, 1, 2),)


def test_repeat_requires_equal_final_shapes():
    with pytest.raises(TowerValidationError):
        parse_tower(BASIC + "repeat\n")


def test_preset_directive():
    t = parse_tower("preset standard-2\n")
    assert t.stationary and t.shape(2) == (8,)
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
    original = tower_mod.validate_embedding
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
    word = ((0, 2), (0, 1))
    expected = original((2,), (2, 4), (word, ((0, 1), (0, 2), (0, 1), (0, 2))))
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
