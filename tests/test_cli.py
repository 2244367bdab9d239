"""Command-line interface: exit codes, JSON determinism, pipelines."""
import io
import json
import os
import random
import subprocess
import sys
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import pytest

import limitalg
from limitalg import cli, tower
from limitalg.cli import EXIT_ERROR, EXIT_OK, EXIT_UNKNOWN, run
from limitalg.links import DEFAULT_HORIZON
from limitalg.parser import parse_system_file
from limitalg.peters import (SubsetSequence, TruncatedSemicrossed,
                             enumerate_sequences, recurrent_dense,
                             validate_ideal)
from limitalg.tower import PRESETS, MatrixUnit, preset

SWAP_SYSTEM = "points = a b\nphi: a->b b->a\n"
GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = str(Path(limitalg.__file__).resolve().parents[1])


def out_json(capsys):
    return json.loads(capsys.readouterr().out)


class TestTowerCommands:
    def test_validate_preset(self, capsys):
        assert run(["validate", "standard-2"]) == EXIT_OK
        rep = out_json(capsys)
        assert rep["ok"] and rep["stationary"]

    def test_validate_reports_errors(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("bogus directive\n"))
        assert run(["validate", "-"]) == EXIT_ERROR
        rep = out_json(capsys)
        assert not rep["ok"] and "line 1" in rep["error"]

    def test_embed(self, capsys):
        assert run(["embed", "standard-2", "--unit", "0:0:1:2",
                    "--level", "2"]) == EXIT_OK
        rep = out_json(capsys)
        assert rep["image"] == [[0, 1, 2], [0, 3, 4], [0, 5, 6], [0, 7, 8]]

    def test_links_exit_codes(self, capsys):
        assert run(["links", "standard-2", "--unit", "0:0:1:2"]) == EXIT_OK
        assert out_json(capsys)["status"] == "linked"
        assert run(["links", "refinement-2", "--unit", "0:0:1:2"]) == EXIT_OK
        assert out_json(capsys)["certificate"] == "separation"

    def test_radical_membership_and_unknown(self, capsys):
        assert run(["radical", "refinement-2", "--unit", "0:0:1:2"]) == EXIT_OK
        assert out_json(capsys)["status"] == "in-radical"
        # no certificate route applies to this diagonal unit
        assert run(["radical", "paper-example-taf", "--unit", "0:0:1:1",
                    "--expand-horizon", "3", "--horizon", "4"]) == EXIT_UNKNOWN
        assert out_json(capsys)["status"] == "unknown"

    def test_preset_pipes_into_stdin_commands(self, capsys, monkeypatch):
        assert run(["preset", "standard-2"]) == EXIT_OK
        text = capsys.readouterr().out
        assert text == "preset standard-2\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert run(["donsig", "-", "--level", "1"]) == EXIT_OK
        assert out_json(capsys)["verdict"] == "semisimple (evidence)"

    def test_audit_order(self, capsys):
        assert run(["audit-order", "standard-2", "--level", "1"]) == EXIT_OK
        assert out_json(capsys)["ok"]

    def test_audit_technical(self, capsys):
        assert run(["audit-technical", "refinement-2", "--unit", "0:0:1:2",
                    "--horizons", "2,3"]) == EXIT_OK
        rep = out_json(capsys)
        assert rep["applicable"] and rep["ok"]

    def test_horizon_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("LIMITALG_HORIZON", "5")
        assert run(["donsig", "refinement-2", "--level", "0"]) == EXIT_OK
        assert out_json(capsys)["horizon"] == 5


class TestDeterminism:
    def test_byte_identical_reports(self, capsys):
        run(["donsig", "refinement-2", "--level", "1"])
        first = capsys.readouterr().out
        run(["donsig", "refinement-2", "--level", "1"])
        assert capsys.readouterr().out == first

    def test_compact_json(self, capsys):
        assert run(["links", "standard-2", "--unit", "0:0:1:2",
                    "--json"]) == EXIT_OK
        text = capsys.readouterr().out
        assert text.count("\n") == 1 and " " not in text.strip()
        json.loads(text)


class TestCrossedCommands:
    def test_tightness(self, capsys):
        assert run(["crossed", "tight", "--base", "2", "--group", "2",
                    "--action", "diag=0,1"]) == EXIT_OK
        rep = out_json(capsys)
        assert rep["tight"] and rep["crossed_radical_dim"] == 2

    def test_lattice(self, capsys):
        assert run(["crossed", "lattice", "--base", "2", "--group", "2",
                    "--action", "diag=0,1"]) == EXIT_OK
        rep = out_json(capsys)
        assert rep["ok"] and rep["base_count"] == 5

    def test_permanence_with_permutation(self, capsys):
        assert run(["crossed", "permanence", "--base", "1,1", "--group", "2",
                    "--action", "perm=1,0", "--full"]) == EXIT_OK
        assert out_json(capsys)["applicable"]

    def test_missing_action_is_an_error(self, capsys):
        assert run(["crossed", "tight", "--base", "2",
                    "--group", "2"]) == EXIT_ERROR
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["--base", "2", "--group", "0"], "group orders must be at least 1"),
        (["--base", "2,3", "--group", "2",
          "--action", "perm=1,0;diag=0,0|0,0,0"],
         "permuted summands must have equal sizes"),
    ], ids=["zero-order-group", "unequal-permuted-summands"])
    def test_bad_system_is_one_error_line(self, capsys, argv, message):
        assert run(["crossed", "tight", *argv]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert captured.err.count("\n") == 1


    def test_links_lemma_on_a_full_base_is_one_error_line(self, capsys):
        assert run(["crossed", "links-lemma", "--full", "--base", "2"]) \
            == EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: links lemma check expects a triangular base\n"


class TestParserReuse:
    """One process, many `run` calls: no state leaks from call to call."""

    def test_each_call_reads_its_own_horizon(self, capsys, monkeypatch):
        for horizon in (5, 7, 5):
            monkeypatch.setenv("LIMITALG_HORIZON", str(horizon))
            assert run(["donsig", "refinement-2", "--level", "0"]) == EXIT_OK
            assert out_json(capsys)["horizon"] == horizon
        monkeypatch.delenv("LIMITALG_HORIZON")
        assert run(["donsig", "refinement-2", "--level", "0"]) == EXIT_OK
        assert out_json(capsys)["horizon"] == DEFAULT_HORIZON

    def test_bad_horizon_after_a_good_one(self, capsys, monkeypatch):
        monkeypatch.setenv("LIMITALG_HORIZON", "5")
        assert run(["donsig", "refinement-2", "--level", "0"]) == EXIT_OK
        capsys.readouterr()
        monkeypatch.setenv("LIMITALG_HORIZON", "5x")
        assert run(["donsig", "refinement-2", "--level", "0"]) == EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: LIMITALG_HORIZON must be an integer, got '5x'\n"

    def test_actions_do_not_carry_over(self, capsys):
        assert run(["crossed", "tight", "--base", "2", "--group", "2",
                    "--action", "diag=0,1"]) == EXIT_OK
        capsys.readouterr()
        # the parser `run` just used, asked for the next command line
        parser = cli._build_parser(cli._default_horizon())
        args = parser.parse_args(["crossed", "tight", "--base", "2",
                                  "--group", "2"])
        assert args.action is None and not args.json

    def test_missing_action_after_a_full_call(self, capsys):
        assert run(["crossed", "tight", "--base", "2", "--group", "2",
                    "--action", "diag=0,1"]) == EXIT_OK
        capsys.readouterr()
        assert run(["crossed", "tight", "--base", "2",
                    "--group", "2"]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            "error: need exactly one --action per group factor\n")

    def test_json_flag_does_not_carry_over(self, capsys):
        argv = ["links", "standard-2", "--unit", "0:0:1:2"]
        assert run(argv + ["--json"]) == EXIT_OK
        assert capsys.readouterr().out.count("\n") == 1
        assert run(argv) == EXIT_OK
        assert capsys.readouterr().out.count("\n") > 1


class TestSharedPresets:
    """A preset tower is shared by every call of one process: what one
    query leaves in it changes no other query's bytes or exit code."""

    def test_preset_reports_do_not_depend_on_earlier_queries(self,
                                                              monkeypatch):
        monkeypatch.delenv("LIMITALG_HORIZON", raising=False)
        replay = _replay()
        recorded = json.loads((GOLDEN / "corpus.json").read_text())
        names = [name for name, (argv, _) in replay.CASES.items()
                 if len(argv) > 1 and argv[1] in PRESETS]
        assert len(names) > 40

        def check(name):
            got = replay.run_case(*replay.CASES[name])
            assert got == {field: recorded[name][field]
                           for field in ("exit", "stdout", "stderr")}, name

        # each case first, on towers no query has touched
        for name in names:
            preset.cache_clear()
            check(name)
        # after an embedding has indexed every preset up to level 11
        preset.cache_clear()
        for spec in PRESETS:
            assert replay.run_case(("embed", spec, "--unit", "0:0:1:2",
                                    "--level", "11"), None)["exit"] == EXIT_OK
        for name in names:
            check(name)
        # every case after the ones that follow it in the corpus
        preset.cache_clear()
        for name in reversed(names):
            check(name)

    def test_a_repeated_preset_query_builds_no_index(self, capsys,
                                                     monkeypatch):
        built = []

        def counting(source, target, words, index=tower.index_step):
            built.append(source)
            return index(source, target, words)

        monkeypatch.setattr(tower, "index_step", counting)
        argv = ["radical", "standard-2", "--unit", "2:0:1:2"]
        preset.cache_clear()
        assert run(argv) == EXIT_OK
        first = capsys.readouterr().out
        assert built
        built.clear()
        assert run(argv) == EXIT_OK
        assert capsys.readouterr().out == first
        assert built == []


class TestPetersCommands:
    def test_enum_from_file(self, tmp_path, capsys):
        f = tmp_path / "swap.sys"
        f.write_text(SWAP_SYSTEM)
        assert run(["peters", str(f), "enum", "--horizon", "0"]) == EXIT_OK
        rep = out_json(capsys)
        assert rep["count"] == 2 and rep["recurrent_dense"]

    def test_enum_report_is_the_enumeration_named_in_str_order(
            self, capsys, monkeypatch):
        # the report is built from the mask walk; it must be the one
        # that `enumerate_sequences` gives, each set named by its points
        # sorted by `str`, on seeded systems with names out of str order
        rng = random.Random("enum-report")
        for npts in (1, 2, 3, 4, 5, 6):
            points = rng.sample(["10", "9", "b", "a", "x1", "x10", "é",
                                 "\u70b9", "Z", "0"], npts)
            images = points[:]
            rng.shuffle(images)
            text = (f"points = {' '.join(points)}\nphi: "
                    + " ".join(f"{a}->{b}" for a, b in zip(points, images))
                    + "\n")
            system = parse_system_file(text)
            for horizon in (0, 1, 2, 3):
                monkeypatch.setattr("sys.stdin", io.StringIO(text))
                assert run(["peters", "-", "enum", "--horizon",
                            str(horizon)]) == EXIT_OK
                seqs = enumerate_sequences(system, horizon)
                assert out_json(capsys) == {
                    "command": "peters-enum", "count": len(seqs),
                    "sequences": [[sorted(map(str, s)) for s in q.sets]
                                  for q in seqs],
                    "recurrent_dense": recurrent_dense(system)}, text

    def test_check_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(SWAP_SYSTEM))
        assert run(["peters", "-", "check", "--sets", "a,b|a"]) == EXIT_OK
        rep = out_json(capsys)
        assert not rep["ok"] and rep["witness"] == ["b"]

    def test_truncate_roundtrip(self, tmp_path, capsys):
        f = tmp_path / "swap.sys"
        f.write_text(SWAP_SYSTEM)
        assert run(["peters", str(f), "truncate", "--sets", "a,b|",
                    "--n", "4"]) == EXIT_OK
        rep = out_json(capsys)
        assert rep["roundtrip"]
        assert rep["corners"][0] == ["a", "b"] and rep["corners"][1] == []


    @pytest.mark.parametrize("name", ["swap.sys", "cycle.sys"])
    def test_truncate_without_an_ideal_is_one_error_line(self, capsys, name):
        # seeded --sets, most of them not (star): a sequence whose entries
        # X_(i-j) pulled back j times give no ideal exits 1 with one line
        # naming the failed product; any other truncates to its corners
        path = GOLDEN / name
        system = parse_system_file(path.read_text())
        points = sorted(map(str, system.points))
        rng = random.Random(f"truncate:{name}")
        outcomes = set()
        for _ in range(80):
            sets = [sorted(rng.sample(points, rng.randint(0, len(points))))
                    for _ in range(rng.randint(1, 4))]
            n = rng.randint(1, 5)
            code = run(["peters", str(path), "truncate", "--sets",
                        "|".join(map(",".join, sets)), "--n", str(n)])
            out, err = capsys.readouterr()
            seq = SubsetSequence(tuple(frozenset(s) for s in sets))
            model = TruncatedSemicrossed(system, n)
            rep = validate_ideal(model, {
                (i, j): system.iterate(seq.at(i - j), -j)
                for i in range(n) for j in range(i + 1)})
            if rep["ok"]:
                assert (code, err) == (EXIT_OK, "")
                # corners are stored up to their constant tail
                corners = json.loads(out)["corners"]
                assert [corners[min(i, len(corners) - 1)]
                        for i in range(n)] == [sorted(seq.at(i))
                                               for i in range(n)]
            else:
                assert (code, out) == (EXIT_ERROR, "")
                assert err == f"error: {rep['failure']}\n"
            outcomes.add(code)
        assert outcomes == {EXIT_OK, EXIT_ERROR}


class TestErrors:
    def test_bad_unit_string(self, capsys):
        assert run(["links", "standard-2", "--unit", "nope"]) == EXIT_ERROR
        assert "error" in capsys.readouterr().err

    def test_unknown_spec(self, capsys):
        assert run(["validate", "/no/such/file"]) == EXIT_ERROR
        assert "no such preset or file" in capsys.readouterr().err

    def test_unknown_preset_name(self, capsys):
        assert run(["preset", "nope"]) == EXIT_ERROR
        assert "unknown preset" in capsys.readouterr().err

    def test_bad_subcommand(self, capsys):
        assert run(["frobnicate"]) == EXIT_ERROR
        capsys.readouterr()

    def test_non_integer_horizon_env(self, capsys, monkeypatch):
        monkeypatch.setenv("LIMITALG_HORIZON", "abc")
        assert run(["donsig", "refinement-2", "--level", "0"]) == EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: LIMITALG_HORIZON") and err.count("\n") == 1

    def test_negative_enum_horizon_exits_instead_of_hanging(self):
        # the worklist of a negative horizon grew without bound; the
        # timeout turns a regression into a failure, not a stuck suite
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "limitalg.cli", "peters",
             str(GOLDEN / "swap.sys"), "enum", "--horizon", "-1"],
            env=env, capture_output=True, text=True, timeout=30)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            EXIT_ERROR, "", "error: horizon must be at least 0, got -1\n")


UNIT_COMMANDS = {
    "embed": ["--level", "2"],
    "links": [],
    "radical": [],
    "audit-technical": ["--horizons", "1,2"],
}
# refinement-2 has shape (2,) at level 0 and (4,) at level 1
BAD_UNITS = {
    "summand": "0:1:1:2",
    "row": "1:0:0:2",
    "col": "0:0:1:5",
    "row-above-col": "0:0:2:1",
    "level": "-1:0:1:1",
}


class TestUnitShapeChecks:
    @pytest.mark.parametrize("command", sorted(UNIT_COMMANDS))
    @pytest.mark.parametrize("case", sorted(BAD_UNITS))
    def test_unit_outside_the_tower_is_rejected(self, capsys, command, case):
        argv = [command, "refinement-2", f"--unit={BAD_UNITS[case]}"]
        assert run(argv + UNIT_COMMANDS[command]) == EXIT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: unit ") and err.count("\n") == 1

    def test_reported_cases(self, capsys):
        assert run(["embed", "standard-2", "--unit", "0:0:1:5",
                    "--level", "1"]) == EXIT_ERROR
        assert run(["links", "refinement-2", "--unit", "0:0:0:9"]) == EXIT_ERROR
        assert capsys.readouterr().out == ""

    def test_units_inside_the_shape_still_run(self, capsys):
        assert run(["embed", "paper-example-taf", "--unit", "1:1:1:4",
                    "--level", "2"]) == EXIT_OK
        assert out_json(capsys)["image"] == [[2, 1, 4]]


# quotes, backslashes, control characters, non-ASCII and an astral
# character, which `json` writes as a surrogate pair
PRETTY_TEXT = "ab\"\\/\n\t\x00\x1f\x7fé点 \U0001f600"
PRETTY_FLOATS = (0.0, -0.0, 0.1, -2.5, 1e300, 1e-7, 3.0,
                 float("inf"), float("-inf"), float("nan"))


class PrettyDict(dict):
    pass


class PrettyList(list):
    pass


class PrettyStr(str):
    pass


class PrettyInt(IntEnum):
    ONE = 1


def random_scalar(rng: random.Random):
    kind = rng.randrange(6)
    if kind == 0:
        return rng.randint(-3, 3)
    if kind == 1:
        return rng.randint(-10 ** 20, 10 ** 20)
    if kind == 2:
        return rng.random() < 0.5
    if kind == 3:
        return None
    if kind == 4:
        return "".join(rng.choices(PRETTY_TEXT, k=rng.randrange(5)))
    return rng.choice(PRETTY_FLOATS)


def random_key(rng: random.Random, kind: int):
    """Keys of one dict are of one comparable kind, as `sort_keys` needs."""
    if kind == 0:
        return "".join(rng.choices(PRETTY_TEXT, k=rng.randrange(4)))
    if kind == 1:  # int, bool and float keys compare with each other
        return rng.choice((rng.randint(-5, 5), rng.random() < 0.5,
                           rng.choice(PRETTY_FLOATS)))
    return None


def random_value(rng: random.Random, depth: int):
    """A seeded JSON value with tuples, subclasses and leaf-path lists."""
    kind = rng.randrange(10) if depth else 0
    n = rng.randrange(5)
    if kind < 3:
        return random_scalar(rng)
    if kind == 3:  # one scalar type throughout: int, str, bool or None
        make = rng.choice((lambda: rng.randint(-9, 99),
                           lambda: random_key(rng, 0),
                           lambda: rng.random() < 0.5, lambda: None))
        return [make() for _ in range(n)]
    if kind == 4:  # mixed scalars, such as [1, True, None, "a"]
        return [random_scalar(rng) for _ in range(n)]
    if kind == 5:
        return MatrixUnit(*(rng.randint(0, 9) for _ in range(4)))
    items = [random_value(rng, depth - 1) for _ in range(n)]
    if kind == 6:
        return items
    if kind == 7:
        return rng.choice((tuple, PrettyList))(items)
    keys = rng.randrange(3)
    return rng.choice((dict, PrettyDict))(
        (random_key(rng, keys), v) for v in items)


class TestPrettyEncoder:
    def test_pretty_matches_json_on_seeded_values(self):
        rng = random.Random(18)
        for _ in range(2000):
            value = random_value(rng, 4)
            assert cli._pretty(value) == json.dumps(value, sort_keys=True,
                                                    indent=2), value

    @pytest.mark.parametrize("value", [
        [True, False], [1, True], [0, False, 2], {"b": [True], "a": (1, 2)},
        {True: 1, 2: [], 0.5: {}, -1: ""}, {None: ()}, [[], {}, ()],
        [MatrixUnit(0, 0, 1, 2), MatrixUnit(1, 0, 2, 3)], "é\x00\U0001f600",
        [float("nan"), 1e16, -0.0], PrettyDict(b=1, a=PrettyList([1, 2])),
        # subclasses and bools as dict values and list items, which keep
        # the recursive path or take the keyword text
        {"s": PrettyStr("x\n"), "i": PrettyInt.ONE, "t": True, "f": False},
        [PrettyStr("x"), PrettyInt.ONE, True, False, None, 1, "y"],
        [PrettyStr("x"), PrettyStr("y")], [PrettyInt.ONE, PrettyInt.ONE],
        {"s": [PrettyStr("x")], "i": [PrettyInt.ONE, 2], "n": [None, 0]},
        # lists of one keyword type as dict values
        {"b": [True, False, True], "n": [None, None], "e": [], "t": [True]}])
    def test_pretty_matches_json_at_the_edges(self, value):
        assert cli._pretty(value) == json.dumps(value, sort_keys=True,
                                                indent=2)

    @pytest.mark.parametrize("value", [
        {1, 2}, Fraction(1, 2), {"a": [Fraction(1, 3)]}, [{1}],
        {(0, 1): "tuple key"}])
    def test_unsupported_types_raise_type_error_as_json_does(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            cli._pretty(value)

    def test_lists_of_dicts_sharing_key_orders(self):
        # lists of dicts like `donsig`'s entries, in a few key orders,
        # with int lists, bool lists and other values, and an empty dict;
        # the keys 1, True and 1.0 are equal in Python but written apart
        rng = random.Random(24)
        orders = [("unit", "status", "level", "witness"),
                  ("witness", "level", "unit", "status"),
                  ("unit", "status", "certificate"), (2, 0.5, True, -1)]
        for _ in range(300):
            entries = []
            for _ in range(rng.randrange(8)):
                keys = rng.choice(orders)[:rng.randint(0, 4)]
                entries.append({k: rng.choice((
                    [rng.randint(-5, 9) for _ in range(rng.randrange(4))],
                    [True, 1], rng.randint(0, 9), "linked", None, 1.5,
                    random_value(rng, 2))) for k in keys})
            value = rng.choice((entries, {"units": entries}))
            assert cli._pretty(value) == json.dumps(value, sort_keys=True,
                                                    indent=2), value
        value = [{1: 0}, {True: 0}, {1.0: 0}, {1: [1]}, {True: [True]}]
        assert cli._pretty(value) == json.dumps(value, sort_keys=True,
                                                indent=2)
        with pytest.raises(TypeError):
            cli._pretty([{"a": 1}, {1: 2, "b": 3}])

    def test_a_list_held_at_two_indentations(self):
        # a shared list is written once per indentation it is met at,
        # as a list item or as a dict value
        shared = ["a", "b"]
        for value in ([shared, [shared], {"k": [shared, shared]}],
                      {"x": [[shared], shared], "y": [shared, [[shared]]]},
                      {"x": shared, "y": {"z": shared}, "w": [shared]},
                      [{"k": shared}, [{"k": shared}, shared]]):
            assert cli._pretty(value) == json.dumps(value, sort_keys=True,
                                                    indent=2)

    def test_the_memo_keeps_only_lists_written_by_one_join(self):
        # the lists that hold shared lists (a `peters enum` chain) are
        # met once each; their texts are not kept for the whole call
        shared, ints = ["a", "b"], [1, 2]
        chains = [[shared, ints], [shared, [shared]], [[], [True]]]
        value = {"chains": chains, "top": [chains[0], shared]}
        memo = {}
        assert cli._pretty(value, memo=memo) == json.dumps(
            value, sort_keys=True, indent=2)
        assert {i for i, _ in memo} == {id(shared), id(ints)}

    def test_dict_scalars_and_leaf_lists_are_written_in_place(
            self, monkeypatch):
        # N donsig-shaped entries take one call each, plus the report and
        # its list: no call per scalar or per list of ints
        calls = []
        pretty = cli._pretty

        def counted(*args, **kwargs):
            calls.append(None)
            return pretty(*args, **kwargs)

        monkeypatch.setattr(cli, "_pretty", counted)
        n = 200
        units = [{"level": i % 3, "status": "linked",
                  "unit": [i, 0, 1, i + 2], "witness": [0, i, i + 1]}
                 if i % 2 else
                 {"certificate": "separation", "status": "linkless",
                  "unit": [i, 0, 1, 2]} for i in range(n)]
        value = {"command": "donsig", "level": 3, "units": units}
        assert cli._pretty(value) == json.dumps(value, sort_keys=True,
                                                indent=2)
        assert len(calls) <= n + 3

    def test_calls_whose_objects_reuse_ids(self):
        # one list object, changed between two calls, keeps its id; a
        # memo that outlived a call would write its old text
        inner = ["a"]
        for word in ("a", "b", "c"):
            inner[0] = word
            value = [[inner], [inner, inner]]
            assert cli._pretty(value) == json.dumps(value, sort_keys=True,
                                                    indent=2)


def _parsed(parse, argv):
    """The namespace `parse(argv)` gives, without `cmd`, or the usage
    error it raises."""
    try:
        args = vars(parse(argv))
    except cli.CliError as exc:
        return f"error: {exc}"
    args.pop("cmd", None)
    return args


def _replay():
    """The golden corpus's `replay` module."""
    sys.path.insert(0, str(GOLDEN))
    try:
        import replay
    finally:
        sys.path.remove(str(GOLDEN))
    return replay


def test_both_dispatch_paths_parse_golden_argvs_alike():
    # `run` hands an argv that starts with a subcommand name to that
    # subcommand's parser; the top-level parser must read it the same way
    replay = _replay()
    parser = cli._build_parser(DEFAULT_HORIZON)
    direct = 0
    for argv, _ in replay.CASES.values():
        argv = replay._argv(argv)
        if argv and argv[0] in parser.commands:
            command = parser.commands[argv[0]]
            assert _parsed(command.parse_args, argv[1:]) == \
                _parsed(parser.parse_args, argv), argv
            direct += 1
    assert direct > 100
