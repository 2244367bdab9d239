"""Source-level rules for the library package."""
import argparse
import ast
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import limitalg
from limitalg import cli, links, tower

PACKAGE = Path(limitalg.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))
import replay  # noqa: E402
from test_golden import EXPECTED, _mismatch  # noqa: E402


def test_library_has_no_assert_statements():
    # `python -O` strips asserts: input checks and post-conditions must
    # raise explicitly (ValueError, AssertionError, ...)
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_library_modules_read_every_name_they_import():
    # a helper that goes leaves no import behind it; `__init__.py`
    # imports to re-export
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}  # bound name -> line
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported.items() if name not in read]
    assert unused == []


def test_library_modules_read_every_private_helper():
    # a module-level `_name` function or class is reachable only from
    # its own module, so one that the module never reads is dead
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.name}:{node.lineno} {node.name}"
                   for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   and node.name.startswith("_") and node.name not in read]
    assert unread == []


def test_every_parameter_of_a_library_function_is_read():
    # a module-level function's parameter that its body never reads is
    # an argument every caller passes for nothing
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            params = [a.arg for a in (args.posonlyargs + args.args
                                      + args.kwonlyargs
                                      + [args.vararg, args.kwarg]) if a]
            read = {n.id for n in ast.walk(node)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.stem}.{node.name}({name})"
                       for name in params if name not in read]
    assert unread == []


def test_only_tower_sets_a_tower_rule():
    # a tower gets its rule when it is made, so `_build` checks it
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "tower.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "rule"
                  and isinstance(node.ctx, ast.Store)]
    assert found == []


def _callers(paths, name: str) -> list[str]:
    """Qualified scope (module.def/class...) of every call to `name`."""
    callers = []
    for path in paths:
        # (node, qualified name of the def or class around it)
        stack = [(ast.parse(path.read_text(), filename=str(path)), path.stem)]
        while stack:
            node, scope = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                scope = f"{scope}.{node.name}"
            if isinstance(node, ast.Call) and name in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)):
                callers.append(scope)
            stack += [(child, scope) for child in ast.iter_child_nodes(node)]
    return callers


def _defaulted_parameters(path: Path) -> dict[str, tuple]:
    """`module.qualname(param)` -> (the name a call uses, the parameter,
    its index among the arguments a call passes) for each defaulted
    parameter of each def in `path`; keyword-only parameters have no
    index.  A call
    passes no `self` or `cls`, and a class name calls `__init__`."""
    found = {}
    stack = [(ast.parse(path.read_text(), filename=str(path)), path.stem, False)]
    while stack:
        node, scope, in_class = stack.pop()
        if isinstance(node, ast.FunctionDef):
            args = node.args
            positional = args.posonlyargs + args.args
            shift = int(in_class and not any(
                getattr(d, "id", None) == "staticmethod"
                for d in node.decorator_list))
            called = scope.rsplit(".", 1)[1] if node.name == "__init__" \
                else node.name
            qualname = f"{scope}.{node.name}"
            for k in range(len(positional) - len(args.defaults),
                           len(positional)):
                name = positional[k].arg
                found[f"{qualname}({name})"] = (called, name, k - shift)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    found[f"{qualname}({arg.arg})"] = (called, arg.arg, None)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        stack += [(child, scope, isinstance(node, ast.ClassDef))
                  for child in ast.iter_child_nodes(node)]
    return found


def test_every_defaulted_library_parameter_is_set_by_some_caller():
    # a default that no call overrides is a constant dressed as an option
    params = {}
    for path in sorted(PACKAGE.glob("*.py")):
        params.update(_defaulted_parameters(path))
    unset = set(params)
    for path in sorted({*PACKAGE.parent.rglob("*.py"),
                        *(ROOT / "tests").rglob("*.py"),
                        *(ROOT / "perfbench").rglob("*.py")}):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            called = getattr(node.func, "id", getattr(node.func, "attr", None))
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {kw.arg for kw in node.keywords}
            for param in [p for p in unset if params[p][0] == called]:
                _, name, index = params[param]
                if (None in keywords or name in keywords or index is not None
                        and (starred or index < len(node.args))):
                    unset.discard(param)
    assert not unset, "\n".join(sorted(unset))


def test_only_tower_builds_preset_towers():
    # every other module takes a preset tower from `tower.preset`, one
    # shared tower per name; `name in PRESETS` builds nothing
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "tower.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        uses = {node for node in ast.walk(tree)
                if getattr(node, "id", getattr(node, "attr", None))
                == "PRESETS"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and all(
                    isinstance(op, (ast.In, ast.NotIn)) for op in node.ops):
                uses.difference_update(node.comparators)
        found += [f"{path.name}:{node.lineno}" for node in uses]
    assert found == []


def test_pairing_runs_only_in_the_walk_and_the_generator_step():
    # one level walk: every other caller steps through `tower.images`
    callers = _callers(sorted(PACKAGE.glob("*.py")), "pair_occurrences")
    assert sorted(callers) == ["dynamics.TowerAction.apply_gen",
                               "tower.images"]


def test_a_subcommand_argv_is_parsed_once(monkeypatch, capsys):
    # the subcommand's own parser reads it; the top-level parser does not
    calls = []
    original = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        calls.append(self.prog)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    assert cli.run(["links", "standard-2", "--unit", "0:0:1:2"]) == 0
    assert calls == ["limitalg links"]
    calls.clear()
    assert cli.run(["--json", "preset", "standard-2"]) == 1
    assert calls[0] == "limitalg"
    capsys.readouterr()


def test_radical_on_a_diagonal_unit_pairs_no_level(monkeypatch, capsys):
    # no all-linkless scan: a diagonal unit's images are diagonal units,
    # each linked at its own level
    steps = []
    original = tower.pair_occurrences

    def counting(*args):
        steps.append(args[2])
        return original(*args)

    monkeypatch.setattr(tower, "pair_occurrences", counting)
    for spec, unit in (("standard-2", "1:0:2:2"), ("refinement-2", "0:0:1:1"),
                       ("paper-example-taf", "2:1:1:1"),
                       (str(GOLDEN / "finite.tower"), "1:0:2:2"),
                       (str(GOLDEN / "prefix.tower"), "1:1:1:1")):
        assert cli.run(["radical", spec, "--unit", unit]) in (0, 2), spec
        assert steps == [], spec
    capsys.readouterr()


def test_donsig_builds_no_image(monkeypatch, capsys):
    # one walk decides every unit, and a unit that links one level above
    # its own reads its witness off that step's index with [unit] as its
    # image, so no image is built
    walks = []
    original_images = tower.images

    def counting_images(*args):
        walks.append(args[1])
        return original_images(*args)

    for module in (tower, links):
        monkeypatch.setattr(module, "images", counting_images)
    assert cli.run(["donsig", "standard-2", "--level", "4"]) == 0
    capsys.readouterr()
    assert walks == []


def test_cyclotomic_builds_fractions_only_at_its_public_boundary():
    # Cyc arithmetic runs on integer numerators over one denominator; a
    # `Fraction(...)` inside it would bring back a gcd per coefficient
    boundary = {"cyclotomic.Cyc.__init__", "cyclotomic.Cyc.from_rational",
                "cyclotomic.Cyc.c", "cyclotomic.Cyc.__eq__"}
    callers = _callers([PACKAGE / "cyclotomic.py"], "Fraction")
    assert sorted(set(callers) - boundary) == []


def test_no_library_call_to_json_dumps_takes_an_indent():
    # any `indent` sends `json` to its pure-Python encoder; pretty reports
    # go through `cli._pretty`, which writes the same bytes
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "attr",
                              getattr(node.func, "id", None))
                  in ("dump", "dumps")
                  and any(kw.arg == "indent" for kw in node.keywords)]
    assert found == []


def test_every_library_name_in_the_readme_resolves():
    # a backticked `module.attr[.attr]` whose module is a library module
    # must name something that exists, so a deletion leaves no stale
    # mention behind; `algebra.py` and the like are file names
    modules = {path.stem for path in PACKAGE.glob("*.py")} | {"limitalg"}
    text = (ROOT / "README.md").read_text()
    names = set(re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)[`(]", text))
    checked = [name for name in sorted(names)
               if name.split(".")[0] in modules and not name.endswith(".py")]
    missing = []
    for name in checked:
        first, *attrs = name.split(".")
        obj = importlib.import_module(
            "limitalg" if first == "limitalg" else f"limitalg.{first}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(name)
    assert missing == [] and len(checked) > 5


def test_golden_corpus_covers_every_command():
    # every subcommand, and every `what` of `crossed` and `peters`, has
    # output pinned by at least one golden case; every `crossed` report
    # on a triangular and on a full base
    parser = cli._build_parser(links.DEFAULT_HORIZON)
    [sub] = [a for a in parser._actions
             if isinstance(a, argparse._SubParsersAction)]
    wanted = {(name, None, None) for name in sub.choices}
    for name in ("crossed", "peters"):
        [what] = [a for a in sub.choices[name]._actions if a.dest == "what"]
        wanted |= {(name, choice, None) for choice in what.choices}
    [what] = [a for a in sub.choices["crossed"]._actions if a.dest == "what"]
    wanted |= {("crossed", choice, full) for choice in what.choices
               for full in (False, True)}
    seen = set()
    for argv, _ in replay.CASES.values():
        try:
            args = parser.parse_args(replay._argv(argv))
        except cli.CliError:
            continue  # a usage-error case pins no command's output
        what = getattr(args, "what", None)
        seen |= {(args.cmd, None, None), (args.cmd, what, None),
                 (args.cmd, what, getattr(args, "full", None))}
    assert sorted(wanted - seen, key=str) == []


def test_golden_corpus_pins_every_certificate_kind():
    # each link status, linkless certificate and radical route appears in
    # at least one recorded stdout, so a simplification that deletes one
    # of their code paths changes a golden byte
    wanted = {"linked", "not-linked-up-to", "frozen", "separation",
              "finite-tower", "chain-cycle", "linkless-decomposition",
              "uniform-nilpotency", "unknown"}
    field = re.compile(r'"(?:status|certificate|kind)":\s*"([^"]*)"')
    seen = {kind for case in EXPECTED.values()
            for kind in field.findall(case["stdout"])}
    assert sorted(wanted - seen) == []


def test_every_benchmark_tracer_hook_resolves():
    # the benchmark's tracer wraps library functions by name: a function
    # deleted or renamed here would make every traced run fail
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    import limitalg.cli  # noqa: F401 - the tracer patches imported modules

    targets = [(m, p) for m, p in tracing.SPANNED]
    targets += [(m, p) for m, p, _ in tracing.COUNTED]

    def current():
        out = {}
        for modname, path in targets:
            owner, attr = tracing._resolve(
                sys.modules[f"limitalg.{modname}"], path)
            out[modname, path] = owner.__dict__[attr] \
                if isinstance(owner, type) else getattr(owner, attr)
        return out

    originals = current()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = current()
    finally:
        tracer.uninstall()
    assert [t for t in targets if patched[t] is originals[t]] == []
    assert current() == originals


def _perfbench_module(name: str, monkeypatch):
    """The benchmark's module `name`, imported read-only from its file."""
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_pins_of_donsig_and_peters_enum_replay(tmp_path,
                                                         monkeypatch):
    # every `donsig` and `peters enum` query the tower-sweep workload can
    # draw must still print the bytes the benchmark pins for it
    workloads = _perfbench_module("workloads", monkeypatch)
    pins = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    pool = workloads.pool("tower-sweep", None)
    paths = {}
    for name, text in pool.files.items():
        (tmp_path / name).write_text(text)
        paths[name] = str(tmp_path / name)
    queries = {workloads.query_id(q): q for q in pool.warmup + pool.queries
               if q[0] == "donsig" or q[0] == "peters" and q[2] == "enum"}
    assert len(queries) == 67
    monkeypatch.delenv("LIMITALG_HORIZON", raising=False)
    for qid, argv in queries.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run([paths[a[1:]] if a.startswith("@") else a
                            for a in argv])
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        assert [code, digest] == pins["tower-sweep"][qid], qid


def _python_3_10() -> str | None:
    """A `python3.10` on PATH that starts and reports version 3.10."""
    exe = shutil.which("python3.10")
    if exe is None:
        return None
    try:
        probe = subprocess.run(
            [exe, "-c", "import sys; print(sys.version_info[:2] == (3, 10))"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return exe if probe.stdout.strip() == "True" else None


def test_golden_corpus_replays_under_python_3_10():
    # pyproject.toml promises Python >= 3.10: no output may rest on syntax
    # or library behaviour that only a later version has
    exe = _python_3_10()
    if exe is None:
        pytest.skip("no Python 3.10 interpreter runs on PATH")
    env = dict(os.environ)
    env.pop("LIMITALG_HORIZON", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([exe, str(GOLDEN / "replay.py")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert sorted(results) == sorted(EXPECTED)
    diffs = "\n".join(filter(None, (_mismatch(name, results[name])
                                    for name in sorted(results))))
    assert not diffs, diffs
