"""Command-line surface: parsing, certificates, and JSON reports.

Exit codes: 0 = verdict established, 2 = unknown/inconclusive,
1 = input or usage error.  Reports are JSON with sorted keys, so
identical invocations are byte-identical.  Tower specs are given as a
preset name, a file path, or '-' for stdin; LIMITALG_HORIZON overrides
the default search horizon.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import crossed, dynamics, links, peters, radical
from .parser import (ActionSpecData, TowerSyntaxError, parse_system_file,
                     parse_tower_file)
from .tower import (MatrixUnit, PRESETS, TowerSpec, TowerValidationError,
                    UnitShapeError, embed_unit, preset,
                    verify_embedding_order)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNKNOWN = 2


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _default_horizon() -> int:
    env = os.environ.get("LIMITALG_HORIZON")
    if not env:
        return links.DEFAULT_HORIZON
    try:
        return int(env)
    except ValueError:
        raise CliError(
            f"LIMITALG_HORIZON must be an integer, got {env!r}") from None


def _read_input(arg: str) -> str:
    """Contents of the file `arg`, or of stdin for '-'."""
    if arg == "-":
        return sys.stdin.read()
    with open(arg) as fh:
        return fh.read()


def _read_spec(arg: str) -> tuple[TowerSpec, list[ActionSpecData]]:
    if arg in PRESETS:
        return preset(arg), []
    if arg != "-" and not os.path.exists(arg):
        raise CliError(f"no such preset or file: {arg}")
    return parse_tower_file(_read_input(arg))


def _parse_unit(text: str, tower: TowerSpec) -> MatrixUnit:
    """A unit of the tower's triangular algebra at its level."""
    parts = text.split(":")
    if len(parts) != 4:
        raise CliError("unit must be LEVEL:SUMMAND:ROW:COL")
    unit = MatrixUnit(*_ints(text, ":", "--unit", text))
    try:
        tower.check_unit(unit)
    except UnitShapeError as exc:
        raise CliError(f"unit {text}: {exc}") from None
    return unit


_quote = json.encoder.encode_basestring_ascii
_KEYWORDS = {True: "true", False: "false", None: "null"}
# a dict value or list item of one of these exact types is written by one
# lookup, with no recursive call; subclasses keep the recursive path
_SCALAR = {int: int.__repr__, str: _quote, bool: _KEYWORDS.__getitem__,
           type(None): _KEYWORDS.__getitem__}
# a list whose items all have one of these exact types is written by one
# join, with no Python frame per item; bool is not int here
_LEAF = {int: int.__repr__, str: _quote}


def _pretty(obj, nl: str = "\n", memo: dict | None = None,
            key: tuple | None = None) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2)`, byte for byte.

    Any `indent` makes `json` fall back to its pure-Python encoder; this
    one follows the same rules: bool before int, tuples as arrays, dict
    items sorted on the original keys, non-str keys written as `json`
    writes them, and a `TypeError` on any other type.  `nl` is the
    newline and indentation that closes `obj`.

    Dict values and list items of an exact type in `_SCALAR` are written
    in place, and so is a dict value that is a non-empty list of one
    exact `_LEAF` type; every other value is written by a recursive call.

    A list item that is itself a `list` is written once per indentation:
    `memo` maps (id, nl) to its text, so a list shared by many items (the
    name lists of `peters enum`) is rendered at its first occurrence and
    copied after.  The holding list passes that (id, nl) as `key`, and
    only a text written by one join is kept.  The memo belongs to one
    top-level call, while every object it keys is alive, so an id is
    never reused under it.
    """
    if memo is None:
        memo = {}
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = nl + "  "
        kinds = set(map(type, obj))
        leaf = _LEAF.get(kinds.pop()) if len(kinds) == 1 else None
        if leaf:
            items = map(leaf, obj)
        else:
            items = []
            for x in obj:
                kind = type(x)
                if kind is list:
                    k = id(x), inner
                    text = memo.get(k) or _pretty(x, inner, memo, k)
                else:
                    write = _SCALAR.get(kind)
                    text = write(x) if write else _pretty(x, inner, memo)
                items.append(text)
        text = "[" + inner + ("," + inner).join(items) + nl + "]"
        if leaf and key:
            memo[key] = text
        return text
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = nl + "  "
        deeper = inner + "  "
        items = []
        for k, v in sorted(obj.items()):
            text = _quote(k if isinstance(k, str) else _key(k)) + ": "
            kind = type(v)
            write = _SCALAR.get(kind)
            if write:
                items.append(text + write(v))
                continue
            leaf = None
            if kind is list and v:
                kinds = set(map(type, v))
                leaf = _LEAF.get(kinds.pop()) if len(kinds) == 1 else None
            if leaf:
                items.append(text + "[" + deeper + ("," + deeper).join(
                    map(leaf, v)) + inner + "]")
            else:
                items.append(text + _pretty(v, inner, memo))
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None or obj is True or obj is False:
        return _KEYWORDS[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return json.dumps(obj)
    raise TypeError(
        f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _key(key) -> str:
    """A non-str dict key as the string `json` writes for it."""
    if key is None or isinstance(key, (int, float)):  # bool is an int
        return _pretty(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _emit(report: dict, compact: bool) -> None:
    if compact:
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        print(_pretty(report))


# ---------------------------------------------------------------------------
# crossed-product argument plumbing


def _ints(part: str, sep: str, flag: str, text: str) -> tuple[int, ...]:
    """The integers that `sep` joins in `part`, a piece of the value
    `text` given to `flag`."""
    try:
        return tuple(int(x) for x in part.split(sep))
    except ValueError:
        raise CliError(f"{flag} {text!r}: expected integers joined by "
                       f"{sep!r}") from None


def _parse_group(text: str) -> crossed.FiniteAbelianGroup:
    if text in ("1", ""):
        return crossed.FiniteAbelianGroup(())
    return crossed.FiniteAbelianGroup(_ints(text, "x", "--group", text))


def _parse_action_gen(text: str, shape: tuple[int, ...]):
    """'perm=1,0;diag=0,1|0,1' -> (permutation, diagonal zeta exponents)."""
    perm = tuple(range(len(shape)))
    diag = tuple((0,) * k for k in shape)
    for part in text.split(";"):
        if not part:
            continue
        key, _, val = part.partition("=")
        if key == "perm":
            perm = _ints(val, ",", "--action", text)
        elif key == "diag":
            diag = tuple(_ints(blk, ",", "--action", text)
                         for blk in val.split("|"))
        else:
            raise CliError(f"unknown action component {key!r}")
    if len(perm) != len(shape) or len(diag) != len(shape) \
            or any(len(d) != k for d, k in zip(diag, shape)):
        raise CliError("action does not match the base shape")
    return perm, diag


def _build_system(args):
    shape = _ints(args.base, ",", "--base", args.base)
    group = _parse_group(args.group)
    gens = [_parse_action_gen(a, shape) for a in (args.action or [])]
    if len(gens) != len(group.orders):
        raise CliError("need exactly one --action per group factor")
    action = crossed.LevelAction(group, shape, gens)
    return shape, group, action


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> int:
    try:
        tower, actions = _read_spec(args.spec)
    except (TowerSyntaxError, TowerValidationError) as exc:
        _emit({"command": "validate", "ok": False, "error": str(exc)},
              args.json)
        return EXIT_ERROR
    report = {"command": "validate", "ok": True,
              "stationary": not tower.finite,
              "levels_explicit": len(tower.levels),
              "actions": [a.name for a in actions]}
    _emit(report, args.json)
    return EXIT_OK


def _cmd_embed(args) -> int:
    tower, _ = _read_spec(args.spec)
    e = _parse_unit(args.unit, tower)
    img = embed_unit(tower, e, args.level)
    _emit({"command": "embed", "unit": [e.level, e.summand, e.row, e.col],
           "level": args.level,
           "image": [[u.summand, u.row, u.col] for u in img.units]},
          args.json)
    return EXIT_OK


def _cmd_links(args) -> int:
    tower, _ = _read_spec(args.spec)
    e = _parse_unit(args.unit, tower)
    st = links.link_status(tower, e, args.horizon)
    _emit({"command": "links",
           "unit": [e.level, e.summand, e.row, e.col], **st.to_json()},
          args.json)
    return EXIT_UNKNOWN if isinstance(st, links.NotLinkedUpTo) else EXIT_OK


def _cmd_donsig(args) -> int:
    tower, _ = _read_spec(args.spec)
    rep = links.donsig_report(tower, args.level, args.horizon)
    _emit({"command": "donsig", **rep}, args.json)
    return EXIT_UNKNOWN if rep["verdict"] == "inconclusive" else EXIT_OK


def _cmd_radical(args) -> int:
    tower, _ = _read_spec(args.spec)
    e = _parse_unit(args.unit, tower)
    st = radical.radical_membership(tower, e,
                                    expand_horizon=args.expand_horizon,
                                    link_horizon=args.horizon,
                                    exponent=args.exponent)
    _emit({"command": "radical",
           "unit": [e.level, e.summand, e.row, e.col], **st.to_json()},
          args.json)
    return EXIT_UNKNOWN if isinstance(st, radical.Unknown) else EXIT_OK


def _cmd_audit_order(args) -> int:
    tower, _ = _read_spec(args.spec)
    rep = verify_embedding_order(tower, args.level)
    _emit({"command": "audit-order", **rep}, args.json)
    return EXIT_OK if rep["ok"] else EXIT_ERROR


def _tower_action(tower, specs: list[ActionSpecData]) -> dynamics.TowerAction:
    if not specs:
        return dynamics.trivial_tower_action(
            tower, crossed.FiniteAbelianGroup(()))
    group = crossed.FiniteAbelianGroup(tuple(s.order for s in specs))
    return dynamics.TowerAction(tower, group, [dict(s.maps) for s in specs],
                                names=[s.name for s in specs])


def _cmd_audit_technical(args) -> int:
    tower, specs = _read_spec(args.spec)
    action = _tower_action(tower, specs)
    e = _parse_unit(args.unit, tower)
    horizons = _ints(args.horizons, ",", "--horizons", args.horizons)
    if len(horizons) != 2:
        raise CliError(f"--horizons {args.horizons!r}: expected two "
                       f"integers joined by ','")
    rep = dynamics.technical_index_audit(tower, action, e, horizons)
    _emit({"command": "audit-technical", **rep}, args.json)
    return EXIT_OK


def _cmd_crossed(args) -> int:
    shape, group, action = _build_system(args)
    triangular = not args.full
    if args.what == "radical":
        a = crossed.build_crossed(shape, group, action, triangular)
        rad = a.radical()
        rep = {"dimension": a.dim, "radical_dim": len(rad),
               "radical": [{str(k): c.as_coeff_strings() for k, c in v.items()}
                           for v in rad]}
    elif args.what == "tight":
        rep = crossed.radical_tightness_check(shape, group, action, triangular)
    elif args.what == "lattice":
        rep = crossed.verify_lattice_iso(shape, group, action, triangular)
    elif args.what == "diag":
        rep = crossed.diag_check(shape, group, action, triangular)
    elif args.what == "links-lemma":
        a = crossed.build_crossed(shape, group, action, triangular)
        rep = crossed.links_lemma_check(a)
    elif args.what == "permanence":
        rep = crossed.semisimplicity_permanence_check(shape, group, action,
                                                      triangular)
    else:  # pragma: no cover - argparse restricts choices
        raise CliError(f"unknown crossed subcommand {args.what!r}")
    _emit({"command": f"crossed-{args.what}", "base": list(shape),
           "group": list(group.orders), **rep}, args.json)
    return EXIT_OK


def _parse_sets(text: str, sys_: peters.FiniteDynSys) -> peters.SubsetSequence:
    sets = []
    for block in text.split("|"):
        labels = [x for x in block.split(",") if x]
        unknown = set(labels) - set(map(str, sys_.points))
        if unknown:
            raise CliError(f"unknown points in --sets: {sorted(unknown)}")
        by_str = {str(p): p for p in sys_.points}
        sets.append(frozenset(by_str[x] for x in labels))
    return peters.SubsetSequence(tuple(sets))


def _cmd_peters(args) -> int:
    system = parse_system_file(_read_input(args.sysfile))
    if args.what == "enum":
        # a system file names its points by strings, so each mask's name
        # list is the report's: sequences share the lists of their sets
        names, chains = peters.sequence_masks(system, args.horizon)
        rep = {"count": len(chains),
               "sequences": [list(map(names.__getitem__, chain))
                             for chain in chains],
               "recurrent_dense": peters.recurrent_dense(system)}
        _emit({"command": "peters-enum", **rep}, args.json)
        return EXIT_OK
    if args.sets is None:
        raise CliError(f"peters {args.what} requires --sets")
    seq = _parse_sets(args.sets, system)
    if args.what == "check":
        rep = peters.check_star(system, seq)
        _emit({"command": "peters-check",
               "ok": rep["ok"],
               **{k: [str(x) for x in v] if k == "witness" else v
                  for k, v in rep.items() if k != "ok"}}, args.json)
        return EXIT_OK
    if args.what == "truncate":
        model = peters.TruncatedSemicrossed(system, args.n)
        ideal = peters.ideal_from_sequence(model, seq)
        iseq = peters.extract_bigstar(model, ideal)
        roundtrip = all(iseq.at(n) == seq.at(n) for n in range(args.n - 1))
        _emit({"command": "peters-truncate", "n": args.n,
               "roundtrip": roundtrip,
               "corners": [sorted(map(str, z)) for z in iseq.zero_sets]},
              args.json)
        return EXIT_OK
    raise CliError(f"unknown peters subcommand {args.what!r}")


def _cmd_preset(args) -> int:
    if args.name not in PRESETS:
        raise CliError(f"unknown preset {args.name!r}")
    sys.stdout.write(f"preset {args.name}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


@functools.cache
def _build_parser(horizon: int) -> _Parser:
    """The argument parser with `horizon` as the default search horizon.

    Built once per horizon: parse_args leaves the parser unchanged and
    gives every call a fresh namespace.  `commands` maps each subcommand
    name to its own parser, for `run` to dispatch on.
    """
    p = _Parser(prog="limitalg", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)
    p.commands = sub.choices

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        sp.add_argument("--json", action="store_true",
                        help="compact single-line JSON")
        return sp

    sp = add("validate", _cmd_validate, help="parse and validate a tower spec")
    sp.add_argument("spec")

    sp = add("embed", _cmd_embed, help="embed a matrix unit to a later level")
    sp.add_argument("spec")
    sp.add_argument("--unit", required=True)
    sp.add_argument("--level", type=int, required=True)

    sp = add("links", _cmd_links, help="link status of a matrix unit")
    sp.add_argument("spec")
    sp.add_argument("--unit", required=True)
    sp.add_argument("--horizon", type=int, default=horizon)

    sp = add("donsig", _cmd_donsig, help="semisimplicity report up to a level")
    sp.add_argument("spec")
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--horizon", type=int, default=horizon)

    sp = add("radical", _cmd_radical, help="radical membership of a unit")
    sp.add_argument("spec")
    sp.add_argument("--unit", required=True)
    sp.add_argument("--horizon", type=int, default=horizon)
    sp.add_argument("--expand-horizon", type=int,
                    default=radical.DEFAULT_EXPAND_HORIZON)
    sp.add_argument("--exponent", type=int, default=None)

    sp = add("audit-order", _cmd_audit_order,
             help="diagonal occurrence bounds across one TUHF step")
    sp.add_argument("spec")
    sp.add_argument("--level", type=int, required=True)

    sp = add("audit-technical", _cmd_audit_technical,
             help="tightness index-chase audit")
    sp.add_argument("spec")
    sp.add_argument("--unit", required=True)
    sp.add_argument("--horizons", default="3,4")

    sp = add("crossed", _cmd_crossed, help="finite crossed-product reports")
    sp.add_argument("what", choices=["radical", "tight", "lattice", "diag",
                                     "links-lemma", "permanence"])
    sp.add_argument("--base", required=True,
                    help="comma-separated block sizes, e.g. 2 or 2,2")
    sp.add_argument("--full", action="store_true",
                    help="full matrix blocks instead of triangular")
    sp.add_argument("--group", default="1", help="e.g. 2 or 2x2")
    sp.add_argument("--action", action="append",
                    help="per generator: 'perm=1,0;diag=0,1|0,1'")

    sp = add("peters", _cmd_peters, help="gauge-invariant ideal parametrization")
    sp.add_argument("sysfile")
    sp.add_argument("what", choices=["enum", "check", "truncate"])
    sp.add_argument("--horizon", type=int, default=1)
    sp.add_argument("--sets", default=None,
                    help="sequence as '1,2|1|' (empty block = empty set)")
    sp.add_argument("--n", type=int, default=6)

    sp = add("preset", _cmd_preset, help="emit a builtin tower spec")
    sp.add_argument("name")
    return p


def run(argv: list[str] | None = None) -> int:
    """Run one command line (`sys.argv[1:]` when `argv` is None).

    An argv that starts with a subcommand name is parsed by that
    subcommand's parser alone; any other argv (empty, an unknown name,
    an option first) goes through the top-level parser, which reports
    the usage error.  `_Parser.error` writes the message alone, so both
    paths give the same message for the same mistake.
    """
    if argv is None:
        argv = sys.argv[1:]
    try:
        parser = _build_parser(_default_horizon())
        command = parser.commands.get(argv[0]) if argv else None
        args = (command.parse_args(argv[1:]) if command
                else parser.parse_args(argv))
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
