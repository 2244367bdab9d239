"""Per-layer tracing installed from outside the library.

The tracer wraps public functions of the limitalg modules.  A wrapped
function records a span (name, start, end, parent span, query id);
spans stay in memory until the run writes them out.  A handful of
functions are counted only: per-call spans on the `Cyc` scalar
operations would cost more than the eliminations that call them, so
`Cyc.__init__`, `__add__`, `__mul__` and `inverse` (and their reflected
aliases) are counted but not timed, as is `TowerSpec.words`.

A plain ``from .tower import embed_unit`` gives each importing module
its own binding, so a wrapper is bound under every name, in every
limitalg module, that refers to the original function.
"""
from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute path) of every spanned callable
SPANNED = [
    ("cli", "run"),
    ("parser", "parse_tower_file"),
    ("tower", "validate_embedding"),
    ("tower", "embed_unit"),
    ("tower", "embed_element"),
    ("tower", "decompose"),
    ("links", "link_status"),
    ("links", "has_link_at"),
    ("links", "certify_linkless"),
    ("radical", "radical_membership"),
    ("radical", "chain_cycle_certificate"),
    ("radical", "uniform_nilpotency"),
    ("dynamics", "technical_index_audit"),
    ("dynamics", "TowerAction.apply_gen"),
    ("peters", "enumerate_sequences"),
    ("peters", "validate_ideal"),
    ("linalg", "rref"),
    ("algebra", "MonomialAlgebra.gram"),
    ("algebra", "MonomialAlgebra.radical_basis"),
    ("crossed", "build_crossed"),
    ("crossed", "enumerate_invariant_ideals"),
    ("crossed", "enumerate_dual_invariant_ideals"),
    ("crossed", "diag_check"),
    ("crossed", "radical_tightness_check"),
    ("crossed", "verify_lattice_iso"),
    ("crossed", "links_lemma_check"),
    ("crossed", "semisimplicity_permanence_check"),
]

# counted, never timed: (module, attribute path, counter name)
COUNTED = [
    ("tower", "TowerSpec.words", "tower.TowerSpec.words"),
    ("cyclotomic", "Cyc.__init__", "cyclotomic.Cyc.init"),
    ("cyclotomic", "Cyc.__add__", "cyclotomic.Cyc.add"),
    ("cyclotomic", "Cyc.__radd__", "cyclotomic.Cyc.add"),
    ("cyclotomic", "Cyc.__mul__", "cyclotomic.Cyc.mul"),
    ("cyclotomic", "Cyc.__rmul__", "cyclotomic.Cyc.mul"),
    ("cyclotomic", "Cyc.inverse", "cyclotomic.Cyc.inverse"),
]

PACKAGE = "limitalg"


def _resolve(module, path: str):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Spans and counters for one traced stretch of queries."""

    def __init__(self):
        self.spans: list[tuple] = []   # (name, start, end, parent, query)
        self.self_time: dict[str, float] = {}
        self.total_time: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.query = -1
        self._stack: list[list] = []   # [span index, child time]
        self._patches: list[tuple] = []  # (owner, attr, original)

    # -- recording -----------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _enter(self, name: str) -> list:
        self.count(name + ".calls")
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((name, time.perf_counter(), None, parent,
                           self.query))
        frame = [len(self.spans) - 1, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, _, parent, query = self.spans[frame[0]]
        self.spans[frame[0]] = (name, start, end, parent, query)
        dur = end - start
        self.total_time[name] = self.total_time.get(name, 0.0) + dur
        self.self_time[name] = self.self_time.get(name, 0.0) + dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur

    # -- wrappers ------------------------------------------------------
    def _span_wrapper(self, name: str, fn, after=None, before=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                # the hook is tracing overhead: keep it out of the
                # parent's self time
                t0 = time.perf_counter()
                before(tracer, args)
                if tracer._stack:
                    tracer._stack[-1][1] += time.perf_counter() - t0
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(tracer, result)
            return result
        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def _bind_everywhere(self, original, wrapper) -> None:
        """Rebind every module-level name of the package bound to `original`."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE
                                   or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        mods = {name.split(".")[-1]: mod for name, mod in sys.modules.items()
                if name.startswith(PACKAGE + ".")}
        for modname, path in SPANNED:
            owner, attr = _resolve(mods[modname], path)
            original = getattr(owner, attr)
            name = f"{modname}.{path}"
            wrapper = self._span_wrapper(name, original,
                                         after=_AFTER.get(name),
                                         before=_BEFORE.get(name))
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                self._bind_everywhere(original, wrapper)
        for modname, path, name in COUNTED:
            owner, attr = _resolve(mods[modname], path)
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._count_wrapper(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------
    def write_spans(self, path) -> None:
        """One JSON object per line; `parent` is a line index or -1."""
        keys = ("name", "start", "end", "parent", "query")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# work counts taken at the layer boundary ----------------------------------


def _embed_out(tracer, result):
    tracer.count("tower.embed_unit.units_out", len(result.units))


def _sequences_out(tracer, result):
    tracer.count("peters.sequences_out", len(result))


def _ideals_out(tracer, result):
    tracer.count("crossed.ideals_out", len(result))


def _certified(tracer, result):
    if result is not None:
        tracer.count("links.certify_linkless.certified")


def _rref_cells(tracer, args):
    rows = args[0]
    if rows:
        tracer.count("linalg.rref.cells", len(rows) * len(rows[0]))
        tracer.count("linalg.rref.nonzero",
                     sum(1 for row in rows for x in row if x))


def _input_bytes(tracer, args):
    tracer.count("parser.input_bytes", len(args[0].encode()))


_AFTER = {
    "tower.embed_unit": _embed_out,
    "peters.enumerate_sequences": _sequences_out,
    "crossed.enumerate_invariant_ideals": _ideals_out,
    "crossed.enumerate_dual_invariant_ideals": _ideals_out,
    "links.certify_linkless": _certified,
}
_BEFORE = {
    "linalg.rref": _rref_cells,
    "parser.parse_tower_file": _input_bytes,
}
