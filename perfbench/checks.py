"""Output checks: golden digests plus invariants re-derived independently.

Every distinct query of a run is checked once, outside the timed region:
its exit code and the SHA-256 of its stdout must match ``golden.json``,
and its report must satisfy the invariants below.

* ``links`` / ``donsig``: each ``linked`` witness f is re-verified by
  exact element multiplication, embed(e) * f * embed(e) != 0.
* ``radical``: a chain-cycle certificate is re-verified link by link,
  T_{l+1} = embed(T_l) * S_{l+1} * embed(T_l).
* ``embed``: image size 2^(levels) on the doubling presets, a single
  carried unit on the frozen summands of ``paper-example-taf``.
* ``validate`` / ``audit-order``: the spec's level count; no occurrence
  bound violated.
* ``crossed``: every ``ok``/``tight`` field is true, ``diag_dim`` equals
  sum(shape) * |G| (times n^2 under ampliation n), lattice counts agree,
  full-matrix permanence leaves a zero radical.
* ``peters``: ``enum`` counts equal a brute-force count, ``check`` agrees
  with a direct evaluation of (star), ``truncate`` round-trips.
* ``audit-technical``: no tuple satisfies the contradiction chain.
"""
from __future__ import annotations

import hashlib
import json
import math


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Checker:
    def __init__(self, lib, files: dict[str, str], golden: dict | None):
        self.lib = lib
        self.files = files
        self.golden = golden
        self._towers: dict = {}

    def check(self, qid: str, argv: tuple[str, ...], rc, out: str) -> list[str]:
        """Problems found with one query's result (empty when correct)."""
        problems = []
        if self.golden is not None:
            want = self.golden.get(qid)
            if want is None:
                problems.append("no golden value for this query")
            elif [rc, digest(out)] != want:
                problems.append(f"exit {rc} / digest {digest(out)[:12]} "
                                f"differ from golden {want[0]} / {want[1][:12]}")
        if not isinstance(rc, int) or rc not in (0, 2):
            return problems + [f"exit code {rc}"]
        try:
            report = json.loads(out)
            problems += getattr(self, "_" + argv[0].replace("-", "_"))(argv,
                                                                      report)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems.append(f"invariant check raised {type(exc).__name__}: "
                            f"{exc}")
        return problems

    # -- towers -------------------------------------------------------
    def _tower(self, spec: str):
        if spec not in self._towers:
            if spec.startswith("@"):
                tower, _ = self.lib.parser.parse_tower_file(
                    self.files[spec[1:]])
            else:
                tower = self.lib.tower.preset(spec)
            self._towers[spec] = tower
        return self._towers[spec]

    def _unit(self, level, summand, row, col):
        return self.lib.tower.MatrixUnit(level, summand, row, col)

    def _link_problem(self, tower, e, level, witness) -> str | None:
        T = self.lib.tower
        s, r, c = witness
        if not (r <= c <= tower.shape(level)[s]):
            return f"witness {witness} is not a unit of level {level}"
        x = T.embed_unit(tower, e, level).to_element()
        f = T.Element.from_unit(self._unit(level, s, r, c))
        if (x * f * x).is_zero():
            return f"witness {witness} at level {level} gives e f e = 0"
        return None

    def _links(self, argv, report):
        tower = self._tower(argv[1])
        if report["status"] != "linked":
            return []
        e = self._unit(*report["unit"])
        p = self._link_problem(tower, e, report["level"], report["witness"])
        return [p] if p else []

    def _donsig(self, argv, report):
        tower = self._tower(argv[1])
        out = []
        for entry in report["units"]:
            if entry["status"] == "linked":
                p = self._link_problem(tower, self._unit(*entry["unit"]),
                                       entry["level"], entry["witness"])
                if p:
                    out.append(f"unit {entry['unit']}: {p}")
        return out

    def _radical(self, argv, report):
        cert = report.get("certificate", {})
        if cert.get("kind") != "chain-cycle":
            return []
        T = self.lib.tower
        tower = self._tower(argv[1])
        ts = [self._unit(*u) for u in cert["chain"]["t"]]
        ss = [self._unit(*u) for u in cert["chain"]["s"]]
        for l, s in enumerate(ss):
            x = T.embed_unit(tower, ts[l], s.level).to_element()
            if x * T.Element.from_unit(s) * x != T.Element.from_unit(ts[l + 1]):
                return [f"chain link {l} does not multiply out"]
        return []

    def _embed(self, argv, report):
        level, (lvl0, summand, row, col) = report["level"], report["unit"]
        image = report["image"]
        if argv[1] in ("standard-2", "refinement-2"):
            if len(image) != 2 ** (level - lvl0):
                return [f"image has {len(image)} units, "
                        f"expected {2 ** (level - lvl0)}"]
        elif argv[1] == "paper-example-taf" and summand >= 1:
            if image != [[summand + level - lvl0, row, col]]:
                return [f"frozen summand not carried identically: {image}"]
        return []

    def _validate(self, argv, report):
        levels = sum(1 for line in self.files[argv[1][1:]].splitlines()
                     if line.startswith("level "))
        if not report["ok"] or report["levels_explicit"] != levels:
            return [f"validate reports {report}, file has {levels} levels"]
        return []

    def _audit_order(self, argv, report):
        if not report["ok"] or len(report["entries"]) != report["source"]:
            return ["occurrence bounds violated"]
        return []

    def _audit_technical(self, argv, report):
        if report.get("applicable") and not (report["ok"]
                                             and report["satisfiable"] == 0):
            return ["index audit reports a satisfiable chain"]
        return []

    # -- crossed products ---------------------------------------------
    def _crossed(self, argv, report):
        out = [f"{path} is false" for path in _false_flags(report)]
        what = argv[1]
        shape, orders = report["base"], report["group"]
        if what == "diag":
            want = sum(shape) * math.prod(orders)
            if report["crossed"]["diag_dim"] != want:
                out.append(f"diag_dim {report['crossed']['diag_dim']} != {want}")
            amp = report.get("ampliation")
            if amp and amp["diag_dim"] != want * amp["n"] ** 2:
                out.append(f"ampliated diag_dim {amp['diag_dim']} != "
                           f"{want * amp['n'] ** 2}")
        elif what == "lattice" and report["base_count"] != report["crossed_count"]:
            out.append("lattice sizes differ")
        elif what == "radical" and report["radical_dim"] != len(report["radical"]):
            out.append("radical_dim does not match the basis")
        elif what == "permanence" and "--full" in argv and not (
                report["applicable"] and report["crossed_radical_dim"] == 0):
            out.append("semisimplicity not preserved")
        return out

    # -- gauge-invariant ideals ----------------------------------------
    def _system(self, spec: str):
        points, phi = [], {}
        for line in self.files[spec[1:]].splitlines():
            if line.startswith("points"):
                points = line.partition("=")[2].split()
            elif line.startswith("phi"):
                for pair in line.partition(":")[2].split():
                    a, _, b = pair.partition("->")
                    phi[a] = b
        return points, phi

    def _peters(self, argv, report):
        points, phi = self._system(argv[1])
        what = argv[2]
        if what == "enum":
            horizon = int(argv[argv.index("--horizon") + 1])
            want = brute_force_count(points, phi, horizon)
            if report["count"] != want or len(report["sequences"]) != want:
                return [f"enum count {report['count']} != brute force {want}"]
            return []
        sets = [set(b.split(",")) - {""}
                for b in argv[argv.index("--sets") + 1].split("|")]
        if what == "check":
            if report["ok"] != star_holds(sets, phi):
                return ["(star) verdict disagrees with direct evaluation"]
            return []
        if what == "truncate" and not report["roundtrip"]:
            return ["truncated model does not round-trip the sequence"]
        return []


def _false_flags(report, path="") -> list[str]:
    out = []
    if isinstance(report, dict):
        for k, v in report.items():
            where = f"{path}.{k}" if path else k
            if k in ("ok", "tight") and v is not True:
                out.append(where)
            out += _false_flags(v, where)
    elif isinstance(report, list):
        for i, v in enumerate(report):
            out += _false_flags(v, f"{path}[{i}]")
    return out


def star_holds(sets: list[set], phi: dict) -> bool:
    """X_{n+1} u phi(X_{n+1}) <= X_n for every n, the tail included."""
    for n in range(len(sets)):
        nxt = sets[min(n + 1, len(sets) - 1)]
        if not (nxt | {phi[x] for x in nxt}) <= sets[n]:
            return False
    return True


def brute_force_count(points: list[str], phi: dict, horizon: int) -> int:
    """Count (star) sequences X_0..X_horizon with a phi-invariant tail.

    Tries every subset at every position (bit masks), keeping the
    prefixes that satisfy (star).
    """
    n = len(points)
    index = {p: i for i, p in enumerate(points)}
    target = [index[phi[p]] for p in points]
    image = []
    for mask in range(1 << n):
        m = 0
        for i in range(n):
            if mask >> i & 1:
                m |= 1 << target[i]
        image.append(m)
    everything = range(1 << n)

    def extend(prev: int, depth: int) -> int:
        if depth == horizon:
            return 1 if image[prev] == prev else 0
        return sum(extend(m, depth + 1) for m in everything
                   if not (m | image[m]) & ~prev)

    return sum(extend(x0, 0) for x0 in everything)
