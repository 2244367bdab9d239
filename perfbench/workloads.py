"""Seeded query mixes for the three benchmark workloads.

Every workload is a list of slots.  A slot lists a few alternatives; an
alternative is a small bundle of input files plus the CLI queries that
read them.  A seed picks one alternative per slot and shuffles the
chosen queries into one *pass*.  Because every alternative comes from a
fixed pool, the golden digests in ``golden.json`` cover every query any
seed can draw, and every slot keeps its cost class whatever the seed.

Inputs are generated here, not by library helpers, so a change to the
library cannot silently change the benchmark's inputs.  A query is a
tuple of argv tokens; a token ``@name`` stands for the path of the input
file ``name``.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

WORKLOADS = ("tower-deep", "tower-sweep", "crossed-exact")


@dataclass
class Bundle:
    files: dict[str, str] = field(default_factory=dict)
    queries: list[tuple[str, ...]] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    files: dict[str, str]
    queries: list[tuple[str, ...]]  # one pass, in the order it is issued
    warmup: list[tuple[str, ...]]


def query_id(argv: tuple[str, ...]) -> str:
    return " ".join(argv)


# ---------------------------------------------------------------------------
# tower spec text


def ballot_word(size: int, reps: int, rng: random.Random) -> list[int]:
    """Random word over 1..size, each `reps` times, every prefix ballot.

    A prefix never holds more copies of p than of p-1 (the LATTICE
    condition of an embedding word).
    """
    used = [0] * (size + 2)
    allowed = [1]
    word = []
    for _ in range(size * reps):
        i = rng.randrange(len(allowed))
        p = allowed[i]
        word.append(p)
        used[p] += 1
        if used[p] == reps or (p > 1 and used[p - 1] == used[p]):
            allowed[i] = allowed[-1]
            allowed.pop()
        if p < size and used[p + 1] == used[p] - 1 and used[p + 1] < reps:
            allowed.append(p + 1)
    return word


def _merge(parts: list[list[tuple[int, int]]], rng: random.Random,
           blocks: bool) -> list[tuple[int, int]]:
    """Concatenate (blocks) or randomly interleave per-source subwords."""
    if blocks:
        return [lab for part in parts for lab in part]
    queues = [list(reversed(p)) for p in parts]
    out = []
    while any(queues):
        live = [q for q in queues if q]
        total = sum(len(q) for q in live)
        k = rng.randrange(total)
        for q in live:
            if k < len(q):
                out.append(q.pop())
                break
            k -= len(q)
    return out


def tower_text(base: tuple[int, ...], mult: tuple[tuple[int, ...], ...],
               depth: int, rng: random.Random | None,
               block_orders: bool = False) -> str:
    """Explicit tower: level shapes grow by the multiplicity matrix `mult`.

    Target summand t of every step receives `mult[t][s]` copies of source
    summand s.  With `rng` None every subword is the refinement pattern
    (each label repeated in a run, blocks in source order); otherwise
    subwords are random ballot words, merged at random, or in a shuffled
    block order when `block_orders` is set.
    """
    shapes = [tuple(base)]
    lines = []
    for n in range(depth):
        src = shapes[-1]
        words = []
        for row in mult:
            parts = []
            for s, m in enumerate(row):
                if not m:
                    continue
                if rng is None or block_orders:
                    sub = [p for p in range(1, src[s] + 1) for _ in range(m)]
                else:
                    sub = ballot_word(src[s], m, rng)
                parts.append([(s, p) for p in sub])
            if block_orders and rng is not None:
                rng.shuffle(parts)
            words.append(_merge(parts, rng, rng is None or block_orders))
        shapes.append(tuple(len(w) for w in words))
        lines.append(f"embed {n} -> {n + 1} {{")
        for t, w in enumerate(words):
            lines.append(f"  target {t} : "
                         + " ".join(f"({s},{p})" for s, p in w))
        lines.append("}")
    head = [f"level {n} = [{','.join(map(str, sh))}]"
            for n, sh in enumerate(shapes)]
    return "\n".join(head + lines) + "\n"


def _unit(level, summand, row, col) -> str:
    return f"{level}:{summand}:{row}:{col}"


# ---------------------------------------------------------------------------
# tower-deep: few units, deep levels, ~30-75 KB spec files


def _deep_spec_slot(tag: str, base, mult, depth, variants: int,
                    kind: str) -> list[Bundle]:
    """Alternatives: `variants` towers of one shape, each with its unit picks.

    `kind` is 'refine' (linkless strictly-upper units force the
    finite-tower exhaustive scan), 'blocks' (refinement runs in a seeded
    block order, still linkless) or 'random' (random ballot words).
    """
    out = []
    for v in range(variants):
        rng = None if kind == "refine" else random.Random(f"{tag}:{v}")
        name = f"{tag}-v{v}"
        text = tower_text(base, mult, depth, rng, block_orders=kind == "blocks")
        s = v % len(base)
        upper = [(i, j) for i in range(1, base[s] + 1)
                 for j in range(i + 1, base[s] + 1)]
        i, j = upper[v % len(upper)]
        spec = "@" + name
        qs = [("validate", spec), ("donsig", spec, "--level", "1"),
              ("radical", spec, "--unit", _unit(1, 0, 2, 3)),
              ("links", spec, "--unit", _unit(0, s, i, j))]
        qs += [("links", spec, "--unit", _unit(n, s, 1, 2)) for n in (1, 2, 3)]
        qs += [("links", spec, "--unit", _unit(n, s, 1, 1))
               for n in range(depth + 1)]
        out.append(Bundle({name: text}, qs))
    return out


ACTION_WORDS = ("(0,1) (0,2) (0,1) (0,2)", "(0,1) (0,1) (0,2) (0,2)")


def _tower_deep_slots() -> list[list[Bundle]]:
    slots = [
        _deep_spec_slot("refine1", (2,), ((2,),), 10, 1, "refine"),
        _deep_spec_slot("refine3", (3,), ((2,),), 8, 3, "refine"),
        _deep_spec_slot("blocks22", (2, 2), ((1, 1), (1, 1)), 9, 4, "blocks"),
        _deep_spec_slot("random1", (2,), ((2,),), 10, 4, "random"),
        _deep_spec_slot("random22", (2, 2), ((2, 0), (1, 1)), 9, 4, "random"),
    ]
    embeds = []
    for v, (i, j) in enumerate(((1, 1), (1, 2), (2, 2))):
        qs = []
        for name in ("standard-2", "refinement-2"):
            for level in (8, 9, 10, 11):
                qs.append(("embed", name, "--unit", _unit(0, 0, i, j),
                           "--level", str(level)))
            qs += [("audit-order", name, "--level", str(level))
                   for level in (7, 8)]
        for level in (9, 10, 11):
            qs.append(("embed", "paper-example-taf", "--unit",
                       _unit(1, 1, i, j + 2), "--level", str(level)))
        embeds.append(Bundle({}, qs))
    slots.append(embeds)
    audits = []
    for v, word in enumerate(ACTION_WORDS):
        name = f"action{v}"
        text = ("preset refinement-2\naction g order 2 {\n  level 0 -> 1 {\n"
                f"    target 0 : {word}\n  }}\n}}\n")
        audits.append(Bundle({name: text}, [
            ("audit-technical", "refinement-2", "--unit", "0:0:1:2",
             "--horizons", "4,5"),
            ("audit-technical", "@" + name, "--unit", "0:0:1:2",
             "--horizons", "3,4"),
        ]))
    slots.append(audits)
    return slots


# ---------------------------------------------------------------------------
# tower-sweep: many shallow queries


PRESETS = ("standard-2", "refinement-2", "paper-example-taf")
PRESET_SHAPES = {
    "standard-2": lambda n: (2 * 2 ** n,),
    "refinement-2": lambda n: (2 * 2 ** n,),
    "paper-example-taf": lambda n: (2,) + (4,) * n,
}


def _units(shape, level):
    for s, k in enumerate(shape):
        for i in range(1, k + 1):
            for j in range(i, k + 1):
                yield _unit(level, s, i, j)


REPEAT_MULTS = (((1, 1), (1, 1)), ((2, 0), (1, 1)), ((1, 1), (0, 2)))


def repeat_tower_text(mult, rng: random.Random) -> str:
    """Two random steps on (2,2), then a summand permutation repeated forever."""
    text = tower_text((2, 2), mult, 2, rng)
    size = 8  # every multiplicity matrix above gives shape (8, 8) at level 2
    perm = rng.choice(((0, 1), (1, 0)))
    words = [" ".join(f"({perm[t]},{p})" for p in range(1, size + 1))
             for t in range(2)]
    return (text.replace("embed 0 ->", f"level 3 = [{size},{size}]\nembed 0 ->", 1)
            + "embed 2 -> 3 {\n"
            + "".join(f"  target {t} : {w}\n" for t, w in enumerate(words))
            + "}\nrepeat\n")


# cycle type of phi per system size: a seed relabels the points, so every
# draw of one size enumerates the same number of sequences
CYCLE_TYPES = {4: (2, 1, 1), 5: (2, 2, 1), 6: (3, 2, 1), 7: (3, 2, 1, 1)}


def system_text(npts: int, rng: random.Random) -> tuple[str, list[str], dict]:
    points = [f"x{i}" for i in range(npts)]
    order = points[:]
    rng.shuffle(order)
    phi = {}
    for length in CYCLE_TYPES[npts]:
        cycle, order = order[:length], order[length:]
        phi.update(zip(cycle, cycle[1:] + cycle[:1]))
    phi = {x: phi[x] for x in points}
    text = ("points = " + " ".join(points) + "\nphi: "
            + " ".join(f"{a}->{b}" for a, b in phi.items()) + "\n")
    return text, points, phi


def star_sequence(points, phi, length: int, rng: random.Random) -> list[set]:
    """Random decreasing sets with X_{n+1} u phi(X_{n+1}) <= X_n."""
    inv = {b: a for a, b in phi.items()}
    cur = {x for x in points if rng.random() < 0.8}
    sets = [cur]
    for _ in range(length - 1):
        allowed = sorted(x for x in cur if phi[x] in cur)
        cur = {x for x in allowed if rng.random() < 0.7}
        sets.append(cur)
    while {phi[x] for x in cur} != cur:  # invariant tail
        cur = {x for x in cur if phi[x] in cur and inv[x] in cur}
        sets.append(cur)
    return sets


def sets_arg(sets) -> str:
    return "|".join(",".join(sorted(s)) for s in sets)


def _tower_sweep_slots() -> list[list[Bundle]]:
    slots = [[Bundle({}, [("donsig", name, "--level", str(level))
                          for name in PRESETS for level in (3, 4)])]]
    slots.append([Bundle({}, [("radical", name, "--unit", u)
                              for name in PRESETS for level in range(3)
                              for u in _units(PRESET_SHAPES[name](level),
                                              level)])])
    for slot in range(4):
        alts = []
        for v in range(3):
            rng = random.Random(f"repeat:{slot}:{v}")
            name = f"repeat{slot}-v{v}"
            text = repeat_tower_text(REPEAT_MULTS[slot % 3], rng)
            alts.append(Bundle({name: text}, [
                ("donsig", "@" + name, "--level", "2"),
                ("donsig", "@" + name, "--level", "3"),
                ("links", "@" + name, "--unit", "0:0:1:2"),
            ]))
        slots.append(alts)
    for npts in (4, 5, 6, 7):
        alts = []
        for v in range(3):
            rng = random.Random(f"system:{npts}:{v}")
            name = f"sys{npts}-v{v}"
            text, points, phi = system_text(npts, rng)
            spec = "@" + name
            good = [star_sequence(points, phi, 3, rng) for _ in range(2)]
            bad = [set(points), set(), set(points)]
            qs = [("peters", spec, "enum", "--horizon", str(h))
                  for h in (0, 1, 2)]
            qs += [("peters", spec, "check", "--sets", sets_arg(s))
                   for s in good + [bad]]
            qs += [("peters", spec, "truncate", "--sets", sets_arg(s),
                    "--n", str(n)) for s, n in zip(good + good, (4, 6, 8, 5))]
            alts.append(Bundle({name: text}, qs))
        slots.append(alts)
    return slots


# ---------------------------------------------------------------------------
# crossed-exact: the test-suite family plus larger bases


CROSSED_BASES = [(2,), (3,), (2, 2), (3, 3), (2, 2, 2), (4,)]
CROSSED_GROUPS = [(), (2,), (3,), (2, 2)]
MAX_PER_CELL = 10
# cells whose `diag` (ampliation 2) finishes in about a second or less,
# plus the multi-second (2,2) x Z2 x Z2 cell named in the roadmap
DIAG_CELLS = {((2,), ()), ((2,), (2,)), ((2,), (3,)), ((2,), (2, 2)),
              ((3,), ()), ((3,), (2,)), ((2, 2), ()), ((2, 2), (2,)),
              ((3, 3), ()), ((2, 2, 2), ()), ((4,), ()), ((4,), (2,)),
              ((2, 2), (2, 2))}


def _diag_options(shape, m, d):
    """Diagonal zeta-exponent vectors of order dividing d, up to scalars."""
    step = m // d
    per_summand = [[(0,) + rest for rest in itertools.product((0, step),
                                                              repeat=k - 1)]
                   for k in shape]
    return [tuple(combo) for combo in itertools.product(*per_summand)]


def crossed_family(lib) -> dict:
    """(shape, orders) -> list of generator tuples, conftest-style.

    Mirrors the family of the test suite (at most MAX_PER_CELL actions
    per cell, relation-violating ones skipped); summand swaps are offered
    for every base of equal summands.
    """
    C = lib.crossed
    family = {}
    for shape in CROSSED_BASES:
        for orders in CROSSED_GROUPS:
            group = C.FiniteAbelianGroup(orders)
            per_gen = []
            for d in orders:
                diags = _diag_options(shape, group.exponent, d)
                perms = [tuple(range(len(shape)))]
                if len(shape) > 1 and len(set(shape)) == 1 and d % 2 == 0:
                    perms.append(tuple(reversed(range(len(shape)))))
                per_gen.append([(p, dg) for p in perms for dg in diags])
            kept = []
            for gens in itertools.product(*per_gen):
                if len(kept) == MAX_PER_CELL:
                    break
                try:
                    C.LevelAction(group, shape, list(gens))
                except C.ActionRelationError:
                    continue
                kept.append(gens)
            family[(shape, orders)] = kept
    return family


def crossed_args(shape, orders, gens) -> tuple[str, ...]:
    out = ["--base", ",".join(map(str, shape)),
           "--group", "x".join(map(str, orders)) or "1"]
    for perm, diag in gens:
        out += ["--action", "perm=" + ",".join(map(str, perm)) + ";diag="
                + "|".join(",".join(map(str, d)) for d in diag)]
    return tuple(out)


def _crossed_exact_slots(lib) -> list[list[Bundle]]:
    """One slot per (cell, report); the seed draws the cell's action.

    The heavy reports (every `diag`, and `lattice` on bases of total size
    4 or more) always run on the cell's first family action, so the tail
    of the latency distribution is the same in every draw.
    """
    slots = []
    for (shape, orders), actions in crossed_family(lib).items():
        reports = ["tight", "lattice", "radical", "links-lemma", "permanence"]
        if (shape, orders) in DIAG_CELLS:
            reports.append("diag")
        for what in reports:
            heavy = what == "diag" or (what == "lattice" and sum(shape) >= 4)
            head = (("crossed", "permanence", "--full") if what == "permanence"
                    else ("crossed", what))
            slots.append([Bundle({}, [head + crossed_args(shape, orders, gens)])
                          for gens in (actions[:1] if heavy else actions)])
    return slots


# ---------------------------------------------------------------------------
# assembly


WARMUP = {
    "tower-deep": [("links", "standard-2", "--unit", "0:0:1:2"),
                   ("radical", "refinement-2", "--unit", "0:0:1:2"),
                   ("donsig", "paper-example-taf", "--level", "1"),
                   ("embed", "standard-2", "--unit", "0:0:1:2", "--level", "4"),
                   ("audit-technical", "refinement-2", "--unit", "0:0:1:2",
                    "--horizons", "1,2")],
    "tower-sweep": [("donsig", "standard-2", "--level", "1"),
                    ("radical", "paper-example-taf", "--unit", "0:0:1:2"),
                    ("links", "refinement-2", "--unit", "0:0:1:2")],
    "crossed-exact": [("crossed", "tight", "--base", "2", "--group", "2",
                       "--action", "perm=0;diag=0,1"),
                      ("crossed", "lattice", "--base", "2", "--group", "2",
                       "--action", "perm=0;diag=0,1"),
                      ("crossed", "diag", "--base", "2", "--group", "1")],
}


def slots(name: str, lib) -> list[list[Bundle]]:
    if name == "tower-deep":
        return _tower_deep_slots()
    if name == "tower-sweep":
        return _tower_sweep_slots()
    if name == "crossed-exact":
        return _crossed_exact_slots(lib)
    raise ValueError(f"unknown workload {name!r}")


def build(name: str, seed: int, lib) -> Workload:
    """The seed's pass: one alternative per slot, queries shuffled."""
    rng = random.Random(f"{name}:{seed}")
    files: dict[str, str] = {}
    queries: list[tuple[str, ...]] = []
    for alts in slots(name, lib):
        pick = alts[rng.randrange(len(alts))]
        files.update(pick.files)
        queries.extend(pick.queries)
    rng.shuffle(queries)
    return Workload(name, files, queries, list(WARMUP[name]))


def pool(name: str, lib) -> Workload:
    """Every query any seed can draw, plus the warm-up queries."""
    files: dict[str, str] = {}
    queries: list[tuple[str, ...]] = []
    for alts in slots(name, lib):
        for alt in alts:
            files.update(alt.files)
            queries.extend(alt.queries)
    return Workload(name, files, queries, list(WARMUP[name]))
