"""Link detection, linkless certificates, and the semisimplicity report.

A matrix unit e has a link when e*A*e != 0; concretely, when two
occurrences r, r' of an embedded image of e sit in the same summand with
col(r) <= row(r').  Linklessness is only co-semi-decidable, so the API is
tri-state: Linked / CertifiedLinkless / NotLinkedUpTo(horizon).

Link questions are decided on the extremal pairs of e's image, not on
the image: per summand t met at level n, I_t is the largest row and J_t
the least col, and e has a link at level n iff J_t <= I_t in some t.
The ballot (LATTICE) condition makes the first and the last occurrence
of (s, p) in every word increase with p, so one level up

    I'_t = max over s of last_t(s, I_s),  J'_t = min over s of first_t(s, J_s)

exactly: the image's largest row in t is the last occurrence of the
largest row label, and its least col the first occurrence of the least
col label.  Each read is one entry of the step's index.  Every
question, from one unit's status to a whole-level report, is one walk
of the pairs (`_decide`), and the image is built only for a witness.

A linkless certificate holds at every level: `frozen` (identity-carried
forever), `finite-tower` (no link up to the top) and `separation` (no link
one step past a separating rule's start, after which none can appear).
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .tower import LevelRangeError, MatrixUnit, TowerSpec, embed_unit, images

DEFAULT_HORIZON = 12


@dataclass(frozen=True)
class Linked:
    level: int
    witness: MatrixUnit

    kind = "linked"

    def to_json(self):
        return _linked_json(self.level, self.witness[1:])


def _linked_json(level: int, witness: tuple[int, int, int]) -> dict:
    return {"status": "linked", "level": level, "witness": list(witness)}


@dataclass(frozen=True)
class CertifiedLinkless:
    certificate: str  # "frozen" | "separation" | "finite-tower"

    kind = "linkless"

    def to_json(self):
        return {"status": "linkless", "certificate": self.certificate}


@dataclass(frozen=True)
class NotLinkedUpTo:
    horizon: int

    kind = "unknown"

    def to_json(self):
        return {"status": "not-linked-up-to", "horizon": self.horizon}


LinkStatus = Linked | CertifiedLinkless | NotLinkedUpTo


def least_link(left, right) -> tuple[MatrixUnit, MatrixUnit] | None:
    """Units a in `left`, b in `right` with the least (summand, a.col, b.row)
    such that a and b share a summand and a.col <= b.row, or None.

    Then a * e_{a.col, b.row} * b = e_{a.row, b.col} != 0.  Per summand
    only the least col can start a witness: if it exceeds every row, so
    does every other col.
    """
    first: dict[int, MatrixUnit] = {}
    for a in left:
        if a.summand not in first or a.col < first[a.summand].col:
            first[a.summand] = a
    best: dict[int, MatrixUnit] = {}
    for b in right:
        a = first.get(b.summand)
        if a is not None and a.col <= b.row and (
                b.summand not in best or b.row < best[b.summand].row):
            best[b.summand] = b
    if not best:
        return None
    s = min(best)
    return first[s], best[s]


def has_link_at(tower: TowerSpec, e: MatrixUnit, level: int) -> MatrixUnit | None:
    """Lexicographically least link witness for e at `level`, or None.

    A witness is f = e_{col(r), row(r')} for occurrences r, r' of the
    embedded image in one summand with col(r) <= row(r'); then
    embed(e)*f*embed(e) = e_{row(r), col(r')} != 0.
    """
    img = embed_unit(tower, e, level).units
    link = least_link(img, img)
    if link is None:
        return None
    a, b = link
    return MatrixUnit(level, a.summand, a.col, b.row)


def _climb(index, groups: dict) -> tuple[dict, set[int]]:
    """The groups one level up through a step's `index`, less the units
    linked there, and the positions of those.

    `groups[s]` lists (position, I, J) for each unit whose image meets
    summand s.  With `spans[s] = (a, m, size)`, the last occurrence of
    (s, I) is `order[a + I*m - 1]` and the first of (s, J) is
    `order[a + (J-1)*m]`; a target fed by several met summands keeps,
    per unit, the largest row and the least col.
    """
    linked: set[int] = set()
    up = {}
    for t, (order, spans) in enumerate(index):
        pairs: dict[int, tuple[int, int]] = {}
        for s, group in groups.items():
            a, m, _ = spans[s]
            if m:
                for q, i, j in group:
                    i, j = order[a + i * m - 1], order[a + (j - 1) * m]
                    if q in pairs:
                        i, j = max(i, pairs[q][0]), min(j, pairs[q][1])
                    pairs[q] = i, j
        kept = []
        for q, (i, j) in pairs.items():
            if j <= i:
                linked.add(q)
            else:
                kept.append((q, i, j))
        if kept:
            up[t] = kept
    if linked and up and len(index) > 1:
        up = _drop(up, linked)
    return up, linked


def _drop(groups: dict, gone) -> dict:
    """`groups` without the units whose positions are in `gone`, and
    without the groups left empty."""
    out = {}
    for s, group in groups.items():
        group = [u for u in group if u[0] not in gone]
        if group:
            out[s] = group
    return out


def _link_at(tower: TowerSpec, e: MatrixUnit,
             n: int) -> tuple[MatrixUnit, MatrixUnit]:
    """(S, T') at level n, where e has a link: `least_link` on e's image
    at n, read off the index of step n-1 without building that image.

    At e's own level only a diagonal unit links, and (S, T') = (e, e).
    Above it, e's image u at level n-1 (e itself when n-1 is e's level)
    sends its r-th row occurrence `order[a + (i_u-1)*m + r]` and its r-th
    col occurrence to one unit of target t.  The slices are increasing,
    and images have distinct rows and distinct cols, so t's least col is
    the least first col occurrence over u, and the least row at or above
    it is one bisect in each u's row slice, its col at the same offset.
    The least t with such a row gives the witness.
    """
    if n == e.level:
        return e, e
    if n == e.level + 1:
        img = [e]
    else:
        *_, (_, img) = images(tower, [e], n - 1)
    for t, (order, spans) in enumerate(tower.occurrences(n - 1)):
        slices = []  # (offset of u's row slice, of u's col slice, m)
        col = 0
        for _, s, i, j in img:
            a, m, _ = spans[s]
            if m:
                r, c = a + (i - 1) * m, a + (j - 1) * m
                slices.append((r, c, m))
                if not col or order[c] < col:
                    col, row = order[c], order[r]
        best = None
        for r, c, m in slices:
            k = bisect_left(order, col, r, r + m)
            if k < r + m and (best is None or order[k] < best[0]):
                best = order[k], order[c + k - r]
        if best is not None:
            return (MatrixUnit(n, t, col, best[0]),
                    MatrixUnit(n, t, row, best[1]))
    raise ValueError(f"{e} has no link at level {n}")


def first_link(tower: TowerSpec, e: MatrixUnit,
               top: int) -> tuple[MatrixUnit, MatrixUnit] | None:
    """(S, T') at the least level n <= top where e has a link, or None.

    S is the least witness at n and T' = embed(e) S embed(e) != 0 the
    unit it leaves; a Donsig chain steps from e to T'.  The levels are
    scanned by `_decide` with no certificate tried, so e's image is built
    only below n, and only when n is two or more levels above e.
    """
    tower.check_unit(e)
    if e.level > top:
        return None
    [n] = _decide(tower, [e], top, certify=False)
    return None if n is None else _link_at(tower, e, n)


def _reachable_frozen(tower: TowerSpec, e) -> bool:
    """Certificate (F): e's summand is identity-carried forever.

    Walks frozen-carry links; succeeds once a rule-backed tower confirms
    the carried summand is frozen at the stationary tail (presets expose
    this structurally), or fails at the first non-identity step.
    """
    if tower.finite:
        return False
    level, summand, _, _ = e
    # explicit prefix must carry identically too
    while level < len(tower.flat_steps):
        target = tower.frozen_carry(level, summand)
        if target is None:
            return False
        summand = target
        level += 1
    return tower.rule.frozen_forever(summand)


FROZEN = CertifiedLinkless("frozen")
FINITE = CertifiedLinkless("finite-tower")
SEPARATION = CertifiedLinkless("separation")


def _decide(tower: TowerSpec, units: list, top: int, certify: bool) -> list:
    """The verdict of each of `units`, checked units (level, summand, row,
    col) by nondecreasing level: the least level at which it links, a
    linkless certificate, or None when neither turns up by level `top`.

    The units walk up together, each joining at its own level, and each
    level's index is read once for all of them (`_climb`).  The groups
    are the walk's only state: `_climb` drops every unit that links, so
    once none is left the walk jumps to the next unit's level.  A diagonal
    unit links at its own level.  With `certify` off the others are only
    scanned up to `top`.  Otherwise (a certificate needs no link at the
    unit's level) a unit whose summand is identity-carried forever is
    certified at once (read once per level and summand), and two kinds
    of tower are decided by a walk to a fixed last level, where every
    unit still unlinked is certified.  A finite tower IS the finite
    algebra, so that level is its top.  On a separating rule (one
    summand, one token (s, r)) it is one step past `rule_start`: from
    there on each step sends (I, J) to (r*I, r*(J-1)+1), and
    r*(J-1)+1 > r*I iff J > I, so a unit unlinked there never links.
    """
    count = len(units)
    verdicts: list = [None] * count
    last = None  # the verdict of a unit still unlinked at `top`
    if certify and tower.finite:
        top, last = tower.max_level, FINITE
    elif certify and tower.rule.separating:
        top, last = tower.rule_start + 1, SEPARATION
    freeze = certify and not tower.finite
    groups: dict = {}
    p = 0  # units that have joined
    while p < count:
        n = units[p][0]
        while True:
            frozen: dict[int, bool] = {}
            while p < count and units[p][0] == n:
                e = units[p]
                _, s, i, j = e
                if j <= i:
                    verdicts[p] = n
                elif freeze and (frozen[s] if s in frozen else frozen.setdefault(
                        s, _reachable_frozen(tower, e))):
                    verdicts[p] = FROZEN
                elif s in groups:
                    groups[s].append((p, i, j))
                else:
                    groups[s] = [(p, i, j)]
                p += 1
            if not groups or n >= top:
                break
            groups, linked = _climb(tower.occurrences(n), groups)
            n += 1
            for q in linked:
                verdicts[q] = n
        for group in groups.values():
            for q, _, _ in group:
                verdicts[q] = last
        groups = {}
    return verdicts


def certify_linkless(tower: TowerSpec, e: MatrixUnit) -> CertifiedLinkless | None:
    """Sound linkless certificate, or None when no certificate applies."""
    tower.check_unit(e)
    [verdict] = _decide(tower, [e], e.level, certify=True)
    return verdict if isinstance(verdict, CertifiedLinkless) else None


def link_status(tower: TowerSpec, e: MatrixUnit,
                horizon: int = DEFAULT_HORIZON) -> LinkStatus:
    if horizon < e.level:
        raise LevelRangeError("horizon below the unit's level")
    tower.check_unit(e)
    # certificates are sound, so they short-circuit the horizon scan
    [n] = _decide(tower, [e], tower.top(horizon), certify=True)
    if isinstance(n, CertifiedLinkless):
        return n
    if n is None or n > horizon:
        return NotLinkedUpTo(horizon)
    return Linked(n, _link_at(tower, e, n)[0])


def donsig_report(tower: TowerSpec, level: int,
                  horizon: int = DEFAULT_HORIZON) -> dict:
    """Classify all units at levels <= `level`; Donsig's criterion verdict.
    Each entry is the unit's `link_status(...).to_json()`, from one walk."""
    if level < 0:
        raise LevelRangeError(f"level must be at least 0, got {level}")
    if level > horizon:
        raise LevelRangeError("level exceeds horizon")
    top = tower.top(level)
    units = [(n, s, i, j) for n in range(top + 1)
             for s, k in enumerate(tower.shape(n))
             for i in range(1, k + 1) for j in range(i, k + 1)]
    verdicts = _decide(tower, units, tower.top(horizon), certify=True)
    unknown = NotLinkedUpTo(horizon)
    entries = []
    kinds = set()
    for unit, n in zip(units, verdicts):
        if isinstance(n, int) and n <= horizon:
            entry = _linked_json(n, unit[1:] if n == unit[0] else
                                 _link_at(tower, MatrixUnit(*unit), n)[0][1:])
        else:
            status = unknown if n is None or isinstance(n, int) else n
            entry = status.to_json()
            kinds.add(status.kind)
        entry["unit"] = list(unit)
        entries.append(entry)
    if "linkless" in kinds:
        verdict = "not semisimple"
    elif "unknown" in kinds:
        verdict = "inconclusive"
    else:
        verdict = "semisimple (evidence)"
    return {"level": top, "horizon": horizon, "verdict": verdict,
            "units": entries}
