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
col label.  Each read is one entry of the step's index.  The image
itself is built only for the witness, and only up to the level below
the least linked one: the witness is read off the last step's index.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import gcd

from .tower import LevelRangeError, MatrixUnit, TowerSpec, embed_unit, images

DEFAULT_HORIZON = 12


@dataclass(frozen=True)
class Linked:
    level: int
    witness: MatrixUnit

    kind = "linked"

    def to_json(self):
        return {"status": "linked", "level": self.level,
                "witness": list((self.witness.summand, self.witness.row,
                                 self.witness.col))}


@dataclass(frozen=True)
class CertifiedLinkless:
    certificate: str  # "frozen" | "separation" | "finite-tower"
    detail: tuple = ()

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


def _climb(index, pairs: dict[int, tuple[int, int]]
           ) -> tuple[dict[int, tuple[int, int]], bool]:
    """The extremal pairs one level up, through a step's `index`, and
    whether they show a link.

    `pairs` maps each summand that an image meets to its (I, J), largest
    row and least col.  With `spans[s] = (a, m, size)`, the last
    occurrence of (s, I) in a word is `order[a + I*m - 1]` and the first
    of (s, J) is `order[a + (J-1)*m]`: two reads per source and target.
    """
    up = {}
    linked = False
    for t, (order, spans) in enumerate(index):
        hi = lo = 0  # positions are at least 1
        for s, (i, j) in pairs.items():
            a, m, _ = spans[s]
            if m:
                row, col = order[a + i * m - 1], order[a + (j - 1) * m]
                if row > hi:
                    hi = row
                if not lo or col < lo:
                    lo = col
        if hi:
            up[t] = (hi, lo)
            linked = linked or lo <= hi
    return up, linked


def _link_at(tower: TowerSpec, e: MatrixUnit,
             n: int) -> tuple[MatrixUnit, MatrixUnit]:
    """(S, T') at level n, where e has a link: `least_link` on e's image
    at n, read off the index of step n-1 without building that image.

    At e's own level only a diagonal unit links, and (S, T') = (e, e).
    Above it, e's image u at level n-1 sends its r-th row occurrence
    `order[a + (i_u-1)*m + r]` and its r-th col occurrence to one unit of
    target t.  The slices are increasing, and images have distinct rows
    and distinct cols, so t's least col is the least first col occurrence
    over u, and the least row at or above it is one bisect in each u's
    row slice, its col at the same offset.  The least t with such a row
    gives the witness.
    """
    if n == e.level:
        return e, e
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
    scanned on the extremal pairs (I, J) of e's image (see the module
    docstring), which the monotone first and last occurrences carry
    exactly, so the image is built only at level n.
    """
    tower.check_unit(e)
    pairs = {e.summand: (e.row, e.col)}
    linked = e.col <= e.row
    for n in range(e.level, top + 1):
        if n > e.level:
            pairs, linked = _climb(tower.occurrences(n - 1), pairs)
        if linked:
            return _link_at(tower, e, n)
    return None


def _reachable_frozen(tower: TowerSpec, e: MatrixUnit) -> bool:
    """Certificate (F): e's summand is identity-carried forever.

    Walks frozen-carry links; succeeds once a rule-backed tower confirms
    the carried summand is frozen at the stationary tail (presets expose
    this structurally), or fails at the first non-identity step.
    """
    if tower.finite:
        return False
    level, summand = e.level, e.summand
    # explicit prefix must carry identically too
    while level < len(tower.flat_steps):
        target = tower.frozen_carry(level, summand)
        if target is None:
            return False
        summand = target
        level += 1
    return tower.rule.frozen_forever(level - tower.rule_start, summand)


def _decide(tower: TowerSpec, e: MatrixUnit, top: int,
            frozen: bool | None = None,
            max_steps: int = 64) -> CertifiedLinkless | int | None:
    """e's verdict from one walk of its extremal pairs: a linkless
    certificate, or the least level at which e has a link, or None when
    neither turns up by level `top`.  e must be a checked unit.

    Any certificate needs no link at e's own level.  A finite tower IS
    the finite algebra, so a walk to its top decides.  Otherwise e is
    certified when its summand is identity-carried forever (`frozen`,
    computed here when not given), or by the separation induction
    below; failing both, the walk goes on to `top` for a link.

    Separation runs on a self-similar tower while the levels stay TUHF,
    for at most `max_steps` levels, and may pass `top`.  Preserved
    separation plus recurrence of the normalized pair (I/K, (J-1)/K)
    certifies linklessness at every level.  Over K > 0 two such pairs are
    equal exactly when their triples (I, J-1, K) are proportional, so the
    triple divided by its gcd is the exact recurrence key.  A link met
    on the way is the least one, so no level is walked twice.
    """
    n = e.level
    if e.col <= e.row:
        return n
    shape = tower.shape(n)
    if tower.finite:
        top = tower.max_level
        separating = False
    else:
        if frozen is None:
            frozen = _reachable_frozen(tower, e)
        if frozen:
            return CertifiedLinkless("frozen")
        separating = tower.rule.self_similar and len(shape) == 1
    pairs = {e.summand: (e.row, e.col)}
    k = shape[e.summand]
    seen: set[tuple[int, int, int]] = set()
    trace = []
    while True:
        if separating:
            ((i, j),) = pairs.values()
            g = gcd(i, j - 1, k)
            state = (i // g, (j - 1) // g, k // g)
            trace.append((n, i, j))
            if state in seen:
                return CertifiedLinkless("separation", tuple(trace))
            seen.add(state)
        elif n >= top:
            return CertifiedLinkless("finite-tower") if tower.finite else None
        index = tower.occurrences(n)
        pairs, linked = _climb(index, pairs)
        n += 1
        if linked:
            return n
        if separating:
            # level n is TUHF iff the step into it has one word, of length K
            separating = len(index) == 1 and len(trace) < max_steps
            k = len(index[0][0])


def certify_linkless(tower: TowerSpec, e: MatrixUnit) -> CertifiedLinkless | None:
    """Sound linkless certificate, or None when no certificate applies."""
    tower.check_unit(e)
    verdict = _decide(tower, e, e.level)
    return verdict if isinstance(verdict, CertifiedLinkless) else None


def _status(tower: TowerSpec, e: MatrixUnit, horizon: int,
            frozen: bool | None = None) -> LinkStatus:
    """`link_status` of a checked unit; the witness of a link is built
    only when the link lies within the horizon."""
    verdict = _decide(tower, e, tower.top(horizon), frozen)
    if isinstance(verdict, CertifiedLinkless):
        return verdict
    if verdict is not None and verdict <= horizon:
        return Linked(verdict, _link_at(tower, e, verdict)[0])
    return NotLinkedUpTo(horizon)


def link_status(tower: TowerSpec, e: MatrixUnit,
                horizon: int = DEFAULT_HORIZON) -> LinkStatus:
    if horizon < e.level:
        raise LevelRangeError("horizon below the unit's level")
    tower.check_unit(e)
    # certificates are sound, so they short-circuit the horizon scan
    return _status(tower, e, horizon)


def donsig_report(tower: TowerSpec, level: int,
                  horizon: int = DEFAULT_HORIZON) -> dict:
    """Classify all units at levels <= `level`; Donsig's criterion verdict."""
    if level < 0:
        raise LevelRangeError(f"level must be at least 0, got {level}")
    if level > horizon:
        raise LevelRangeError("level exceeds horizon")
    entries = []
    any_linkless = False
    any_unknown = False
    top = tower.top(level)
    for n in range(top + 1):
        frozen: dict[int, bool] = {}
        for u in tower.units_at(n):
            if u.summand not in frozen:
                frozen[u.summand] = _reachable_frozen(tower, u)
            st = _status(tower, u, horizon, frozen[u.summand])
            entries.append({"unit": [u.level, u.summand, u.row, u.col],
                            **st.to_json()})
            any_linkless |= isinstance(st, CertifiedLinkless)
            any_unknown |= isinstance(st, NotLinkedUpTo)
    if any_linkless:
        verdict = "not semisimple"
    elif any_unknown:
        verdict = "inconclusive"
    else:
        verdict = "semisimple (evidence)"
    return {"level": top, "horizon": horizon, "verdict": verdict,
            "units": entries}
