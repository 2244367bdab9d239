"""Link detection, linkless certificates, and the semisimplicity report.

A matrix unit e has a link when e*A*e != 0; concretely, when two
occurrences r, r' of an embedded image of e sit in the same summand with
col(r) <= row(r').  Linklessness is only co-semi-decidable, so the API is
tri-state: Linked / CertifiedLinkless / NotLinkedUpTo(horizon).
"""
from __future__ import annotations

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


def first_link(tower: TowerSpec, e: MatrixUnit,
               top: int) -> tuple[MatrixUnit, MatrixUnit] | None:
    """(S, T') at the least level n <= top where e has a link, or None.

    S is the least witness at n and T' = embed(e) S embed(e) != 0 the
    unit it leaves; a Donsig chain steps from e to T'.
    """
    for n, img in images(tower, [e], top):
        link = least_link(img, img)
        if link is not None:
            a, b = link
            return (MatrixUnit(n, a.summand, a.col, b.row),
                    MatrixUnit(n, a.summand, a.row, b.col))
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


def _separation_certificate(tower: TowerSpec, e: MatrixUnit,
                            max_steps: int = 64) -> tuple | None:
    """Certificate (S): separation induction on stationary towers.

    State (maxRow, minCol) of e's image per level.  The ballot condition
    makes the first and last occurrences of (0, p) increase with p, so
    the next state is exactly (last of maxRow, first of minCol), two
    index reads.  Preserved separation plus recurrence of the normalized
    state (maxRow/K, (minCol-1)/K) certifies linklessness at every level.
    Over K > 0 two such pairs are equal exactly when their triples
    (maxRow, minCol-1, K) are proportional, so the triple divided by its
    gcd is the exact recurrence key.
    """
    if tower.finite or not tower.rule.self_similar:
        return None
    shape = tower.shape(e.level)
    if len(shape) != 1:
        return None
    max_row, min_col = e.row, e.col
    if min_col <= max_row:
        return None
    level = e.level
    seen: set[tuple[int, int, int]] = set()
    trace = []
    for _ in range(max_steps):
        (k,) = shape
        g = gcd(max_row, min_col - 1, k)
        state = (max_row // g, (min_col - 1) // g, k // g)
        trace.append((level, max_row, min_col))
        if state in seen:
            return tuple(trace)
        seen.add(state)
        shape = tower.shape(level + 1)
        if len(shape) != 1:
            return None
        # the last occurrence of (0, I) and the first of (0, J)
        order, ((a, m, _),) = tower.occurrences(level)[0]
        max_row = order[a + max_row * m - 1]
        min_col = order[a + (min_col - 1) * m]
        if min_col <= max_row:
            return None
        level += 1
    return None


def _certify(tower: TowerSpec, e: MatrixUnit) -> tuple[
        CertifiedLinkless | None, tuple[MatrixUnit, MatrixUnit] | None]:
    """(certificate, link): a sound linkless certificate, or None with the
    least link (S, T') the search met, if any.

    Any certificate needs no link at the unit's own level; a finite tower
    IS the finite algebra, so one walk to its top decides, and a link it
    finds is the unit's least link.
    """
    top = tower.max_level if tower.finite else e.level
    link = first_link(tower, e, top)
    if link is not None:
        return None, link
    if tower.finite:
        return CertifiedLinkless("finite-tower"), None
    if _reachable_frozen(tower, e):
        return CertifiedLinkless("frozen"), None
    trace = _separation_certificate(tower, e)
    if trace is not None:
        return CertifiedLinkless("separation", trace), None
    return None, None


def certify_linkless(tower: TowerSpec, e: MatrixUnit) -> CertifiedLinkless | None:
    """Sound linkless certificate, or None when no certificate applies."""
    return _certify(tower, e)[0]


def link_status(tower: TowerSpec, e: MatrixUnit,
                horizon: int = DEFAULT_HORIZON) -> LinkStatus:
    if horizon < e.level:
        raise LevelRangeError("horizon below the unit's level")
    # certificates are sound, so they short-circuit the horizon scan; a
    # link met on the way is the least one
    cert, link = _certify(tower, e)
    if cert is not None:
        return cert
    if link is None:
        link = first_link(tower, e, tower.top(horizon))
    if link is not None and link[0].level <= horizon:
        return Linked(link[0].level, link[0])
    return NotLinkedUpTo(horizon)


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
        for u in tower.units_at(n):
            st = link_status(tower, u, horizon)
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
