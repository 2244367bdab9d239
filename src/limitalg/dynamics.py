"""Finite abelian group actions on towers and combinatorial index audits.

An action assigns to each generator and level an embedding-style word
collection into a (possibly later) level; diagonal-unitary twists are
ignored because every audited predicate here is support-based.  The
audits replay two index-chase arguments on concrete data: twisted links
(a A alpha_g(a) != 0) and the five-inequality contradiction chain that
forces radical tightness for TUHF towers.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import islice

from .crossed import FiniteAbelianGroup
from .links import first_link, least_link
from .tower import (MatrixUnit, TowerSpec, TowerValidationError, Word,
                    WordIndex, embed_unit, flat_word, images, index_step,
                    pair_occurrences, validate_embedding)


class ActionCompatibilityError(ValueError):
    pass


def identity_words(shape: tuple[int, ...]) -> tuple[Word, ...]:
    return tuple(tuple((s, p) for p in range(1, k + 1))
                 for s, k in enumerate(shape))


class TowerAction:
    """Per-generator, per-level word maps alpha_g : level n -> level N(n).

    `gen_maps[i]` maps a level n to (N(n), words).  Levels without an
    entry fall back to the entry of the largest recorded level with the
    same shape and a level-preserving map (so stationary towers need the
    pattern only once), and to the identity otherwise.
    """

    def __init__(self, tower: TowerSpec, group: FiniteAbelianGroup,
                 gen_maps: list[dict[int, tuple[int, tuple[Word, ...]]]],
                 names: list[str] | None = None):
        if len(gen_maps) != len(group.orders):
            raise ValueError("need exactly one generator map per group factor")
        self.tower = tower
        self.group = group
        self.gen_maps = [dict(m) for m in gen_maps]
        self.names = names or [f"g{i}" for i in range(len(gen_maps))]
        # (generator, level) -> (target level, occurrence index of the words)
        self._index: dict[tuple[int, int],
                          tuple[int, tuple[WordIndex, ...]]] = {}
        for i, gmap in enumerate(self.gen_maps):
            for n, (tgt, words) in gmap.items():
                if tgt < n:
                    raise ActionCompatibilityError(
                        f"generator {self.names[i]}: target level {tgt} < {n}")
                rep = validate_embedding(tower.shape(n), tower.shape(tgt), words)
                if not rep.ok:
                    raise ActionCompatibilityError(
                        f"generator {self.names[i]} at level {n}: "
                        f"{rep.violations}")
                self._index[(i, n)] = (tgt, rep.occurrences)

    def map_at(self, gen: int, level: int) -> tuple[int, tuple[Word, ...]]:
        gmap = self.gen_maps[gen]
        if level in gmap:
            return gmap[level]
        shape = self.tower.shape(level)
        for n in sorted(gmap, reverse=True):
            tgt, words = gmap[n]
            if tgt == n and self.tower.shape(n) == shape:
                return (level, words)
        return (level, identity_words(shape))

    def apply_gen(self, gen: int, units: list[MatrixUnit],
                  level: int) -> tuple[list[MatrixUnit], int]:
        for u in units:
            self.tower.check_unit(u)
        cached = self._index.get((gen, level))
        if cached is None:
            # a recorded map of the same shape, validated in __init__, or
            # identity words: either is a valid step
            target, words = self.map_at(gen, level)
            cached = self._index[(gen, level)] = (target, index_step(
                self.tower.shape(level), self.tower.shape(target),
                [flat_word(w) for w in words]))
        target, index = cached
        return pair_occurrences(index, units, target), target

    def apply_units(self, g, units: list[MatrixUnit],
                    level: int) -> tuple[list[MatrixUnit], int]:
        for i, reps in enumerate(g):
            for _ in range(reps % self.group.orders[i]):
                units, level = self.apply_gen(i, units, level)
        return units, level


def trivial_tower_action(tower: TowerSpec,
                         group: FiniteAbelianGroup) -> TowerAction:
    return TowerAction(tower, group, [{} for _ in group.orders])


def validate_action(tower: TowerSpec, action: TowerAction,
                    horizon: int = 3) -> dict:
    """Exact checks up to `horizon`: compatibility squares, orders, commuting.

    Compatibility: alpha_g(embed(u)) = embed(alpha_g(u)) whenever both
    sides reach a common level; generator order d: alpha_gen^d agrees
    with the plain tower embedding; generators pairwise commute after
    embedding both composites to a common level.
    """
    problems = []
    top = tower.top(horizon)
    ngens = len(action.group.orders)

    def embed_set(units, target):
        *_, (_, img) = images(tower, units, target)
        return sorted(img)

    for n in range(top):
        for u in tower.units_at(n):
            for i in range(ngens):
                left, la = action.apply_gen(i, list(embed_unit(tower, u, n + 1).units), n + 1)
                right, ra = action.apply_gen(i, [u], n)
                common = max(la, ra)
                if not tower.has_level(common):
                    continue
                if embed_set(left, common) != embed_set(right, common):
                    problems.append({"kind": "square", "generator": i,
                                     "unit": [u.level, u.summand, u.row, u.col]})
    for n in range(top + 1):
        for u in tower.units_at(n):
            for i in range(ngens):
                units, level = [u], n
                for _ in range(action.group.orders[i]):
                    units, level = action.apply_gen(i, units, level)
                if sorted(units) != sorted(embed_unit(tower, u, level).units):
                    problems.append({"kind": "order", "generator": i,
                                     "unit": [u.level, u.summand, u.row, u.col]})
            for i in range(ngens):
                for j in range(i + 1, ngens):
                    a1, l1 = action.apply_gen(i, [u], n)
                    a1, l1 = action.apply_gen(j, a1, l1)
                    a2, l2 = action.apply_gen(j, [u], n)
                    a2, l2 = action.apply_gen(i, a2, l2)
                    common = max(l1, l2)
                    if embed_set(a1, common) != embed_set(a2, common):
                        problems.append({"kind": "commute", "generators": [i, j],
                                         "unit": [u.level, u.summand, u.row, u.col]})
    return {"ok": not problems, "horizon": top, "problems": problems}


# ---------------------------------------------------------------------------
# twisted links


def twisted_link(tower: TowerSpec, action: TowerAction, e: MatrixUnit, g,
                 horizon: int) -> MatrixUnit | None:
    """Least witness f with embed(e) f embed(alpha_g(e)) != 0, level <= horizon.

    e's walk, from the level where alpha_g(e) lands, runs beside the walk
    of alpha_g(e)'s units.
    """
    img_g, lvl_g = action.apply_units(g, [e], e.level)
    top = tower.top(horizon)
    left = islice(images(tower, [e], top), lvl_g - e.level, None)
    for (n, a), (_, b) in zip(left, images(tower, img_g, top)):
        link = least_link(a, b)
        if link is not None:
            a, b = link
            return MatrixUnit(n, a.summand, a.col, b.row)
    return None


# ---------------------------------------------------------------------------
# the tightness index audit


@dataclass
class AuditTuple:
    n1: int
    n2: int
    k: int
    l: int
    m: int
    g: tuple[int, ...]
    inequalities: dict[str, bool]

    @property
    def all_satisfied(self) -> bool:
        return all(self.inequalities.values())

    def to_json(self):
        return {"n1": self.n1, "n2": self.n2, "k": self.k, "l": self.l,
                "m": self.m, "g": list(self.g),
                "inequalities": self.inequalities,
                "all_satisfied": self.all_satisfied}


def _twisted_positions(tower: TowerSpec, action: TowerAction, level: int,
                       idx: int, g, target: int) -> list[int] | None:
    """Sorted diagonal indices of alpha_g(e_idx)'s image at a later TUHF
    level, or None when alpha_g lands above it."""
    units, lvl = action.apply_units(g, [MatrixUnit(level, 0, idx, idx)], level)
    if lvl > target:
        return None
    *_, (_, img) = images(tower, units, target)
    return sorted(u.row for u in img)


def technical_index_audit(tower: TowerSpec, action: TowerAction,
                          e: MatrixUnit,
                          horizons: tuple[int, int] = (3, 4)) -> dict:
    """Replay the tightness contradiction chain on concrete index data.

    Enumerates levels n1 <= h1 < n2 <= h2, diagonal indices k < l < m and
    group elements g whose premises hold up to the horizon:
    e_m T e_l = e_l T e_k = 0 (checked at level h2, which bounds all
    earlier levels) and e_m T_{n2} alpha_g(e_k) != 0.  For each such
    tuple the five subordinate-index inequalities are evaluated; they
    must never hold simultaneously (l*r <= ... <= (l-1)*r + 1 forces
    r < 1).  Any fully satisfied tuple is a refutation and aborts.

    Unless e.level <= h1 < h2 the scan is empty, and an h2 past a finite
    tower's last level would scan less than asked, so such horizons raise
    ValueError.
    """
    h1, h2 = horizons
    if not e.level <= h1 < h2:
        raise ValueError(f"horizons {h1},{h2} must "
                         f"satisfy unit level {e.level} <= h1 < h2")
    if not tower.has_level(h2):
        raise ValueError(f"horizon {h2} lies past the tower's last level "
                         f"{tower.max_level}")
    if any(len(tower.shape(n)) != 1 for n in range(h2 + 1)):
        raise TowerValidationError("index audit requires a TUHF tower")
    # the theorem's starting hypothesis: e itself has no self-link
    if first_link(tower, e, h2) is not None:
        return {"applicable": False,
                "reason": "unit has a link; hypothesis e A e = 0 fails",
                "tuples": []}

    # twisted position lists repeat across (k, l, m); a diagonal unit's
    # own positions are its twisted ones at the identity
    twisted_positions = functools.cache(
        functools.partial(_twisted_positions, tower, action))
    identity = action.group.identity
    elements = action.group.elements()

    tuples: list[AuditTuple] = []
    for n1 in range(e.level, h1 + 1):
        size1 = tower.shape(n1)[0]
        if size1 < 3:
            continue  # no k < l < m
        # e_hi T e_lo = 0 up to h2: first subordinate of hi past last of lo
        bound = [None] + [twisted_positions(n1, idx, identity, h2)
                          for idx in range(1, size1 + 1)]
        for n2 in range(n1 + 1, h2 + 1):
            ratio = tower.shape(n2)[0] // size1
            diag = [None] + [twisted_positions(n1, idx, identity, n2)
                             for idx in range(1, size1 + 1)]
            for k in range(1, size1 + 1):
                for l in range(k + 1, size1 + 1):
                    if bound[l][0] <= bound[k][-1]:
                        continue
                    l_pos = diag[l]
                    for m in range(l + 1, size1 + 1):
                        if bound[m][0] <= bound[l][-1]:
                            continue
                        m_pos = diag[m]
                        for g in elements:
                            kp = twisted_positions(n1, k, g, n2)
                            lp = twisted_positions(n1, l, g, n2)
                            if kp is None or lp is None:
                                continue
                            if m_pos[0] > kp[-1]:
                                continue  # e_m T_{n2} alpha_g(e_k) = 0
                            ineqs = {
                                "fourth": l * ratio <= l_pos[-1],
                                "first": l_pos[-1] < m_pos[0],
                                "third": m_pos[0] <= kp[-1],
                                "second": kp[-1] < lp[0],
                                "fifth": lp[0] <= (l - 1) * ratio + 1,
                            }
                            t = AuditTuple(n1, n2, k, l, m, g, ineqs)
                            if t.all_satisfied:
                                raise AssertionError(
                                    "contradiction chain satisfied: "
                                    f"{t.to_json()}")
                            tuples.append(t)
    return {"applicable": True, "tuples": [t.to_json() for t in tuples],
            "satisfiable": 0, "ok": True}
