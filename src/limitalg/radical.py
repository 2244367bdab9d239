"""Radical membership certificates for tower matrix units.

Membership in the Jacobson radical of the limit algebra is certified,
never guessed: InRadical via an all-linkless decomposition (the TUHF
criterion) or a uniform-nilpotency pattern argument, NotInRadical via a
recurrent Donsig chain, and Unknown otherwise.  A finite-level
trace-form oracle cross-checks everything at desk scale.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import multi_matrix_units
from .links import DEFAULT_HORIZON, certify_linkless, first_link
from .tower import LevelRangeError, MatrixUnit, TowerSpec, embed_unit, images

DEFAULT_EXPAND_HORIZON = 6
_MAX_CHAIN_DEPTH = 10  # the deepest chain a chain-cycle certificate tries


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class LinklessDecomposition:
    level: int
    units: tuple[MatrixUnit, ...]

    def to_json(self):
        return {"kind": "linkless-decomposition", "level": self.level,
                "units": [[u.summand, u.row, u.col] for u in self.units]}


@dataclass(frozen=True)
class UniformNilpotency:
    exponent: int
    horizon: int
    pattern_closed: bool

    def to_json(self):
        return {"kind": "uniform-nilpotency", "exponent": self.exponent,
                "horizon": self.horizon, "pattern_closed": self.pattern_closed}


@dataclass(frozen=True)
class DonsigChain:
    t_units: tuple[MatrixUnit, ...]  # T_0, ..., T_d
    s_units: tuple[MatrixUnit, ...]  # S_1, ..., S_d

    def verify(self, tower: TowerSpec) -> bool:
        """Re-check T_{l+1} = embed(T_l) * S_{l+1} * embed(T_l) exactly.

        embed(T) is a sum of units r with coefficient 1 whose rows, and
        whose cols, are distinct within a summand (`MatrixUnitSum`), so
        the product is e_{r.row, r'.col} in S's summand for the one r
        with col(r) = row(S) and the one r' with row(r') = col(S) there,
        and 0 when either is missing.
        """
        for l, s in enumerate(self.s_units):
            img = embed_unit(tower, self.t_units[l], s.level).units
            row = next((r.row for r in img
                        if r.summand == s.summand and r.col == s.row), None)
            col = next((r.col for r in img
                        if r.summand == s.summand and r.row == s.col), None)
            if row is None or col is None or self.t_units[l + 1] != \
                    MatrixUnit(s.level, s.summand, row, col):
                return False
        return True

    def to_json(self):
        return {"kind": "donsig-chain",
                "t": [[u.level, u.summand, u.row, u.col] for u in self.t_units],
                "s": [[u.level, u.summand, u.row, u.col] for u in self.s_units]}


@dataclass(frozen=True)
class ChainCycle:
    chain: DonsigChain
    cycle_start: int
    cycle_end: int

    def to_json(self):
        return {"kind": "chain-cycle", "cycle": [self.cycle_start, self.cycle_end],
                "chain": self.chain.to_json()}


@dataclass(frozen=True)
class InRadical:
    certificate: object
    status = "in-radical"

    def to_json(self):
        return {"status": self.status, "certificate": self.certificate.to_json()}


@dataclass(frozen=True)
class NotInRadical:
    certificate: object
    status = "not-in-radical"

    def to_json(self):
        return {"status": self.status, "certificate": self.certificate.to_json()}


@dataclass(frozen=True)
class Unknown:
    expand_horizon: int
    link_horizon: int
    status = "unknown"

    def to_json(self):
        return {"status": self.status, "expand_horizon": self.expand_horizon,
                "link_horizon": self.link_horizon}


RadicalStatus = InRadical | NotInRadical | Unknown


# ---------------------------------------------------------------------------
# Donsig chains


def donsig_chain(tower: TowerSpec, t0: MatrixUnit, depth: int,
                 horizon: int = DEFAULT_HORIZON) -> DonsigChain | None:
    """Chain T_{l+1} = T_l S_{l+1} T_l with canonical connecting units."""
    tower.check_unit(t0)  # a chain of depth 0 walks no level
    ts = [t0]
    ss: list[MatrixUnit] = []
    for _ in range(depth):
        step = first_link(tower, ts[-1], tower.top(horizon))
        if step is None:
            return None
        s, t_next = step
        ss.append(s)
        ts.append(t_next)
    return DonsigChain(tuple(ts), tuple(ss))


def _anchored_state(tower: TowerSpec, t: MatrixUnit, k0: int):
    """Scale-anchored position pattern of a chain unit.

    Residues mod the start-level block size plus the block distance from
    the start (rows) and from the end (cols), as exact fractions; equal
    states in a self-similar tower reproduce the same continuation.
    """
    k = tower.shape(t.level)[t.summand]
    if k % k0:
        return None
    blocks = k // k0
    return (t.summand, (t.row - 1) % k0, (t.col - 1) % k0,
            Fraction((t.row - 1) // k0, blocks),
            Fraction(blocks - 1 - (t.col - 1) // k0, blocks))


def chain_cycle_certificate(tower: TowerSpec, e: MatrixUnit,
                            horizon: int = DEFAULT_HORIZON
                            ) -> ChainCycle | None:
    """Recurrent Donsig chain witnessing an infinite chain (e not radical).

    Only chain units at levels >= `rule_start` have anchored states, on
    the size k0 of the first of them; each earlier unit holds a None."""
    if tower.finite or not tower.rule.self_similar:
        raise ValueError("chain-cycle certificates require a stationary tower")
    tower.check_unit(e)  # the diagonal shortcut walks no level
    if e.diagonal:
        # T0 S=T0 T0 = T0: the chain is constant from the start
        chain = DonsigChain((e, e), (e,))
        return ChainCycle(chain, 0, 0)
    ts, ss, states = [e], [], []
    k0 = None
    for depth in range(_MAX_CHAIN_DEPTH + 1):
        if depth:
            step = first_link(tower, ts[-1], tower.top(horizon))
            if step is None:
                return None
            ss.append(step[0])
            ts.append(step[1])
        t = ts[-1]
        st = None
        if t.level >= tower.rule_start:
            k0 = k0 or tower.shape(t.level)[t.summand]
            st = _anchored_state(tower, t, k0)
            if st is None:
                return None
            if st in states:
                chain = DonsigChain(tuple(ts), tuple(ss))
                if not chain.verify(tower):
                    raise AssertionError("chain failed exact re-verification")
                return ChainCycle(chain, states.index(st), depth)
        states.append(st)
    return None


# ---------------------------------------------------------------------------
# uniform nilpotency


@dataclass
class NilpotencyReport:
    ok: bool
    exponent: int
    horizon: int
    pattern_closed: bool = False
    counterexample: MatrixUnit | None = None
    certificate: UniformNilpotency | None = None


def _support_nilpotent(tower: TowerSpec, img: list[MatrixUnit], level: int,
                       k: int) -> bool:
    """Boolean-support check on e's image `img` at `level`: (e x)^k = 0
    for every x, mixed terms included."""
    shape = tower.shape(level)
    # reachability pairs (i -> j) of the support pattern e * (anything)
    per_summand_rows: dict[int, set[int]] = {}
    per_summand: dict[int, set[tuple[int, int]]] = {}
    for u in img:
        per_summand_rows.setdefault(u.summand, set()).add((u.row, u.col))
    for s, pairs in per_summand_rows.items():
        size = shape[s]
        # e*b has support {(i, l): (i, j) in supp(e), j <= l} for upper b
        reach = {(i, l) for (i, j) in pairs for l in range(j, size + 1)}
        per_summand[s] = reach
    for s, reach in per_summand.items():
        cur = set(reach)
        for _ in range(k - 1):
            cur = {(i, l) for (i, j) in cur for (j2, l) in reach if j == j2}
            if not cur:
                break
        if cur:
            return False
    return True


def uniform_nilpotency(tower: TowerSpec, e: MatrixUnit, exponent: int,
                       horizon: int = 4,
                       pattern_closure: bool = False) -> NilpotencyReport:
    """Verify (embed(e) * b)^exponent = 0 for all units b at levels <= horizon.

    Closed form: at every level the image x of an upper unit e has 0/1
    coefficients, distinct rows and distinct columns, and each of its
    units has row < col when e is strictly upper (the ballot condition)
    and row = col when e is diagonal.  So x * b is at most one unit
    e_{r,l} with r <= l, and its powers survive only when r = l.  The
    first counterexample in `units_at` order therefore lies at e's own
    level, where x = e: it is e_{col,col} when exponent == 1 or e is
    diagonal, and no level has one otherwise.  A horizon below e's level
    checks nothing and finds nothing.  The form needs row <= col, so a
    lower unit raises UnitShapeError (`TowerSpec.check_unit`).

    On a finite tower the report certifies every level even when
    `horizon` stops short of the last one, since strictly upper images
    stay strictly upper at every level.  With pattern_closure
    (Example-4.3-shaped towers: identity carries plus a level-independent
    creation word) the check extends soundly to all levels of an
    infinite tower, and the boolean-support closure additionally covers
    arbitrary (mixed) elements b.
    """
    if exponent < 1:
        raise ValueError("exponent must be >= 1")
    tower.check_unit(e)
    top = tower.top(horizon)
    nilpotent = exponent > 1 and not e.diagonal
    if not nilpotent and e.level <= top:
        return NilpotencyReport(
            False, exponent, horizon,
            counterexample=MatrixUnit(e.level, e.summand, e.col, e.col))
    # a certificate covers every later level, so it rests on the closed
    # form's verdict for all levels, and pattern closure on a checked range
    # that holds at least e's own level
    closed = False
    if pattern_closure:
        closed = (not tower.finite and tower.rule.pattern_closed
                  and e.level <= top
                  and all(_support_nilpotent(tower, img, lv, exponent)
                          for lv, img in images(tower, [e], top)))
    cert = None
    if nilpotent and (tower.finite or closed):
        cert = UniformNilpotency(exponent, horizon, closed)
    return NilpotencyReport(True, exponent, horizon,
                            pattern_closed=closed, certificate=cert)


# ---------------------------------------------------------------------------
# finite-level oracle


def strictly_upper_units(shape: tuple[int, ...]) -> list[tuple[int, int, int]]:
    return [(s, i, j) for s, i, j in multi_matrix_units(shape, True) if i < j]


# ---------------------------------------------------------------------------
# membership


def radical_membership(tower: TowerSpec, e: MatrixUnit,
                       expand_horizon: int = DEFAULT_EXPAND_HORIZON,
                       link_horizon: int = DEFAULT_HORIZON,
                       exponent: int | None = None) -> RadicalStatus:
    tower.check_unit(e)  # a bad unit is named before a bad horizon
    if link_horizon < e.level:
        raise LevelRangeError("horizon below the unit's level")
    top = tower.top(expand_horizon)
    # (1) all-linkless decomposition (TUHF criterion; sound for TAF too).
    # A diagonal unit's images are non-empty sums of diagonal units, each
    # linked at its own level, so no level can give one: a nonzero
    # idempotent lies in no radical
    if not e.diagonal:
        for n, img in images(tower, [e], top):
            units = tuple(sorted(img))
            if all(certify_linkless(tower, u) is not None for u in units):
                return InRadical(LinklessDecomposition(n, units))
    # (2) recurrent Donsig chain
    if not tower.finite and tower.rule.self_similar:
        cc = chain_cycle_certificate(tower, e, horizon=link_horizon)
        if cc is not None:
            return NotInRadical(cc)
    # (3) uniform nilpotency with pattern closure.  A bad exponent is
    # rejected even where none is tried (0 asks for the default range);
    # on an infinite tower only a pattern-closed rule earns a certificate,
    # and a unit above the expand horizon has no level to try
    if exponent is not None and exponent < 0:
        raise ValueError("exponent must be >= 1")
    if e.level <= top and (tower.finite or tower.rule.pattern_closed):
        max_block = max(max(tower.shape(n)) for n in range(e.level, top + 1))
        exponents = [exponent] if exponent else list(range(2, max_block + 1))
        for k in exponents:
            rep = uniform_nilpotency(tower, e, k, horizon=top,
                                     pattern_closure=True)
            if rep.ok and rep.certificate is not None:
                return InRadical(rep.certificate)
    return Unknown(expand_horizon, link_horizon)
