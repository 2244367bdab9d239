"""Finite abelian crossed products over exact cyclotomic scalars.

A crossed product of a multi-matrix (triangular or full) base by a
finite abelian group G has basis {e (x) U_g} and covariance product
(a U_g)(b U_h) = a alpha_g(b) U_{gh}.  Scalars live in Q(zeta_m) with
m = exponent(G) so character values and diagonal-unitary twists are
exact.  Radicals come from the characteristic-zero trace-form oracle;
ideal lattices are enumerated over matrix-unit-spanned (homogeneous)
ideals, where both sides of the lattice correspondence are finite.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

from . import linalg
from .algebra import MonomialAlgebra, multi_matrix_algebra, multi_matrix_units
from .cyclotomic import Cyc

UnitKey = tuple[int, int, int]  # (summand, row, col)


# ---------------------------------------------------------------------------
# groups and characters


class FiniteAbelianGroup:
    """Direct product of cyclic groups Z_{d_1} x ... x Z_{d_t}."""

    def __init__(self, orders: tuple[int, ...]):
        orders = tuple(int(d) for d in orders)
        if any(d < 1 for d in orders):
            raise ValueError(f"group orders must be at least 1, got {orders}")
        self.orders = orders
        self.identity = (0,) * len(orders)
        self.exponent = math.lcm(*orders) if orders else 1

    @property
    def size(self) -> int:
        return math.prod(self.orders)

    def elements(self) -> list[tuple[int, ...]]:
        return list(itertools.product(*(range(d) for d in self.orders)))

    def op(self, a, b) -> tuple[int, ...]:
        return tuple((x + y) % d for x, y, d in zip(a, b, self.orders))

    def inverse(self, a) -> tuple[int, ...]:
        return tuple((-x) % d for x, d in zip(a, self.orders))

    def generator(self, i: int) -> tuple[int, ...]:
        return tuple(1 if j == i else 0 for j in range(len(self.orders)))

    def __eq__(self, other):
        return isinstance(other, FiniteAbelianGroup) and self.orders == other.orders

    def __repr__(self):
        return f"FiniteAbelianGroup({self.orders})"


@dataclass(frozen=True)
class Character:
    """gamma(g) = zeta_m^(sum_i c_i g_i m/d_i); multiplicative by construction."""
    group: FiniteAbelianGroup
    coeffs: tuple[int, ...]

    def value(self, g) -> Cyc:
        m = self.group.exponent
        k = sum(c * x * (m // d)
                for c, x, d in zip(self.coeffs, g, self.group.orders))
        return Cyc.zeta(m, k)

    def compose(self, other: "Character") -> "Character":
        if self.group != other.group:
            raise ValueError("characters of different groups do not compose")
        return Character(self.group, self.group.op(self.coeffs, other.coeffs))


def all_characters(group: FiniteAbelianGroup) -> list[Character]:
    return [Character(group, c) for c in group.elements()]


# ---------------------------------------------------------------------------
# level actions: summand permutation + diagonal-unitary conjugation


class ActionRelationError(ValueError):
    pass


class LevelAction:
    """Action of G on one multi-matrix level by unit-permuting maps.

    Each generator is a permutation of equal-size summands composed with
    conjugation by a diagonal unitary whose entries are zeta_m powers:
    alpha(e_ij^(s)) = u_i conj(u_j) e_ij^(perm(s)) with u the diagonal
    word of the target summand.  Every scalar is a power of zeta_m, so a
    table is kept as unit -> (k mod m, image unit) and tables compose by
    adding exponents; zeta^a = zeta^b iff a = b mod m, so generator orders
    and commutativity are verified exactly at construction on the
    integer tables.  `table(g)` turns the exponents into Cyc scalars.
    """

    def __init__(self, group: FiniteAbelianGroup, shape: tuple[int, ...],
                 gens: list[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]]):
        if len(gens) != len(group.orders):
            raise ActionRelationError(
                f"{len(gens)} generators for {len(group.orders)} group factors")
        if any(k < 1 for k in shape):
            raise ValueError(
                f"block sizes must be at least 1, got {list(shape)}")
        self.group = group
        self.shape = tuple(shape)
        self.m = group.exponent
        self._gen_tables = [self._gen_table(perm, diag) for perm, diag in gens]
        self._cache: dict[tuple[int, ...], dict] = {}
        self._validate()

    def _units(self) -> list[UnitKey]:
        # full-matrix support: the action must be defined off-diagonal too
        return multi_matrix_units(self.shape, triangular=False)

    def _gen_table(self, perm, diag) -> dict[UnitKey, tuple[int, UnitKey]]:
        if sorted(perm) != list(range(len(self.shape))):
            raise ActionRelationError(
                f"{list(perm)} is not a permutation of the summands")
        for s, t in enumerate(perm):
            if self.shape[s] != self.shape[t]:
                raise ActionRelationError(
                    "permuted summands must have equal sizes")
        table = {}
        for (s, i, j) in self._units():
            t = perm[s]
            exp = diag[t][i - 1] - diag[t][j - 1]
            table[(s, i, j)] = (exp % self.m, (t, i, j))
        return table

    def _compose(self, t2: dict, t1: dict) -> dict:
        out = {}
        for k, (e1, k1) in t1.items():
            e2, k2 = t2[k1]
            out[k] = ((e1 + e2) % self.m, k2)
        return out

    def _identity_table(self) -> dict:
        return {k: (0, k) for k in self._units()}

    def table(self, g: tuple[int, ...]) -> dict[UnitKey, tuple[Cyc, UnitKey]]:
        t = self._cache.get(g)
        if t is None:
            exps = self._identity_table()
            for i, (reps, d) in enumerate(zip(g, self.group.orders)):
                for _ in range(reps % d):
                    exps = self._compose(self._gen_tables[i], exps)
            zeta = [Cyc.zeta(self.m, k) for k in range(self.m)]
            t = self._cache[g] = {k: (zeta[e], k2)
                                  for k, (e, k2) in exps.items()}
        return t

    def _validate(self):
        ident = self._identity_table()
        for i, t in enumerate(self._gen_tables):
            acc = ident
            for _ in range(self.group.orders[i]):
                acc = self._compose(t, acc)
            if acc != ident:
                raise ActionRelationError(f"generator {i} violates its order")
        for i in range(len(self._gen_tables)):
            for j in range(i + 1, len(self._gen_tables)):
                ti, tj = self._gen_tables[i], self._gen_tables[j]
                if self._compose(ti, tj) != self._compose(tj, ti):
                    raise ActionRelationError(f"generators {i},{j} do not commute")


def trivial_action(group: FiniteAbelianGroup,
                   shape: tuple[int, ...]) -> LevelAction:
    ident = tuple(range(len(shape)))
    zero_diag = tuple((0,) * k for k in shape)
    return LevelAction(group, shape, [(ident, zero_diag)] * len(group.orders))


def diag_action(group: FiniteAbelianGroup, shape: tuple[int, ...],
                exps: list[tuple[tuple[int, ...], ...]]) -> LevelAction:
    """Diagonal-unitary action: generator i conjugates by zeta^exps[i]."""
    ident = tuple(range(len(shape)))
    return LevelAction(group, shape, [(ident, e) for e in exps])


def perm_action(group: FiniteAbelianGroup, shape: tuple[int, ...],
                perms: list[tuple[int, ...]]) -> LevelAction:
    zero_diag = tuple((0,) * k for k in shape)
    return LevelAction(group, shape, [(p, zero_diag) for p in perms])


# ---------------------------------------------------------------------------
# the crossed algebra


class CrossedAlgebra:
    """Basis {(unit, g)}, product ((e,g),(f,h)) -> (e * alpha_g(f), gh).

    The rows come from the base's rows and the action's tables: for each
    e f' = k in the base, alpha_g(f) = c f' gives (e U_g)(f U_h) = c k U_gh.
    Base matrix units multiply with scalar 1, so c is the whole scalar.
    `base` is that base algebra, with its rows once the crossed rows exist.
    `shifts[g]` lists the pairs (h, gh) over h in G, built once per g.
    """

    def __init__(self, shape: tuple[int, ...], group: FiniteAbelianGroup,
                 action: LevelAction, triangular: bool = True):
        if action.shape != tuple(shape) or action.group != group:
            raise ValueError("the action is not on this base shape and group")
        self.shape = tuple(shape)
        self.group = group
        self.action = action
        self.triangular = triangular
        self.m = group.exponent
        self.base = base = multi_matrix_algebra(self.shape, triangular)
        gs = group.elements()
        basis = [(u, g) for u in base.basis for g in gs]
        self.shifts = shifts = {g: [(h, group.op(g, h)) for h in gs]
                                for g in gs}

        @functools.cache
        def preimages(g) -> dict:  # f' -> (c, f) where alpha_g(f) = c f'
            return {f2: (c, f) for f, (c, f2) in action.table(g).items()}

        def right(a):
            e, g = a
            pre, shift = preimages(g), shifts[g]
            for f2, (_, k) in base.rows[e].items():
                c, f = pre[f2]
                for h, gh in shift:
                    yield (f, h), c, (k, gh)

        self.alg = MonomialAlgebra(basis, right, one=Cyc.one(self.m))
        self._radical = None
        self._radical_span = None

    @property
    def dim(self) -> int:
        return self.alg.dim

    def radical(self) -> list[dict]:
        if self._radical is None:
            self._radical = self.alg.radical_basis()
        return self._radical

    def radical_span(self) -> linalg.Span:
        if self._radical_span is None:
            self._radical_span = linalg.Span(
                self.alg.vectors_to_rows(self.radical()))
        return self._radical_span

    def contains_in_radical(self, vector: dict) -> bool:
        return self.radical_span().contains(
            self.alg.vectors_to_rows([vector])[0])


def build_crossed(shape, group: FiniteAbelianGroup, action: LevelAction,
                  triangular: bool = True) -> CrossedAlgebra:
    """The crossed algebra; its product is associative, unchecked.

    Associativity needs alpha_g multiplicative on the full matrix units.
    A LevelAction generator sends e_ij of summand s to zeta^(a_i - a_j)
    e_ij of summand pi(s), pi injective: e_ij e_jl = e_il goes to
    zeta^(a_i - a_l) times the image of e_il, a zero product stays zero,
    and the table of every g composes generator tables.
    """
    return CrossedAlgebra(shape, group, action, triangular)


# ---------------------------------------------------------------------------
# radical, tightness, corollary formula


def radical_tightness_check(shape, group: FiniteAbelianGroup,
                            action: LevelAction,
                            triangular: bool = True) -> dict:
    """Compare Rad(A x G) with (Rad A) x G exactly; emit the core ideal.

    The dual action of G^ on A x G is by automorphisms, so it leaves the
    radical invariant, and the radical is the direct sum of its g-slices.
    Its projection onto the identity slice is therefore the core ideal
    J_G = {x in base : x U_e in Rad(A x G)}.  With J_G that projection,
    Rad(A x G) = (Rad A) x G iff Rad(A x G) = J_G x G and J_G = Rad A.
    """
    a = build_crossed(shape, group, action, triangular)
    rad = a.radical()
    rad_base = a.base.radical_basis()
    core, _ = linalg.rref([{a.base.index[u]: c for (u, g), c in v.items()
                            if g == group.identity} for v in rad])
    # J_G x G copies a basis into the disjoint g-slices, so its rank is
    # its length
    span = a.radical_span()
    index, units = a.alg.index, a.base.basis
    graded = len(core) * group.size == len(rad) and all(
        span.contains({index[units[j], g]: c for j, c in row.items()})
        for row in core for g in group.elements())
    core_is_base = linalg.same_span(a.base.vectors_to_rows(rad_base), core)
    return {"tight": graded and core_is_base,
            "crossed_radical_dim": len(rad),
            "base_radical_dim": len(rad_base),
            "core_ideal_dim": len(core),
            "core_is_base_radical": core_is_base,
            "radical_is_core_crossed": graded}


def corollary_formula_check(shape, group: FiniteAbelianGroup,
                            action: LevelAction) -> dict:
    """Rad(A x G) = span{e U_g : e strictly upper unit} for triangular bases."""
    a = build_crossed(shape, group, action, triangular=True)
    rad = a.radical()
    span = [a.alg.vec(((s, i, j), g)) for (s, i, j) in
            multi_matrix_units(a.shape, triangular=True) if i < j
            for g in group.elements()]
    equal = a.radical_span().equals(a.alg.vectors_to_rows(span))
    return {"equal": equal, "radical_dim": len(rad), "span_dim": len(span)}


def radical_nilpotency_check(a: CrossedAlgebra) -> dict:
    """Rad^k = 0 for k = (max block size) * |G|, exactly."""
    k = max(a.shape) * max(1, a.group.size)
    rad = a.radical()
    power = a.alg.power_of_span(rad, k) if rad else []
    return {"exponent": k, "nilpotent": not power}


# ---------------------------------------------------------------------------
# dual action


def dual_action(a: CrossedAlgebra, gamma: Character) -> dict:
    """Basis map e U_g -> conj(gamma(g)) e U_g; verified multiplicative."""
    table = {key: (gamma.value(key[1]).conjugate(), key) for key in a.alg.basis}
    _verify_multiplicative(a.alg, table)
    return table


def _verify_multiplicative(alg: MonomialAlgebra, table: dict):
    """T(x) T(y) = T(x y) on basis pairs, for T: key -> (scalar, key)."""
    preimages: dict = {}  # key -> the keys T sends to it
    for y, (_, y2) in table.items():
        preimages.setdefault(y2, []).append(y)
    rows = alg.rows
    for x, row in rows.items():
        cx, x2 = table[x]
        row2 = rows[x2]
        for y, (s, k) in row.items():
            cy, y2 = table[y]
            ck, k2 = table[k]
            r2 = row2.get(y2)
            if r2 is None:
                raise AssertionError("map lost a product")
            if r2[1] != k2 or cx * cy * r2[0] != ck * s:
                raise AssertionError("map is not multiplicative")
        if any(y not in row for y2 in row2 for y in preimages.get(y2, ())):
            raise AssertionError("map created a product")


def apply_table(alg: MonomialAlgebra, table: dict, v: dict) -> dict:
    out: dict = {}
    for k, c in v.items():
        s, k2 = table[k]
        out[k2] = out.get(k2, alg.zero) + c * s
    return {k: c for k, c in out.items() if c}


# ---------------------------------------------------------------------------
# invariant ideal lattices


def _mask(indices) -> int:
    out = 0
    for n in indices:
        out |= 1 << n
    return out


def _bits(mask: int):
    """Indices of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _closure(seed: int, neighbours: list[int]) -> int:
    """Smallest mask holding `seed` that holds neighbours[n] for each bit n."""
    out = todo = seed
    while todo:
        low = todo & -todo
        todo ^= low
        new = neighbours[low.bit_length() - 1] & ~out
        out |= new
        todo |= new
    return out


def _union_lattice(principal: list[int]) -> set[int]:
    """All unions of principal closures (every homogeneous ideal is one)."""
    values = set(principal)
    ideals = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for ideal in frontier:
            for p in values:
                u = ideal | p
                if u not in ideals:
                    ideals.add(u)
                    nxt.append(u)
        frontier = nxt
    return ideals


def _decode(masks, keys: list) -> list[frozenset]:
    """Masks over `keys` as key sets, smallest first."""
    ideals = [frozenset(keys[n] for n in _bits(m)) for m in masks]
    return sorted(ideals, key=lambda f: (len(f), sorted(f)))


def _principal_closures(alg: MonomialAlgebra, maps: list[dict]) -> list[int]:
    """Mask n: the least basis-spanned ideal of `alg` holding basis element
    n that each map (key -> (scalar, key)) carries into itself."""
    index = alg.index
    # neighbours[n]: x b and b x over every basis b, and each image of x
    neighbours = [_mask(index[t[x][1]] for t in maps) for x in alg.basis]
    for x, row in alg.rows.items():
        for y, (_, k) in row.items():
            bit = 1 << index[k]
            neighbours[index[x]] |= bit
            neighbours[index[y]] |= bit
    return [_closure(1 << n, neighbours) for n in range(alg.dim)]


def _invariant_closures(base: MonomialAlgebra, action: LevelAction
                        ) -> list[int]:
    """The alpha-invariant principal closures of the base algebra."""
    group = action.group
    return _principal_closures(base, [action.table(group.generator(i))
                                      for i in range(len(group.orders))])


def enumerate_invariant_ideals(shape, action: LevelAction,
                               triangular: bool = True) -> list[frozenset]:
    """All alpha-invariant matrix-unit-spanned ideals of the base."""
    base = multi_matrix_algebra(tuple(shape), triangular)
    return _decode(_union_lattice(_invariant_closures(base, action)),
                   base.basis)


def enumerate_dual_invariant_ideals(a: CrossedAlgebra) -> list[frozenset]:
    """All homogeneous ideals of A x G (automatically dual-invariant).

    Every dual automorphism scales each basis line, so a span of basis
    elements is dual-invariant for free; closure under two-sided
    multiplication by basis elements is what is enumerated.
    """
    return _decode(_union_lattice(_principal_closures(a.alg, [])), a.alg.basis)


def verify_lattice_iso(shape, group: FiniteAbelianGroup, action: LevelAction,
                       triangular: bool = True) -> dict:
    """J -> J x G is a lattice bijection onto the homogeneous ideals.

    phi sends a base ideal J to the union of the blocks {u} x G over u in
    J.  Meets and joins are intersections and unions on both sides; phi
    preserves them, and is injective, when the blocks are non-empty and
    pairwise disjoint: their popcounts add up to that of their union.

    On either side each ideal is the union of the principal closures of
    its elements (Birkhoff's rings of sets).  Given the block condition,
    phi maps the base lattice onto the crossed one iff
    closure((u, g)) = phi(closure_alpha(u)) for every base unit u and g.
    If: a crossed ideal is the union of its closures((u, g)), so it is
    phi of the union of the closure_alpha(u), a base ideal; and phi(J) is
    the union of the crossed ideals closure((u, g)) over u in J.  Only if:
    closure((u, g)) = phi(J) for a base ideal J, which holds u, so it
    holds phi(closure_alpha(u)); and phi(closure_alpha(u)) is a crossed
    ideal holding (u, g), so it holds closure((u, g)).  The lattices are
    listed only to be counted.
    """
    a = build_crossed(shape, group, action, triangular)
    base_principal = _invariant_closures(a.base, action)
    principal = _principal_closures(a.alg, [])
    gs = group.elements()
    blocks = [_mask(a.alg.index[(u, g)] for g in gs) for u in a.base.basis]

    def phi(ideal: int) -> int:
        return functools.reduce(
            operator.or_, (blocks[n] for n in _bits(ideal)), 0)

    union = phi((1 << len(blocks)) - 1)  # phi of the whole base
    preserves = (all(blocks)
                 and sum(b.bit_count() for b in blocks) == union.bit_count())
    # the bits of block u are the crossed indices of (u, g), g in G
    bijection = preserves and all(
        principal[n] == image
        for block, image in zip(blocks, map(phi, base_principal))
        for n in _bits(block))
    return {"base_count": len(_union_lattice(base_principal)),
            "crossed_count": len(_union_lattice(principal)),
            "bijection": bijection, "preserves_lattice_ops": preserves,
            "ok": bijection and preserves}


# ---------------------------------------------------------------------------
# diagonal (B intersect B*) in the left regular matrix model


def _model_matrices(a: CrossedAlgebra) -> tuple[list[dict], int]:
    """Left-regular model: block (h, g^{-1}h) of e U_g is alpha_{h^{-1}}(e)."""
    gs = a.group.elements()
    offs = []
    off = 0
    for k in a.shape:
        offs.append(off)
        off += k
    s_total = off
    size = s_total * len(gs)
    # per h: the row offset of block row h and the table of alpha_{h^{-1}}
    inverse_tables = {h: (n * s_total, a.action.table(a.group.inverse(h)))
                      for n, h in enumerate(gs)}
    col_offs = {k: n * s_total for n, k in enumerate(gs)}

    def rep(key) -> dict:
        e, g = key
        mat = {}
        for k, h in a.shifts[g]:
            row_off, table = inverse_tables[h]
            c, (s2, i2, j2) = table[e]
            # h = g k differs per k: no entry repeats
            mat[(row_off + offs[s2] + i2 - 1,
                 col_offs[k] + offs[s2] + j2 - 1)] = c
        return mat

    return [rep(key) for key in a.alg.basis], size


def _mats_to_rows(mats: list[dict], size: int) -> list[dict]:
    return [{r * size + c: v for (r, c), v in m.items()} for m in mats]


def _adjoint(mat: dict) -> dict:
    return {(c, r): v.conjugate() for (r, c), v in mat.items()}


def _kron(mat: dict, n: int) -> list[dict]:
    """All mat (x) e_ab for e_ab in M_n: entry (r, c) goes to
    (r*n + a, c*n + b), so a size-k mat gives size k*n matrices."""
    out = []
    for a_ in range(n):
        for b in range(n):
            out.append({(r * n + a_, c * n + b): v for (r, c), v in mat.items()})
    return out


def _diag_dims(mats: list[dict], size: int, expected: list[dict]) -> dict:
    """dim(B intersect B*) and whether it is the span of `expected`.

    dim(B + B*) is rank B plus the rank of the B* rows reduced modulo B,
    so dim(B intersect B*) = rank B* minus that rank.
    """
    rows_b = _mats_to_rows(mats, size)
    rows_bstar = _mats_to_rows([_adjoint(m) for m in mats], size)
    rows_exp = _mats_to_rows(expected, size)
    span_b, span_bstar = linalg.Span(rows_b), linalg.Span(rows_bstar)
    dim_diag = span_bstar.dim - linalg.rank(
        [span_b.reduce(r) for r in rows_bstar])
    in_b = all(map(span_b.contains, rows_exp))
    in_bstar = all(map(span_bstar.contains, rows_exp))
    dim_exp = linalg.rank(rows_exp)
    return {"diag_dim": dim_diag, "expected_dim": dim_exp,
            "ok": in_b and in_bstar and dim_diag == dim_exp}


def diag_check(shape, group: FiniteAbelianGroup, action: LevelAction,
               triangular: bool = True, ampliation: int | None = 2) -> dict:
    """diag(A x G) = diag(A) x G, and diag(B (x) M_n) = diag(B) (x) M_n.

    diag(B) = B intersect B* computed by exact rank arithmetic in the
    left regular matrix model over the group index.
    """
    a = build_crossed(shape, group, action, triangular)
    mats, size = _model_matrices(a)
    # diag(A) is the diagonal units of a triangular base, all of a full one
    expected = [m for m, ((_, r, c), _) in zip(mats, a.alg.basis)
                if r == c or not triangular]
    main = _diag_dims(mats, size, expected)
    if ampliation is None:
        return {"crossed": main, "ok": main["ok"]}

    amp_mats = [m2 for m in mats for m2 in _kron(m, ampliation)]
    amp_expected = [m2 for m in expected for m2 in _kron(m, ampliation)]
    amp = _diag_dims(amp_mats, size * ampliation, amp_expected)
    return {"crossed": main, "ampliation": {"n": ampliation, **amp},
            "ok": main["ok"] and amp["ok"]}


# ---------------------------------------------------------------------------
# semisimplicity permanence and the links lemma


def semisimplicity_permanence_check(shape, group: FiniteAbelianGroup,
                                    action: LevelAction,
                                    triangular: bool = False) -> dict:
    a = build_crossed(shape, group, action, triangular)
    rad_base = a.base.radical_basis()
    if rad_base:
        return {"applicable": False, "base_radical_dim": len(rad_base)}
    rad = a.radical()
    if rad:
        raise AssertionError(
            "semisimplicity was not preserved by the crossed product")
    return {"applicable": True, "base_radical_dim": 0, "crossed_radical_dim": 0}


def links_lemma_check(a: CrossedAlgebra) -> dict:
    """Every homogeneous e U_h outside the radical has g with e A alpha_g(e) != 0.

    A failure would refute the underlying lemma, so it aborts loudly.
    """
    if not a.triangular:
        raise ValueError("links lemma check expects a triangular base")
    entries = []
    for key in a.alg.basis:
        (s, i, j), h = key
        if a.contains_in_radical(a.alg.vec(key)):
            entries.append({"element": _fmt_key(key), "status": "radical"})
            continue
        witness = None
        for g in a.group.elements():
            # the middle unit e_{j, i2} exists iff col(e) <= row(alpha_g(e))
            _, (s2, i2, _) = a.action.table(g)[(s, i, j)]
            if s2 == s and j <= i2:
                witness = {"g": list(g), "middle": [s, j, i2]}
                break
        if witness is None:
            raise AssertionError(
                f"non-radical homogeneous element {key} has no twisted link")
        entries.append({"element": _fmt_key(key), "status": "witnessed",
                        **witness})
    return {"ok": True, "elements": entries}


def _fmt_key(key) -> list:
    (s, i, j), g = key
    return [s, i, j, list(g)]
