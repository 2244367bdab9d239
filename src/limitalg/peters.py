"""Gauge-invariant ideal parametrization for finite dynamical systems.

A finite system (X, phi) with phi a permutation has its gauge-invariant
ideals parametrized by decreasing subset sequences X_0 >= X_1 >= ...
satisfying (star): X_{n+1} union phi(X_{n+1}) <= X_n.  Ideals of C(X)
are encoded by zero-sets, which turns the dual ideal-sequence condition
(bigstar) I_n <= I_{n+1} intersect alpha(I_{n+1}) into (star) verbatim.
A truncated N x N lower-triangular matrix model realizes each sequence
as a shift-invariant homogeneous ideal and back.
"""
from __future__ import annotations

import random
from dataclasses import dataclass


class FiniteDynSys:
    """Finite set with a permutation; alpha(f) = f o phi^(-1) on functions."""

    def __init__(self, points, phi: dict):
        self.points = tuple(points)
        if len(set(self.points)) != len(self.points):
            raise ValueError("points must be distinct")
        if set(phi) != set(self.points):
            raise ValueError("phi must be defined on X")
        if set(phi.values()) != set(self.points):
            raise ValueError("phi must be a bijection")
        self.phi = dict(phi)
        self.inv = {v: k for k, v in phi.items()}

    @property
    def space(self) -> frozenset:
        return frozenset(self.points)

    def image(self, s) -> frozenset:
        return frozenset(self.phi[x] for x in s)

    def preimage(self, s) -> frozenset:
        return frozenset(self.inv[x] for x in s)

    def iterate(self, s, k: int) -> frozenset:
        s = frozenset(s)
        step = self.image if k >= 0 else self.preimage
        for _ in range(abs(k)):
            s = step(s)
        return s


def recurrent_dense(sys: FiniteDynSys) -> bool:
    """Whether the recurrent points are dense (= all of X, finite discrete)."""
    recurrent = set()
    for x in sys.points:
        y = sys.phi[x]
        for _ in range(len(sys.points)):
            if y == x:
                recurrent.add(x)
                break
            y = sys.phi[y]
    return recurrent == set(sys.points)


# ---------------------------------------------------------------------------
# subset and ideal sequences


def _trim(sets: list[frozenset]) -> tuple[frozenset, ...]:
    sets = [frozenset(s) for s in sets]
    while len(sets) > 1 and sets[-1] == sets[-2]:
        sets.pop()
    return tuple(sets)


@dataclass(frozen=True)
class SubsetSequence:
    """Decreasing sets X_0 >= X_1 >= ..., constant past the stored tail."""
    sets: tuple[frozenset, ...]

    def __post_init__(self):
        object.__setattr__(self, "sets", _trim(list(self.sets)))

    @classmethod
    def _of_trimmed(cls, sets: tuple[frozenset, ...]) -> SubsetSequence:
        """The sequence of `sets`: frozensets that `_trim` leaves as they are."""
        seq = object.__new__(cls)
        object.__setattr__(seq, "sets", sets)
        return seq

    @property
    def stabilization(self) -> int:
        return len(self.sets) - 1

    def at(self, n: int) -> frozenset:
        return self.sets[min(n, len(self.sets) - 1)]


@dataclass(frozen=True)
class IdealSequence:
    """Increasing ideals of C(X), each the functions vanishing on a zero-set."""
    zero_sets: tuple[frozenset, ...]

    def __post_init__(self):
        object.__setattr__(self, "zero_sets", _trim(list(self.zero_sets)))

    def at(self, n: int) -> frozenset:
        return self.zero_sets[min(n, len(self.zero_sets) - 1)]


def check_star(sys: FiniteDynSys, seq: SubsetSequence) -> dict:
    """X_{n+1} union phi(X_{n+1}) <= X_n, including the stabilized tail."""
    if not all(s <= sys.space for s in seq.sets):
        raise ValueError("sequence leaves the space")
    for n in range(len(seq.sets)):
        nxt = seq.at(n + 1)
        bad = (nxt | sys.image(nxt)) - seq.at(n)
        if bad:
            return {"ok": False, "index": n, "witness": sorted(bad, key=str)}
    return {"ok": True}


def check_bigstar(sys: FiniteDynSys, iseq: IdealSequence) -> dict:
    """I_n <= I_{n+1} intersect alpha(I_{n+1}) on zero-set encodings.

    vanish(Z) <= vanish(W) iff W <= Z, and alpha(vanish(Z)) =
    vanish(phi(Z)), so the condition reads Z_{n+1} union phi(Z_{n+1})
    <= Z_n -- (star) on the zero-sets.
    """
    return check_star(sys, ideals_to_sets(iseq))


def sets_to_ideals(seq: SubsetSequence) -> IdealSequence:
    """I_n = functions vanishing on X_n; (star) becomes (bigstar) verbatim."""
    return IdealSequence(seq.sets)


def ideals_to_sets(iseq: IdealSequence) -> SubsetSequence:
    return SubsetSequence(iseq.zero_sets)


def sequence_masks(sys: FiniteDynSys, horizon: int
                   ) -> tuple[list[list], list[tuple[int, ...]]]:
    """The (star) sequences stabilizing by `horizon` as chains of int
    masks, canonical order, and the table that names the masks.

    Bit i of a mask is the i-th point in `str` order, and `names[mask]`
    lists the mask's points in that order; a chain stores each set of
    its sequence once, trimmed as `SubsetSequence` trims.  X_{n+1}
    ranges over subsets of X_n intersect phi^(-1)(X_n); the tail
    X_horizon must be phi-invariant so the constant continuation still
    satisfies (star).  The canonical order sorts by the number of stored
    sets, then by the list of each set's points sorted by `str`.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be at least 0, got {horizon}")
    # the tables double once per point: `names[mask]` lists the mask's
    # points in str order, `img[mask]` and `pre[mask]` are its image and
    # preimage
    names: list[list] = [[]]
    img, pre = [0], [0]
    points = sorted(sys.points, key=str)
    bit = {p: 1 << i for i, p in enumerate(points)}
    for p in points:
        b_img, b_pre = bit[sys.phi[p]], bit[sys.inv[p]]
        names += [ns + [p] for ns in names]
        img += [m | b_img for m in img]
        pre += [m | b_pre for m in pre]
    # X_n & pre[X_n] -> its submasks in the order of their point lists; a
    # depth-first walk that takes each X_{n+1} in this order meets the
    # chains in canonical order
    below: dict[int, list[int]] = {}
    # by_length[k]: the chains stored with k + 1 sets.  A chain decreases,
    # so it is constant from the first place its invariant tail occurs;
    # trimming cuts it there, and distinct chains stay distinct.
    by_length: list[list[tuple[int, ...]]] = [[] for _ in range(horizon + 1)]
    # a worklist, not a recursive closure: a closure that calls itself is
    # a reference cycle and would keep the results alive until the cyclic
    # collector runs.  The empty prefix stands below X_0 = all of X.
    todo: list[tuple[int, ...]] = [()]
    while todo:
        prefix = todo.pop()
        x = prefix[-1] if prefix else len(names) - 1
        allowed = x & pre[x]
        subs = below.get(allowed)
        if subs is None:
            subs, sub = [allowed], allowed
            while sub:
                sub = (sub - 1) & allowed
                subs.append(sub)
            subs = below[allowed] = sorted(subs, key=names.__getitem__)
        if len(prefix) < horizon:
            todo += [prefix + (sub,) for sub in reversed(subs)]
            continue
        for t in subs:
            if img[t] == t:
                chain = prefix + (t,)
                cut = chain.index(t)
                by_length[cut].append(chain[:cut + 1])
    return names, [chain for found in by_length for chain in found]


def enumerate_sequences(sys: FiniteDynSys, horizon: int) -> list[SubsetSequence]:
    """All (star) sequences stabilizing by `horizon`, canonical order
    (`sequence_masks`)."""
    names, chains = sequence_masks(sys, horizon)
    sets = [frozenset(ns) for ns in names]
    return [SubsetSequence._of_trimmed(tuple(map(sets.__getitem__, chain)))
            for chain in chains]


def _pointwise(sys: FiniteDynSys, a: SubsetSequence, b: SubsetSequence,
               op, name: str) -> SubsetSequence:
    n = max(len(a.sets), len(b.sets))
    r = SubsetSequence(tuple(op(a.at(i), b.at(i)) for i in range(n)))
    if not check_star(sys, r)["ok"]:
        raise AssertionError(f"{name} left the (star) class")
    return r


def lattice_meet(sys: FiniteDynSys, a: SubsetSequence,
                 b: SubsetSequence) -> SubsetSequence:
    return _pointwise(sys, a, b, frozenset.intersection, "meet")


def lattice_join(sys: FiniteDynSys, a: SubsetSequence,
                 b: SubsetSequence) -> SubsetSequence:
    return _pointwise(sys, a, b, frozenset.union, "join")


def random_sequence(sys: FiniteDynSys, horizon: int,
                    rng: random.Random) -> SubsetSequence:
    """Seeded random (star) sequence stabilizing at an invariant tail."""
    cur = frozenset(x for x in sys.points if rng.random() < 0.7)
    sets = [cur]
    for _ in range(horizon):
        allowed = sorted(cur & sys.preimage(cur), key=str)
        cur = frozenset(x for x in allowed if rng.random() < 0.6)
        sets.append(cur)
    # drive the tail to the largest invariant subset below it
    while sys.image(cur) != cur:
        cur = cur & sys.preimage(cur)
        sets.append(cur)
    return SubsetSequence(tuple(sets))


# ---------------------------------------------------------------------------
# the truncated lower-triangular matrix model


class IdealClosureError(ValueError):
    pass


@dataclass
class TruncatedSemicrossed:
    """N x N lower-triangular matrices with entries functions on X.

    Matrix multiplication with pointwise entry products; the shift
    automorphism beta moves every entry one step up the diagonal and
    applies alpha: beta(M)[i][j] = alpha(M[i+1][j+1]).  A homogeneous
    ideal assigns each entry (i, j), i >= j, a zero-set Z[i,j] (the
    entry holds the functions vanishing there).
    """
    sys: FiniteDynSys
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"matrix size must be at least 1, got {self.n}")

    def entries(self):
        return [(i, j) for i in range(self.n) for j in range(i + 1)]

    def full_ideal(self) -> dict:
        return {e: frozenset() for e in self.entries()}

    def zero_ideal(self) -> dict:
        return {e: self.sys.space for e in self.entries()}


def ideal_from_sequence(model: TruncatedSemicrossed,
                        seq: SubsetSequence) -> dict:
    """Entry (i, j) vanishes on phi^(-j)(X_{i-j}).

    The phi^(-j) twist makes the shift relation an equality and closes
    the ideal under right multiplication (iterated (star)).  A sequence
    whose entries are not closed raises IdealClosureError naming the
    first failed product.
    """
    ideal = {(i, j): model.sys.iterate(seq.at(i - j), -j)
             for (i, j) in model.entries()}
    rep = validate_ideal(model, ideal)
    if not rep["ok"]:
        raise IdealClosureError(rep["failure"])
    return ideal


def validate_ideal(model: TruncatedSemicrossed, ideal: dict) -> dict:
    """Closure under matrix products and the shift relation (as equality)."""
    sys = model.sys
    if sorted(ideal) != sorted(model.entries()):
        return {"ok": False, "failure": "entry set is not lower-triangular"}
    for i in range(model.n):
        for j in range(i + 1):
            for k in range(j + 1):
                # e_{i,j} times entry (j,k): lands at (i,k)
                if not ideal[(i, k)] <= ideal[(j, k)]:
                    return {"ok": False,
                            "failure": f"left product ({i},{j})*({j},{k})"}
                # entry (i,j) times e_{j,k}: lands at (i,k)
                if not ideal[(i, k)] <= ideal[(i, j)]:
                    return {"ok": False,
                            "failure": f"right product ({i},{j})*({j},{k})"}
    for i in range(model.n - 1):
        for j in range(i + 1):
            if ideal[(i, j)] != sys.image(ideal[(i + 1, j + 1)]):
                return {"ok": False,
                        "failure": f"shift relation at ({i},{j})"}
    return {"ok": True}


def invariant_closure(model: TruncatedSemicrossed, seed: dict) -> dict:
    """Smallest shift-invariant homogeneous ideal containing the seed.

    Zero-sets only shrink under the closure operations, so the fixpoint
    exists and is reached in finitely many passes.
    """
    sys = model.sys
    ideal = {e: frozenset(seed.get(e, sys.space)) & sys.space
             for e in model.entries()}
    changed = True
    while changed:
        changed = False

        def shrink(key, value):
            nonlocal changed
            if not ideal[key] <= value:
                ideal[key] &= value
                changed = True

        for i in range(model.n):
            for j in range(i + 1):
                for k in range(j + 1):
                    shrink((i, k), ideal[(j, k)])
                    shrink((i, k), ideal[(i, j)])
        for i in range(model.n - 1):
            for j in range(i + 1):
                shrink((i, j), sys.image(ideal[(i + 1, j + 1)]))
                shrink((i + 1, j + 1), sys.preimage(ideal[(i, j)]))
    rep = validate_ideal(model, ideal)
    if not rep["ok"]:
        raise AssertionError(rep)
    return ideal


def extract_bigstar(model: TruncatedSemicrossed, ideal: dict) -> IdealSequence:
    """Corner ideals I_n = entry (n, 0); validated, then (bigstar) checked."""
    rep = validate_ideal(model, ideal)
    if not rep["ok"]:
        raise IdealClosureError(rep["failure"])
    corners = tuple(ideal[(i, 0)] for i in range(model.n))
    # (bigstar) is certified only on adjacent stored entries; the constant
    # continuation past the truncation edge is not the model's claim
    for n in range(model.n - 1):
        bad = (corners[n + 1] | model.sys.image(corners[n + 1])) - corners[n]
        if bad:
            raise AssertionError(f"(bigstar) fails at index {n}: "
                                 f"{sorted(bad, key=str)}")
    return IdealSequence(corners)


def shift_relation_check(model: TruncatedSemicrossed, ideal: dict) -> bool:
    """Entry (i, j) equals phi^(-j) of the corner entry (i-j, 0)."""
    return all(ideal[(i, j)] == model.sys.iterate(ideal[(i - j, 0)], -j)
               for (i, j) in model.entries())
