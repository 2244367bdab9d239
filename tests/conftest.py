"""Shared fixtures: the enumerated crossed-product system family, and
seeded random ballot words."""
import itertools
import random
from bisect import bisect_left, insort

import pytest

from limitalg import crossed as C

BASES = [(2,), (3,), (2, 2)]
GROUPS = [(), (2,), (3,), (2, 2)]
MAX_PER_CELL = 10


def _diag_options(shape, m, d):
    """Diagonal zeta-exponent vectors of order dividing d, up to scalars."""
    step = m // d
    per_summand = []
    for k in shape:
        per_summand.append([(0,) + rest
                            for rest in itertools.product((0, step),
                                                          repeat=k - 1)])
    return [tuple(combo) for combo in itertools.product(*per_summand)]


def candidate_gens(shape, group):
    """Every generator list offered for (shape, group), relations unchecked.

    Each generator twists by a diagonal option of its factor's order;
    the summand reversal is offered too on a base of equal summands when
    the factor's order is even.
    """
    per_gen = []
    for d in group.orders:
        diags = _diag_options(shape, group.exponent, d)
        perms = [tuple(range(len(shape)))]
        if len(shape) > 1 and len(set(shape)) == 1 and d % 2 == 0:
            perms.append(tuple(reversed(range(len(shape)))))
        per_gen.append([(p, dg) for p in perms for dg in diags])
    return [list(gens) for gens in itertools.product(*per_gen)]


def family_gens(bases=BASES):
    """(shape, group, gens) of the family: at most MAX_PER_CELL generator
    lists per (base, group) cell that satisfy the group's relations."""
    systems = []
    for shape in bases:
        for orders in GROUPS:
            group = C.FiniteAbelianGroup(orders)
            kept = 0
            for gens in candidate_gens(shape, group):
                if kept == MAX_PER_CELL:
                    break
                try:
                    C.LevelAction(group, shape, gens)
                except C.ActionRelationError:
                    continue  # e.g. a swap composed with an asymmetric twist
                systems.append((shape, group, gens))
                kept += 1
    return systems


def family_systems():
    """Deterministic family of (shape, group, action) triples, >= 40 systems."""
    return [(shape, group, C.LevelAction(group, shape, gens))
            for shape, group, gens in family_gens()]


@pytest.fixture(scope="session")
def family():
    systems = family_systems()
    assert len(systems) >= 40
    return systems


@pytest.fixture(scope="session")
def family_algebras(family):
    """Built crossed algebras, radical cached."""
    return [(shape, group, action,
             C.build_crossed(shape, group, action, triangular=True))
            for shape, group, action in family]


def random_lattice_word(source: tuple[int, ...], reps_per_source: dict[int, int],
                        rng: random.Random) -> tuple[tuple[int, int], ...]:
    """Uniform-ish random word satisfying COUNT and LATTICE.

    Greedy sampling: at every step pick any label whose ballot constraint
    still allows it, by `rng.choice` from the sorted list of allowed
    labels.  Placing (s, p) changes that list by at most two labels: (s, p)
    leaves it when its copies run out or it catches up with (s, p-1), and
    (s, p+1) joins it when it falls behind (s, p).  So the list is kept up
    to date by bisection instead of being rebuilt, in O(n log n) for an
    n-label word.
    """
    reps = reps_per_source
    used = {(s, p): 0 for s in range(len(source))
            for p in range(1, source[s] + 1)}
    options = [lab for lab in used if lab[1] == 1 and reps[lab[0]] > 0]
    word = []
    for _ in range(sum(reps[s] * source[s] for s in range(len(source)))):
        lab = rng.choice(options)
        word.append(lab)
        s, p = lab
        used[lab] += 1
        if used[lab] == reps[s] or (p > 1 and used[s, p - 1] == used[lab]):
            del options[bisect_left(options, lab)]
        if p < source[s] and used[s, p + 1] == used[lab] - 1:
            insort(options, (s, p + 1))
    return tuple(word)
