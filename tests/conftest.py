"""Shared fixtures: the enumerated crossed-product system family."""
import itertools

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


def family_systems():
    """Deterministic family of (shape, group, action) triples, >= 40 systems."""
    systems = []
    for shape in BASES:
        for orders in GROUPS:
            group = C.FiniteAbelianGroup(orders)
            per_gen = []
            for d in orders:
                diags = _diag_options(shape, group.exponent, d)
                perms = [tuple(range(len(shape)))]
                if shape == (2, 2) and d % 2 == 0:
                    perms.append((1, 0))
                per_gen.append([(p, dg) for p in perms for dg in diags])
            kept = 0
            for gens in itertools.product(*per_gen):
                if kept == MAX_PER_CELL:
                    break
                try:
                    action = C.LevelAction(group, shape, list(gens))
                except C.ActionRelationError:
                    continue  # e.g. a swap composed with an asymmetric twist
                systems.append((shape, group, action))
                kept += 1
    return systems


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
