"""Gauge-invariant ideal parametrization, cross-checked by brute force."""
import gc
import itertools
import random
import weakref

import pytest

from limitalg.peters import (FiniteDynSys, IdealClosureError,
                             SubsetSequence, TruncatedSemicrossed, check_bigstar,
                             check_star, enumerate_sequences, extract_bigstar,
                             ideal_from_sequence, ideals_to_sets,
                             invariant_closure, lattice_join, lattice_meet,
                             random_sequence, recurrent_dense,
                             sets_to_ideals, shift_relation_check,
                             validate_ideal)


def point():
    return FiniteDynSys((1,), {1: 1})


def two_id():
    return FiniteDynSys((1, 2), {1: 1, 2: 2})


def swap():
    return FiniteDynSys((1, 2), {1: 2, 2: 1})


def cycle3():
    return FiniteDynSys((1, 2, 3), {1: 2, 2: 3, 3: 1})


def brute_force_sequences(sys, horizon):
    """Oracle: filter all subset tuples by (star) and an invariant tail."""
    subsets = [frozenset(c) for r in range(len(sys.points) + 1)
               for c in itertools.combinations(sys.points, r)]
    out = set()
    for combo in itertools.product(subsets, repeat=horizon + 1):
        if any(not (combo[n + 1] | sys.image(combo[n + 1])) <= combo[n]
               for n in range(horizon)):
            continue
        if sys.image(combo[-1]) != combo[-1]:
            continue
        out.add(SubsetSequence(combo))
    return out


def frozenset_enumeration(sys, horizon):
    """Reference: the enumerator before masks, one frozenset per prefix."""
    out = set()

    def subsets(s):
        items = sorted(s, key=str)
        for r in range(len(items) + 1):
            for c in itertools.combinations(items, r):
                yield frozenset(c)

    todo = [[x0] for x0 in subsets(sys.space)]
    while todo:
        prefix = todo.pop()
        if len(prefix) == horizon + 1:
            tail = prefix[-1]
            if sys.image(tail) == tail:
                out.add(SubsetSequence(tuple(prefix)))
            continue
        allowed = prefix[-1] & sys.preimage(prefix[-1])
        todo.extend(prefix + [nxt] for nxt in subsets(allowed))
    return sorted(out, key=lambda q: (len(q.sets),
                                      [sorted(s, key=str) for s in q.sets]))


def random_permutation(points, rng):
    images = list(points)
    rng.shuffle(images)
    return FiniteDynSys(points, dict(zip(points, images)))


def cycle_type_system(points, lengths):
    """Consecutive runs of `points` as cycles of the given lengths."""
    phi, start = {}, 0
    for length in lengths:
        cycle = points[start:start + length]
        phi.update(zip(cycle, cycle[1:] + cycle[:1]))
        start += length
    return FiniteDynSys(points, phi)


class TestDynSys:
    def test_iterate_and_inverse(self):
        s = cycle3()
        assert s.image({1}) == frozenset({2})
        assert s.preimage({1}) == frozenset({3})
        assert s.iterate({1}, 3) == frozenset({1})
        assert s.iterate({1}, -2) == frozenset({2})

    def test_phi_must_be_a_bijection(self):
        with pytest.raises(ValueError, match="phi must be a bijection"):
            FiniteDynSys((1, 2), {1: 1, 2: 1})

    def test_points_and_domain_are_checked(self):
        with pytest.raises(ValueError, match="points must be distinct"):
            FiniteDynSys((1, 1), {1: 1})
        with pytest.raises(ValueError, match="phi must be defined on X"):
            FiniteDynSys((1, 2), {1: 2})

    def test_permutations_have_dense_recurrence(self):
        for s in (point(), two_id(), swap(), cycle3()):
            assert recurrent_dense(s)


class TestStarDuality:
    def test_star_witness(self):
        s = swap()
        seq = SubsetSequence((frozenset({1}), frozenset({1})))
        rep = check_star(s, seq)
        # phi(X_1) = {2} is not inside X_0 = {1}
        assert not rep["ok"] and rep["witness"] == [2]

    def test_star_iff_bigstar(self):
        rng = random.Random(5)
        s = cycle3()
        subsets = [frozenset(c) for r in range(4)
                   for c in itertools.combinations(s.points, r)]
        for _ in range(200):
            sets = tuple(rng.choice(subsets) for _ in range(3))
            seq = SubsetSequence(sets)
            iseq = sets_to_ideals(seq)
            assert check_star(s, seq)["ok"] == check_bigstar(s, iseq)["ok"]
            assert ideals_to_sets(iseq) == seq


class TestEnumeration:
    def test_singleton_count_is_horizon_plus_two(self):
        for h in range(5):
            assert len(enumerate_sequences(point(), h)) == h + 2

    def test_two_point_identity_horizon_one(self):
        assert len(enumerate_sequences(two_id(), 1)) == 9

    def test_swap_horizon_zero(self):
        seqs = enumerate_sequences(swap(), 0)
        assert len(seqs) == 2
        assert {q.sets[0] for q in seqs} == {frozenset(), frozenset({1, 2})}

    def test_counts_match_brute_force(self):
        for s, h in ((swap(), 2), (two_id(), 2), (cycle3(), 1), (point(), 3)):
            fast = enumerate_sequences(s, h)
            assert set(fast) == brute_force_sequences(s, h)
            assert len(set(fast)) == len(fast)

    def test_matches_the_frozenset_enumerator_on_small_systems(self):
        rng = random.Random(15)
        for size in range(6):
            for _ in range(3):
                points = rng.sample("abcdefgh", size)
                s = random_permutation(points, rng)
                for h in range(4):
                    assert enumerate_sequences(s, h) == \
                        frozenset_enumeration(s, h), (points, s.phi, h)

    def test_matches_the_frozenset_enumerator_on_int_points(self):
        # str order (1, 10, 11, 12, 2, ...) is not numeric order, and the
        # canonical order compares the points themselves
        rng = random.Random(16)
        for lengths in ((12,), (5, 4, 3), (2, 2, 2, 2, 2, 1, 1)):
            points = list(range(1, 13))
            rng.shuffle(points)
            s = cycle_type_system(points, lengths)
            for h in (0, 1):
                assert enumerate_sequences(s, h) == \
                    frozenset_enumeration(s, h), (lengths, h)

    @pytest.mark.parametrize("lengths", [(2, 1, 1), (2, 2, 1), (3, 2, 1),
                                         (3, 2, 1, 1)])
    def test_matches_the_frozenset_enumerator_on_cycle_types(self, lengths):
        rng = random.Random(f"cycle-type:{lengths}")
        points = [f"x{i}" for i in range(sum(lengths))]
        rng.shuffle(points)
        s = cycle_type_system(points, lengths)
        assert enumerate_sequences(s, 2) == frozenset_enumeration(s, 2)

    def test_results_share_one_frozenset_per_set(self):
        seqs = enumerate_sequences(cycle3(), 2)
        sets = {}
        for q in seqs:
            for x in q.sets:
                assert sets.setdefault(x, x) is x

    def test_results_are_freed_without_the_cyclic_collector(self):
        # reference counting alone must release an enumeration's sequences
        gc.disable()
        try:
            seqs = enumerate_sequences(cycle3(), 2)
            probe = weakref.ref(seqs[-1])
            del seqs
            assert probe() is None
        finally:
            gc.enable()


class TestLatticeOps:
    def test_meet_and_join_stay_in_class(self):
        rng = random.Random(11)
        s = cycle3()
        for _ in range(100):
            a = random_sequence(s, 3, rng)
            b = random_sequence(s, 3, rng)
            assert check_star(s, a)["ok"] and check_star(s, b)["ok"]
            m = lattice_meet(s, a, b)
            j = lattice_join(s, a, b)
            for n in range(5):
                assert m.at(n) == a.at(n) & b.at(n)
                assert j.at(n) == a.at(n) | b.at(n)


class TestTruncatedModel:
    def test_sequence_to_ideal_roundtrip(self):
        rng = random.Random(3)
        s = cycle3()
        for _ in range(100):
            seq = random_sequence(s, 2, rng)
            model = TruncatedSemicrossed(s, seq.stabilization + 2)
            ideal = ideal_from_sequence(model, seq)
            assert shift_relation_check(model, ideal)
            back = ideals_to_sets(extract_bigstar(model, ideal))
            assert back == seq

    def test_distinct_sequences_give_distinct_ideals(self):
        s = two_id()
        seqs = enumerate_sequences(s, 2)
        n = max(q.stabilization for q in seqs) + 2
        model = TruncatedSemicrossed(s, n)
        ideals = [tuple(sorted(ideal_from_sequence(model, q).items()))
                  for q in seqs]
        assert len(set(ideals)) == len(seqs)

    def test_validate_ideal_diagnostics(self):
        s = swap()
        model = TruncatedSemicrossed(s, 3)
        good = ideal_from_sequence(
            model, SubsetSequence((s.space, frozenset({1}), frozenset())))
        bad = dict(good)
        bad[(2, 1)] = s.space  # breaks the shift relation at (1, 0)
        rep = validate_ideal(model, bad)
        assert not rep["ok"] and "shift relation" in rep["failure"]
        with pytest.raises(IdealClosureError):
            extract_bigstar(model, bad)
        assert not validate_ideal(model, {(0, 0): s.space})["ok"]

    def test_invariant_closure_corners_satisfy_bigstar(self):
        s = cycle3()
        model = TruncatedSemicrossed(s, 6)
        # seed: kill functions supported off {1} in one deep corner entry
        seed = {(4, 0): frozenset({1})}
        ideal = invariant_closure(model, seed)
        iseq = extract_bigstar(model, ideal)
        corners = [ideal[(i, 0)] for i in range(model.n)]
        for n in range(model.n - 1):
            assert corners[n + 1] | s.image(corners[n + 1]) <= corners[n]
        assert ideal[(4, 0)] <= frozenset({1})
        assert iseq.at(0) == s.space

    def test_full_and_zero_ideals(self):
        s = swap()
        model = TruncatedSemicrossed(s, 3)
        assert validate_ideal(model, model.full_ideal())["ok"]
        assert validate_ideal(model, model.zero_ideal())["ok"]

    @pytest.mark.parametrize("n", [0, -2])
    def test_empty_model_is_rejected(self, n):
        with pytest.raises(ValueError, match="matrix size must be at least 1"):
            TruncatedSemicrossed(swap(), n)
