"""Tests for the delta-aware attack engine and mutable incidence.

The contract under test: an engine that absorbed any interleaved sequence
of object arrivals/departures via ``apply_delta`` is indistinguishable —
bit-for-bit, ``AttackResult`` equality including evaluation counts — from
an engine built cold from the resulting placement, across every gain
backing available in this environment.
"""

import random

import pytest

from repro.core.batch import (
    AttackCell,
    AttackEngine,
    clear_attack_caches,
    engine_for,
)
from repro.core.kernels import (
    DeltaIncidence,
    GAIN_BACKINGS,
    Incidence,
    resolve_gain_backing,
)
from repro.core.placement import Placement
from repro.core.random_placement import RandomStrategy


def random_placement(n, r, b, seed):
    return RandomStrategy(n, r).place(b, random.Random(seed))


def available_gain_backings():
    available = []
    for backing in GAIN_BACKINGS:
        try:
            resolve_gain_backing(backing)
        except ValueError:
            continue
        available.append(backing)
    return available


def random_delta(rng, engine_b, n, r):
    """One random churn batch: (added replica sets, removed ids)."""
    added = [
        sorted(rng.sample(range(n), r)) for _ in range(rng.randrange(0, 3))
    ]
    removable = max(0, engine_b - 4)
    removed = (
        rng.sample(range(engine_b), min(removable, rng.randrange(0, 3)))
        if removable else []
    )
    return added, removed


class TestDeltaIncidence:
    def test_matches_cold_incidence_after_interleaved_deltas(self):
        rng = random.Random(11)
        placement = random_placement(12, 3, 30, 0)
        delta = DeltaIncidence(placement)
        for _ in range(40):
            added, removed = random_delta(rng, delta.b, 12, 3)
            if not added and not removed:
                continue
            current = delta.apply_delta(added, removed)
            cold = Incidence(current)
            assert delta.node_masks() == cold.node_masks()
            assert [sorted(row) for row in delta.node_objects()] == [
                sorted(row) for row in cold.node_objects()
            ]
            assert list(delta.object_nodes()) == list(cold.object_nodes())
            assert delta.suffix_counts() == cold.suffix_counts()
            assert delta.suffix_flat() == cold.suffix_flat()
            assert current.load_profile() == tuple(
                Placement.from_replica_sets(
                    current.n, current.replica_sets
                ).load_profile()
            )

    def _assert_csr_equivalent(self, delta, cold):
        """Padded delta export == tight cold export on the live region."""
        b, r, n = delta.b, delta.r, delta.n
        d_off, d_end, d_store, d_oo, d_on = delta.csr()
        c_off, c_end, c_store, c_oo, c_on = cold.csr()
        assert list(d_oo[:b + 1]) == list(c_oo[:b + 1])
        assert list(d_on[:b * r]) == list(c_on[:b * r])
        # Node-major object order may differ after swaps; contents may not.
        for node in range(n):
            assert sorted(d_store[d_off[node]:d_end[node]]) == sorted(
                c_store[c_off[node]:c_end[node]]
            )

    def test_csr_matches_cold_export(self):
        placement = random_placement(9, 3, 20, 1)
        delta = DeltaIncidence(placement)
        delta.apply_delta(added=[[0, 1, 2]], removed=[3, 15])
        self._assert_csr_equivalent(delta, Incidence(delta.placement))

    def test_csr_is_maintained_in_place_until_overflow(self):
        rng = random.Random(31)
        placement = random_placement(9, 3, 12, 4)
        delta = DeltaIncidence(placement)
        exported = delta.csr()
        grew = False
        for _ in range(60):
            added, removed = random_delta(rng, delta.b, 9, 3)
            if not added and not removed:
                continue
            delta.apply_delta(added, removed)
            self._assert_csr_equivalent(delta, Incidence(delta.placement))
            grew = grew or delta.csr() is not exported
        # Sustained growth must eventually overflow the slack and force a
        # (correct) re-export with fresh capacity.
        assert grew

    def test_swap_with_last_semantics(self):
        placement = Placement.from_replica_sets(
            6, [[0, 1], [1, 2], [2, 3], [3, 4]]
        )
        delta = DeltaIncidence(placement)
        current = delta.apply_delta(removed=[1])
        # Object 3 (the last) moved into slot 1.
        assert current.replica_sets == (
            frozenset({0, 1}), frozenset({3, 4}), frozenset({2, 3})
        )

    def test_removing_the_last_object_pops(self):
        placement = Placement.from_replica_sets(6, [[0, 1], [1, 2], [2, 3]])
        delta = DeltaIncidence(placement)
        current = delta.apply_delta(removed=[2])
        assert current.replica_sets == (frozenset({0, 1}), frozenset({1, 2}))

    def test_validation(self):
        placement = Placement.from_replica_sets(6, [[0, 1], [1, 2]])
        delta = DeltaIncidence(placement)
        with pytest.raises(ValueError):
            delta.apply_delta(added=[[0]])  # wrong r
        with pytest.raises(ValueError):
            delta.apply_delta(added=[[0, 0]])  # duplicate node
        with pytest.raises(ValueError):
            delta.apply_delta(added=[[0, 9]])  # out of range
        with pytest.raises(ValueError):
            delta.apply_delta(removed=[5])  # unknown id
        with pytest.raises(ValueError):
            delta.apply_delta(removed=[0, 0])  # duplicate removal
        with pytest.raises(ValueError):
            delta.apply_delta(removed=[0, 1])  # would empty the placement


@pytest.mark.parametrize(
    "backing", available_gain_backings(), ids=lambda backing: f"gain-{backing}"
)
class TestDeltaEngineBitForBit:
    """Delta-updated engines pinned against cold-built ones."""

    def test_interleaved_churn_and_attacks(self, backing):
        rng = random.Random(202)
        placement = random_placement(13, 3, 36, 2)
        engine = AttackEngine(placement, gain_backing=backing)
        attacks = 0
        for step in range(36):
            added, removed = random_delta(rng, engine.placement.b, 13, 3)
            if added or removed:
                engine.apply_delta(
                    added_objects=added, removed_objects=removed
                )
            if step % 3 == 2:
                k = rng.choice((2, 3))
                s = rng.choice((1, 2))
                effort = "exact" if step % 6 == 5 else "fast"
                cell = AttackCell(k, s, effort)
                cold = AttackEngine(engine.placement, gain_backing=backing)
                assert engine.attack(cell, seed=9) == cold.attack(cell, seed=9)
                attacks += 1
        assert attacks >= 10

    def test_interleaved_churn_and_lane_attacks(self, backing):
        # Lane clones must snapshot the *current* (delta-rebound) packed
        # state, not the cold build — churn that changes b resizes the
        # state block, so a stale lane replica would read garbage. Every
        # lane-parallel attack after churn must match a cold engine
        # attacked serially.
        rng = random.Random(404)
        placement = random_placement(13, 3, 32, 9)
        engine = AttackEngine(placement, gain_backing=backing)
        attacks = 0
        for step in range(24):
            added, removed = random_delta(rng, engine.placement.b, 13, 3)
            if added or removed:
                engine.apply_delta(
                    added_objects=added, removed_objects=removed
                )
            if step % 3 == 2:
                cell = AttackCell(rng.choice((2, 3)), rng.choice((1, 2)), "fast")
                cold = AttackEngine(engine.placement, gain_backing=backing)
                assert engine.attack(
                    cell, seed=9, cache=False, lanes=2
                ) == cold.attack(cell, seed=9, cache=False, lanes=1)
                attacks += 1
        assert attacks >= 6

    def test_warm_chain_matches_cold(self, backing):
        placement = random_placement(12, 3, 30, 3)
        engine = AttackEngine(placement, gain_backing=backing)
        engine.apply_delta(added_objects=[[0, 1, 2], [4, 5, 6]],
                           removed_objects=[1, 8])
        cold = AttackEngine(engine.placement, gain_backing=backing)
        warm = None
        for k in (2, 3, 4):
            cell = AttackCell(k, 2, "fast")
            mine = engine.attack(cell, seed=4, warm_start=warm)
            assert mine == cold.attack(cell, seed=4, warm_start=warm)
            warm = mine.nodes


class TestDeltaEngineLifecycle:
    def setup_method(self):
        clear_attack_caches()

    def test_memo_cleared_on_delta(self):
        placement = random_placement(12, 3, 30, 5)
        engine = AttackEngine(placement)
        cell = AttackCell(3, 2, "fast")
        before = engine.attack(cell, seed=1)
        engine.apply_delta(added_objects=[[0, 1, 2]] * 4)
        after = engine.attack(cell, seed=1)
        # Same key, different structure: the memo cannot serve stale data.
        assert after.damage >= before.damage
        assert engine.placement.b == placement.b + 4
        cold = AttackEngine(engine.placement)
        assert after == cold.attack(cell, seed=1)

    def test_mutated_engine_detaches_from_process_cache(self):
        placement = random_placement(12, 3, 30, 6)
        warm = engine_for(placement)
        warm.apply_delta(added_objects=[[1, 2, 3]])
        fresh = engine_for(placement)
        assert fresh is not warm
        assert fresh.placement.b == placement.b

    def test_kernels_survive_deltas_when_rebindable(self):
        placement = random_placement(12, 3, 30, 7)
        engine = AttackEngine(placement, gain_backing="python")
        engine.apply_delta(added_objects=[[2, 3, 4]])  # upgrade drops kernels
        kernel = engine.kernel(2)
        engine.apply_delta(added_objects=[[5, 6, 7]], removed_objects=[0])
        assert engine.kernel(2) is kernel  # absorbed in place
        assert kernel.b == engine.placement.b

    def test_delta_engine_attack_grid_spans_thresholds(self):
        placement = random_placement(11, 3, 28, 8)
        engine = AttackEngine(placement)
        engine.apply_delta(added_objects=[[0, 1, 2]], removed_objects=[2])
        for s in (1, 2, 3):
            cold = AttackEngine(engine.placement)
            cell = AttackCell(2, s, "exact")
            assert engine.attack(cell, seed=0) == cold.attack(cell, seed=0)
