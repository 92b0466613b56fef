"""Tests for the batched attack engine."""

import random

import pytest

from repro.core.adversary import best_attack, damage
from repro.core.availability import evaluate_availability_grid
from repro.core.batch import (
    AttackCell,
    attack_cache_default,
    attack_cache_stats,
    attack_grid,
    batch_attack,
    clear_attack_caches,
    engine_cache_cap,
    engine_for,
    worker_count,
)
from repro.core.placement import Placement
from repro.core.random_placement import RandomStrategy
from repro.core.simple import SimpleStrategy


def random_placement(n, r, b, seed):
    return RandomStrategy(n, r).place(b, random.Random(seed))


class TestBatchAttack:
    def test_results_align_with_cells(self):
        placement = random_placement(12, 3, 40, 0)
        cells = [
            AttackCell(3, 2, "exact"),
            AttackCell(2, 1, "exact"),
            AttackCell(2, 2, "exact"),
        ]
        results = batch_attack(placement, cells)
        assert len(results) == 3
        for cell, attack in zip(cells, results):
            assert len(attack.nodes) == cell.k
            assert damage(placement, attack.nodes, cell.s) == attack.damage
            assert attack.exact

    def test_matches_unbatched_exact_search(self):
        placement = random_placement(11, 3, 35, 1)
        cells = [AttackCell(k, s, "exact") for s in (1, 2) for k in (2, 3)]
        batched = batch_attack(placement, cells)
        for cell, attack in zip(cells, batched):
            solo = best_attack(placement, cell.k, cell.s, effort="exact")
            assert attack.damage == solo.damage

    def test_incumbent_chaining_is_monotone(self):
        # More failures never kill fewer objects within one threshold group.
        placement = random_placement(20, 3, 120, 2)
        cells = [AttackCell(k, 2, "fast") for k in range(2, 7)]
        results = batch_attack(placement, cells)
        damages = [attack.damage for attack in results]
        assert damages == sorted(damages)

    def test_deterministic_replay(self):
        placement = random_placement(16, 3, 60, 3)
        cells = [AttackCell(k, s, "fast") for s in (1, 2) for k in (2, 3, 4)]
        first = batch_attack(placement, cells, seed=7)
        second = batch_attack(placement, cells, seed=7)
        assert first == second

    def test_empty_grid(self):
        placement = random_placement(8, 3, 10, 4)
        assert batch_attack(placement, []) == []

    def test_cell_validation(self):
        placement = random_placement(8, 3, 10, 5)
        with pytest.raises(ValueError):
            batch_attack(placement, [AttackCell(0, 2)])
        with pytest.raises(ValueError):
            batch_attack(placement, [AttackCell(2, 9)])
        with pytest.raises(ValueError):
            batch_attack(placement, [AttackCell(2, 2, "extreme")])

    def test_multiprocess_matches_serial(self):
        placement = random_placement(12, 3, 40, 6)
        cells = [AttackCell(k, s, "fast") for s in (1, 2, 3) for k in (2, 3)]
        serial = batch_attack(placement, cells, workers=1, seed=11)
        fanned = batch_attack(placement, cells, workers=2, seed=11)
        assert serial == fanned

    def test_single_threshold_grid_fans_out(self):
        # One s but many k: spare workers chunk the k-ladder; with exact
        # effort the results are identical to serial regardless.
        placement = random_placement(11, 3, 35, 9)
        cells = [AttackCell(k, 2, "exact") for k in (2, 3, 4, 5)]
        serial = batch_attack(placement, cells, workers=1, seed=5)
        fanned = batch_attack(placement, cells, workers=2, seed=5)
        assert [a.damage for a in serial] == [a.damage for a in fanned]
        assert all(a.exact for a in fanned)

    def test_backend_choice_does_not_change_results(
        self, monkeypatch, gain_backings
    ):
        placement = random_placement(12, 3, 40, 7)
        cells = [AttackCell(k, 2, "fast") for k in (2, 3, 4)]
        per_backing = []
        for backing in gain_backings:
            monkeypatch.setenv("REPRO_GAIN_BACKING", backing)
            per_backing.append(batch_attack(placement, cells, seed=3))
        assert len(per_backing) >= 2
        assert all(result == per_backing[0] for result in per_backing[1:])


class TestAttackGrid:
    def test_full_cartesian(self):
        placement = SimpleStrategy(13, 3, 1).place(26)
        grid = attack_grid(placement, k_values=(2, 3), s_values=(2, 3),
                           effort="exact")
        assert set(grid) == {(2, 2), (3, 2), (2, 3), (3, 3)}
        # Damage grows with k and shrinks with s.
        assert grid[(3, 2)].damage >= grid[(2, 2)].damage
        assert grid[(2, 3)].damage <= grid[(2, 2)].damage


class TestAvailabilityGrid:
    def test_reports_align(self):
        placement = random_placement(12, 3, 40, 8)
        cells = [AttackCell(3, 2, "exact"), AttackCell(2, 2, "exact")]
        reports = evaluate_availability_grid(placement, cells)
        assert [(r.k, r.s) for r in reports] == [(3, 2), (2, 2)]
        for report in reports:
            assert report.available + report.attack.damage == placement.b
            assert report.exact


class TestWarmEngine:
    """The persistent attack pipeline: engines cached per placement
    structure, attack results memoized per (cell, seed, warm chain)."""

    def setup_method(self):
        clear_attack_caches()

    def test_engine_shared_across_calls(self):
        placement = random_placement(12, 3, 40, 20)
        engine = engine_for(placement)
        assert engine_for(placement) is engine
        assert engine.kernel(2) is engine.kernel(2)

    def test_structurally_equal_placements_share_engine(self):
        placement = random_placement(12, 3, 40, 21)
        clone = Placement.from_dict(placement.to_dict())
        assert clone is not placement
        assert engine_for(clone) is engine_for(placement)

    def test_different_backends_get_different_engines(self, monkeypatch):
        # The cache holds one engine per (fingerprint, backing): switching
        # the backing back returns the engine built under it.
        placement = random_placement(12, 3, 40, 22)
        monkeypatch.setenv("REPRO_GAIN_BACKING", "python")
        python_engine = engine_for(placement)
        monkeypatch.setenv("REPRO_GAIN_BACKING", "bitset")
        bitset_engine = engine_for(placement)
        assert bitset_engine is not python_engine
        monkeypatch.setenv("REPRO_GAIN_BACKING", "python")
        assert engine_for(placement) is python_engine

    def test_gain_backing_pin_is_honoured_after_warmup(self, monkeypatch):
        # Re-pinning REPRO_GAIN_BACKING mid-process must not silently
        # reuse an engine (and kernels) built under the previous backing.
        placement = random_placement(12, 3, 40, 30)
        monkeypatch.setenv("REPRO_GAIN_BACKING", "bitset")
        warm = engine_for(placement)
        assert warm.kernel(2).backing == "bitset"
        monkeypatch.setenv("REPRO_GAIN_BACKING", "python")
        pinned = engine_for(placement)
        assert pinned is not warm
        assert pinned.kernel(2).backing == "python"

    def test_repeat_grid_served_from_memo(self):
        placement = random_placement(14, 3, 50, 23)
        cells = [AttackCell(k, 2, "fast") for k in (2, 3, 4)]
        first = batch_attack(placement, cells, seed=9)
        before = attack_cache_stats()
        second = batch_attack(placement, cells, seed=9)
        after = attack_cache_stats()
        assert second == first
        assert after["hits"] - before["hits"] == len(cells)
        assert after["misses"] == before["misses"]

    def test_memo_keyed_on_seed_and_cell(self):
        placement = random_placement(14, 3, 50, 24)
        cells = [AttackCell(3, 2, "fast")]
        batch_attack(placement, cells, seed=1)
        before = attack_cache_stats()
        batch_attack(placement, cells, seed=2)  # different derived rng
        batch_attack(placement, [AttackCell(3, 2, "exact")], seed=1)
        assert attack_cache_stats()["hits"] == before["hits"]

    def test_cache_argument_disables_memo(self):
        placement = random_placement(14, 3, 50, 25)
        cells = [AttackCell(3, 2, "fast")]
        baseline = batch_attack(placement, cells, seed=4)
        before = attack_cache_stats()
        repeat = batch_attack(placement, cells, seed=4, cache=False)
        after = attack_cache_stats()
        assert repeat == baseline  # same derived rng, just recomputed
        assert after == before

    def test_cache_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_ATTACK_CACHE", "0")
        assert not attack_cache_default()
        placement = random_placement(14, 3, 50, 26)
        cells = [AttackCell(3, 2, "fast")]
        batch_attack(placement, cells, seed=5)
        before = attack_cache_stats()
        batch_attack(placement, cells, seed=5)
        assert attack_cache_stats() == before
        monkeypatch.setenv("REPRO_ATTACK_CACHE", "sometimes")
        with pytest.raises(ValueError):
            attack_cache_default()

    def test_caller_rng_bypasses_memo(self):
        placement = random_placement(14, 3, 50, 27)
        cells = [AttackCell(3, 2, "fast")]
        first = batch_attack(placement, cells, rng=random.Random(0))
        before = attack_cache_stats()
        second = batch_attack(placement, cells, rng=random.Random(0))
        after = attack_cache_stats()
        assert second == first  # identical generator state, recomputed
        assert after["hits"] == before["hits"]

    def test_multiprocess_results_adopted_into_parent_memo(self):
        # Worker-computed attacks land in the parent's memo, so repeating
        # a fanned-out grid is served locally without re-spawning a pool.
        placement = random_placement(14, 3, 50, 29)
        cells = [AttackCell(k, s, "fast") for s in (1, 2) for k in (2, 3)]
        first = batch_attack(placement, cells, workers=2, seed=8)
        before = attack_cache_stats()
        second = batch_attack(placement, cells, workers=2, seed=8)
        assert second == first
        assert attack_cache_stats()["hits"] - before["hits"] == len(cells)

    def test_memoized_results_match_fresh_engine(self):
        placement = random_placement(14, 3, 50, 28)
        cells = [AttackCell(k, s, "fast") for s in (1, 2) for k in (2, 3)]
        warm = batch_attack(placement, cells, seed=6)
        warm_again = batch_attack(placement, cells, seed=6)
        clear_attack_caches()
        cold = batch_attack(placement, cells, seed=6)
        assert warm == warm_again == cold


class TestEngineCacheCap:
    def setup_method(self):
        clear_attack_caches()

    def test_env_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE_CACHE", raising=False)
        assert engine_cache_cap() == 8
        monkeypatch.setenv("REPRO_ENGINE_CACHE", "3")
        assert engine_cache_cap() == 3
        monkeypatch.setenv("REPRO_ENGINE_CACHE", "0")
        with pytest.raises(ValueError, match="REPRO_ENGINE_CACHE"):
            engine_cache_cap()
        monkeypatch.setenv("REPRO_ENGINE_CACHE", "many")
        with pytest.raises(ValueError, match="REPRO_ENGINE_CACHE"):
            engine_cache_cap()

    def test_lru_eviction_detaches_the_oldest_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_CACHE", "2")
        oldest = engine_for(random_placement(10, 3, 20, 40))
        engine_for(random_placement(10, 3, 22, 41))
        assert attack_cache_stats()["engines"] == 2
        engine_for(random_placement(10, 3, 24, 42))  # evicts `oldest`
        assert attack_cache_stats()["engines"] == 2
        # A detached engine is gone for good: the same structure now
        # cold-builds a fresh engine instead of resurrecting the old one.
        assert engine_for(oldest.placement) is not oldest

    def test_cache_hit_refreshes_recency(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_CACHE", "2")
        keep = random_placement(10, 3, 20, 43)
        warm = engine_for(keep)
        engine_for(random_placement(10, 3, 22, 44))
        engine_for(keep)  # refresh: `keep` is now most-recent
        engine_for(random_placement(10, 3, 24, 45))  # evicts the middle one
        assert engine_for(keep) is warm


class TestWorkerKnob:
    def test_env_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert worker_count() == 1
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert worker_count() == 4
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ValueError):
            worker_count()
