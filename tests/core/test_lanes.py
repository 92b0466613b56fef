"""Bit-identity tests for replicated gain-state polish lanes.

Lanes are the one in-process parallel layer: ``polish_chains`` runs
each chain on a private clone of the bound kernel's packed state (the
native backing on one short-lived thread per lane), so the full
local-search certificate — ``AttackResult`` equality including
evaluation counts — is identical at every lane count, on every gain
backing, and the parent engine's own packed state is never touched.
Lanes are a pure scheduling knob; these tests pin that down:

* the {lanes} x {backing} matrix against a serial baseline, under
  explicit and pinned budgets, including ``warm_start``, the
  ``restarts=0`` edge case and ``apply_delta`` churn;
* a packed-state byte comparison (the engine-state wire format) proving
  lanes never mutate the parent kernel or its live hits objects;
* the lane-budget knobs themselves (``REPRO_ATTACK_LANES`` parsing,
  configure/restore, argument > pin > env precedence) and the one
  budget that process fan-out splits across its workers.
"""

import os
import random
from contextlib import contextmanager

import pytest

from repro.analysis import fig2
from repro.core import adversary, native
from repro.core.adversary import (
    LocalSearchAdversary,
    attack_lanes,
    configure_lanes,
    configured_lanes,
    worker_lanes,
)
from repro.core.batch import (
    AttackCell,
    AttackEngine,
    batch_attack,
    clear_attack_caches,
)
from repro.core.kernels import GAIN_BACKINGS, make_kernel, numpy_available
from repro.core.random_placement import RandomStrategy
from repro.exp.runner import run_experiment

LANE_COUNTS = (1, 2, 4)
PINNED_LANES = (1, 2)


def available_gain_backings():
    return [
        backing
        for backing in GAIN_BACKINGS
        if (backing != "numpy" or numpy_available())
        and (backing != "native" or native.available())
    ]


def random_placement(n, r, b, seed):
    return RandomStrategy(n, r).place(b, random.Random(seed))


@contextmanager
def pinned_lanes(count):
    previous = configured_lanes()
    configure_lanes(count)
    try:
        yield
    finally:
        configure_lanes(previous)


class TestLaneBitIdentity:
    """Certificates pinned byte-for-byte against the serial path."""

    @pytest.mark.parametrize("backing", available_gain_backings())
    @pytest.mark.parametrize("pinned", PINNED_LANES)
    def test_matrix_matches_serial(self, backing, pinned):
        # Explicit lane counts, and the pinned default a sharded worker
        # runs with, all reproduce the serial certificate.
        placement = random_placement(14, 3, 42, 7)
        kernel = make_kernel(placement, 2, gain_backing=backing)
        baseline = LocalSearchAdversary(restarts=6, lanes=1).attack(
            placement, 3, 2, kernel=kernel
        )
        with pinned_lanes(pinned):
            result = LocalSearchAdversary(restarts=6).attack(
                placement, 3, 2, kernel=kernel
            )
            assert result == baseline
            for lanes in LANE_COUNTS[1:]:
                result = LocalSearchAdversary(restarts=6, lanes=lanes).attack(
                    placement, 3, 2, kernel=kernel
                )
                assert result == baseline

    @pytest.mark.parametrize("backing", available_gain_backings())
    def test_warm_start_matches_serial(self, backing):
        placement = random_placement(12, 3, 36, 3)
        kernel = make_kernel(placement, 2, gain_backing=backing)
        warm = (0, 5)
        baseline = LocalSearchAdversary(restarts=4, lanes=1).attack(
            placement, 3, 2, kernel=kernel, warm_start=warm
        )
        for lanes in LANE_COUNTS[1:]:
            result = LocalSearchAdversary(restarts=4, lanes=lanes).attack(
                placement, 3, 2, kernel=kernel, warm_start=warm
            )
            assert result == baseline

    @pytest.mark.parametrize("backing", available_gain_backings())
    def test_restarts_zero_edge_case(self, backing):
        # One chain (the greedy polish) cannot fill two lanes; width must
        # clamp without changing the certificate.
        placement = random_placement(11, 3, 30, 9)
        kernel = make_kernel(placement, 2, gain_backing=backing)
        baseline = LocalSearchAdversary(restarts=0, lanes=1).attack(
            placement, 3, 2, kernel=kernel
        )
        for lanes in LANE_COUNTS[1:]:
            result = LocalSearchAdversary(restarts=0, lanes=lanes).attack(
                placement, 3, 2, kernel=kernel
            )
            assert result == baseline

    def test_engine_attack_lane_argument(self):
        placement = random_placement(13, 3, 40, 5)
        cell = AttackCell(3, 2, "fast")
        engines = {
            lanes: AttackEngine(placement) for lanes in LANE_COUNTS
        }
        results = {
            lanes: engine.attack(cell, seed=2, cache=False, lanes=lanes)
            for lanes, engine in engines.items()
        }
        assert results[2] == results[1]
        assert results[4] == results[1]


class TestDeltaChurnInvariance:
    """Engines under apply_delta churn agree at every lane count."""

    def _churn(self, backing, lanes):
        placement = random_placement(8, 2, 30, 5)
        engine = AttackEngine(placement, gain_backing=backing)
        out = [engine.attack(AttackCell(2, 2), cache=False, lanes=lanes)]
        engine.apply_delta(
            added_objects=[(0, 1), (2, 3), (5, 7)], removed_objects=[0]
        )
        out.append(engine.attack(AttackCell(2, 2), cache=False, lanes=lanes))
        out.append(engine.attack(AttackCell(3, 1), cache=False, lanes=lanes))
        out.append(
            engine.attack(AttackCell(3, 2, "fast"), cache=False, lanes=lanes)
        )
        engine.apply_delta(removed_objects=[4, 1])
        out.append(engine.attack(AttackCell(2, 1), cache=False, lanes=lanes))
        return out

    def test_churned_results_identical_across_lanes(self):
        reference = None
        for backing in available_gain_backings():
            for lanes in LANE_COUNTS:
                out = self._churn(backing, lanes)
                if reference is None:
                    reference = out
                else:
                    assert out == reference, (backing, lanes)


class TestLanesNeverMutateParent:
    """Chains run on clones: the parent's packed state is untouched."""

    @pytest.mark.parametrize("backing", available_gain_backings())
    def test_packed_state_bytes_unchanged(self, backing):
        placement = random_placement(12, 3, 36, 4)
        kernel = make_kernel(placement, 2, gain_backing=backing)
        live = kernel.hits_for([1, 4])
        empty_before = kernel.export_state(kernel.empty_hits())
        live_before = kernel.export_state(live)
        rng = random.Random(17)
        seeds = [rng.sample(range(placement.n), 3) for _ in range(5)]
        kernel.polish_chains(seeds, lanes=4)
        assert kernel.export_state(kernel.empty_hits()) == empty_before
        assert kernel.export_state(live) == live_before

    def test_engine_state_survives_lane_attack(self):
        placement = random_placement(12, 3, 36, 6)
        engine = AttackEngine(placement)
        kernel = engine.kernel(2)
        before = kernel.export_state(kernel.empty_hits())
        engine.attack(AttackCell(3, 2, "fast"), seed=1, lanes=4, cache=False)
        assert kernel.export_state(kernel.empty_hits()) == before


class TestLaneChainAccounting:
    """polish_chains reports (nodes, damage, passes, swaps) identically."""

    @pytest.mark.parametrize("backing", available_gain_backings())
    def test_chain_tuples_match_across_lane_counts(self, backing):
        placement = random_placement(13, 3, 40, 8)
        kernel = make_kernel(placement, 2, gain_backing=backing)
        rng = random.Random(23)
        seeds = [rng.sample(range(placement.n), 4) for _ in range(6)]
        serial = kernel.polish_chains(seeds, lanes=1)
        for lanes in LANE_COUNTS[1:]:
            assert kernel.polish_chains(seeds, lanes=lanes) == serial

    @pytest.mark.parametrize("backing", available_gain_backings())
    def test_backings_agree_on_chain_tuples(self, backing):
        placement = random_placement(11, 3, 30, 2)
        reference = make_kernel(placement, 2, gain_backing="python")
        kernel = make_kernel(placement, 2, gain_backing=backing)
        rng = random.Random(5)
        seeds = [rng.sample(range(placement.n), 3) for _ in range(4)]
        assert kernel.polish_chains(seeds, lanes=2) == reference.polish_chains(
            seeds, lanes=1
        )

    def test_mixed_seed_sizes_rejected_by_native(self):
        if not native.available():
            pytest.skip("native kernel unavailable")
        placement = random_placement(10, 3, 24, 1)
        kernel = make_kernel(placement, 2, gain_backing="native")
        with pytest.raises(ValueError):
            kernel.polish_chains([[0, 1], [2, 3, 4]], lanes=2)


class TestLaneBudgetKnobs:
    def test_argument_beats_pin_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ATTACK_LANES", "3")
        assert attack_lanes() == 3
        with pinned_lanes(2):
            assert attack_lanes() == 2
            assert attack_lanes(5) == 5
        assert attack_lanes() == 3

    def test_auto_follows_thread_budget(self, monkeypatch):
        # The lanes are the only threads, so auto is the cpu count.
        monkeypatch.setenv("REPRO_ATTACK_LANES", "auto")
        assert attack_lanes() == (os.cpu_count() or 1)
        monkeypatch.delenv("REPRO_ATTACK_LANES")
        assert attack_lanes() == (os.cpu_count() or 1)

    def test_env_garbage_rejected(self, monkeypatch):
        for garbage in ("warp", "0", "-3"):
            monkeypatch.setenv("REPRO_ATTACK_LANES", garbage)
            with pytest.raises(ValueError, match="REPRO_ATTACK_LANES"):
                attack_lanes()

    def test_validation(self):
        with pytest.raises(ValueError):
            configure_lanes(0)
        with pytest.raises(ValueError):
            attack_lanes(0)
        with pytest.raises(ValueError):
            LocalSearchAdversary(lanes=0)

    def test_configure_restores_with_none(self):
        configure_lanes(2)
        assert configured_lanes() == 2
        configure_lanes(None)
        assert configured_lanes() is None

    def test_worker_share_splits_the_budget(self, monkeypatch):
        monkeypatch.setenv("REPRO_ATTACK_LANES", "8")
        assert worker_lanes(2) == 4
        assert worker_lanes(3) == 2
        assert worker_lanes(16) == 1
        assert worker_lanes(2, requested=6) == 3
        with pinned_lanes(5):
            assert worker_lanes(2) == 2


@pytest.fixture
def worker_lane_log(monkeypatch, tmp_path):
    """Record the lane budget every attack resolves, per process.

    Fan-out here forks, so the patched resolver reaches the workers; the
    returned callable maps each worker pid (the parent excluded) to the
    set of budgets its attacks resolved.
    """
    log = tmp_path / "lanes.log"
    resolve = adversary.attack_lanes

    def recording(requested=None):
        lanes = resolve(requested)
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()} {lanes}\n")
        return lanes

    monkeypatch.setattr(adversary, "attack_lanes", recording)
    clear_attack_caches()

    def by_worker():
        seen = {}
        for line in log.read_text(encoding="utf-8").split("\n"):
            if line:
                pid, lanes = map(int, line.split())
                if pid != os.getpid():
                    seen.setdefault(pid, set()).add(lanes)
        return seen

    return by_worker


class TestOneLaneBudget:
    """Fan-out splits one lane budget, wherever it came from."""

    def test_env_budget_splits_across_batch_workers(
        self, monkeypatch, worker_lane_log
    ):
        monkeypatch.setenv("REPRO_ATTACK_LANES", "4")
        placement = random_placement(16, 3, 60, 11)
        cells = [AttackCell(k, s, "fast") for s in (2, 3) for k in (3, 4)]
        batch_attack(placement, cells, workers=2, cache=False)
        seen = worker_lane_log()
        assert len(seen) == 2
        assert all(lanes == {2} for lanes in seen.values()), seen

    def test_env_budget_splits_across_runner_workers(
        self, monkeypatch, worker_lane_log
    ):
        monkeypatch.setenv("REPRO_ATTACK_LANES", "4")
        spec = fig2.default_spec(b_values=(600, 1200), s_values=(2,), k_max=4)
        run_experiment(spec, workers=2)
        seen = worker_lane_log()
        assert seen
        assert all(lanes == {2} for lanes in seen.values()), seen

    def test_forked_batch_after_parent_lanes_matches_serial(self):
        # Lane threads live only inside one foreign call, so a parent
        # that just ran a two-lane attack forks workers that start clean.
        placement = random_placement(18, 3, 80, 21)
        cells = [AttackCell(k, s, "fast") for s in (2, 3) for k in (3, 5)]
        serial = batch_attack(placement, cells, workers=1, cache=False)
        clear_attack_caches()
        batch_attack(
            placement, [AttackCell(4, 2, "fast")], workers=1, lanes=2
        )
        forked = batch_attack(placement, cells, workers=2, cache=False)
        assert forked == serial
