"""Bit-identity tests for replicated gain-state polish lanes.

The lane contract: ``polish_chains`` runs each chain on a private clone
of the bound kernel's packed state, so the full local-search certificate
— ``AttackResult`` equality including evaluation counts — is identical
at every lane count, on every gain backing, at every native thread
count, and the parent engine's own packed state is never touched. Lanes
are a pure scheduling knob; these tests pin that down:

* the {lanes} x {backing} x {threads} matrix against a serial baseline,
  including ``warm_start`` and the ``restarts=0`` edge case;
* a packed-state byte comparison (the PR 9 wire format) proving lanes
  never mutate the parent kernel or its live hits objects;
* the lane-budget knobs themselves (``REPRO_ATTACK_LANES`` parsing,
  configure/restore, argument > pin > env precedence).
"""

import random
from contextlib import contextmanager

import pytest

from repro.core import native
from repro.core.adversary import (
    LocalSearchAdversary,
    attack_lanes,
    configure_lanes,
    configured_lanes,
)
from repro.core.batch import AttackCell, AttackEngine
from repro.core.kernels import GAIN_BACKINGS, make_kernel, numpy_available
from repro.core.random_placement import RandomStrategy

LANE_COUNTS = (1, 2, 4)
THREAD_COUNTS = (1, 2)


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
def kernel_threads(count):
    previous = native.configured_threads()
    native.configure_threads(count)
    try:
        yield
    finally:
        native.configure_threads(previous)


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
    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    def test_matrix_matches_serial(self, backing, threads):
        placement = random_placement(14, 3, 42, 7)
        kernel = make_kernel(placement, 2, gain_backing=backing)
        with kernel_threads(threads):
            baseline = LocalSearchAdversary(restarts=6, lanes=1).attack(
                placement, 3, 2, kernel=kernel
            )
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
        monkeypatch.setenv("REPRO_ATTACK_LANES", "auto")
        with kernel_threads(2):
            assert attack_lanes() == native.thread_count()

    def test_env_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_ATTACK_LANES", "warp")
        with pytest.raises(ValueError):
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
