"""Engine-state snapshots: hydrated engines are bit-for-bit cold builds."""

import json
import os
import random
import tempfile
import zipfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import native
from repro.core.artifact import ArtifactError, load_engine_state
from repro.core.batch import (
    AttackCell,
    AttackEngine,
    clear_attack_caches,
    configure_engine_state_dir,
    engine_for,
    hydrate_engine,
    snapshot_engine,
)
from repro.core.kernels import GAIN_BACKINGS, numpy_available
from repro.core.random_placement import RandomStrategy


def available_gain_backings():
    return [
        backing
        for backing in GAIN_BACKINGS
        if (backing != "numpy" or numpy_available())
        and (backing != "native" or native.available())
    ]


def random_placement(n, r, b, seed):
    return RandomStrategy(n, r).place(b, random.Random(seed))


@pytest.fixture(autouse=True)
def _fresh_engine_caches():
    clear_attack_caches()
    configure_engine_state_dir(None)
    yield
    clear_attack_caches()
    configure_engine_state_dir(None)


def _grid(placement):
    return [
        AttackCell(k, s, "fast")
        for s in range(1, placement.r + 1)
        for k in (2, 3)
    ]


def _attack_all(engine, cells, seed=7):
    results = []
    warm = None
    for cell in cells:
        attack = engine.attack(cell, seed=seed, warm_start=warm, cache=False)
        warm = attack.nodes
        results.append(attack)
    return results


def _packed_states(engine):
    states = {}
    for s in range(1, engine.placement.r + 1):
        kernel = engine.kernel(s)
        states[s] = kernel.export_state(kernel.empty_hits())
    return states


def _snapshot_round_trip(placement):
    """Cold-build, snapshot, drop caches, hydrate; return both engines."""
    cold = AttackEngine(placement)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "engine.npz")
        snapshot_engine(cold, path)
        clear_attack_caches()
        warm = hydrate_engine(path, mmap=False, validate=True)
        assert warm is not None
        # Resolve lazily-built kernels while the file still exists.
        warm_states = _packed_states(warm)
        warm_results = _attack_all(warm, _grid(placement))
    return cold, warm, warm_states, warm_results


class TestHydratedEqualsColdBuilt:
    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(min_value=8, max_value=14),
        r=st.integers(min_value=2, max_value=3),
        b=st.integers(min_value=16, max_value=48),
        seed=st.integers(min_value=0, max_value=999),
    )
    def test_property_hydrated_attacks_and_states_match(self, n, r, b, seed):
        clear_attack_caches()
        placement = random_placement(n, r, b, seed)
        cold, warm, warm_states, warm_results = _snapshot_round_trip(placement)
        assert warm.placement.fingerprint() == placement.fingerprint()
        assert warm.placement.to_dict() == placement.to_dict()
        assert _packed_states(cold) == warm_states
        assert _attack_all(cold, _grid(placement)) == warm_results

    @pytest.mark.parametrize("backing", available_gain_backings())
    def test_every_backing_hydrates_bit_identically(
        self, backing, monkeypatch
    ):
        monkeypatch.setenv("REPRO_GAIN_BACKING", backing)
        placement = random_placement(12, 3, 40, 13)
        cold, warm, warm_states, warm_results = _snapshot_round_trip(placement)
        assert warm.kernel(2).backing == backing
        assert _packed_states(cold) == warm_states
        assert _attack_all(cold, _grid(placement)) == warm_results

    @pytest.mark.skipif(not native.available(), reason="native kernel absent")
    @pytest.mark.parametrize("threads", (1, 2, 4))
    def test_native_thread_count_does_not_change_hydration(
        self, threads, monkeypatch
    ):
        monkeypatch.setenv("REPRO_GAIN_BACKING", "native")
        before = native.thread_count()
        native.configure_threads(threads)
        try:
            placement = random_placement(12, 3, 48, 17)
            cold, warm, warm_states, warm_results = _snapshot_round_trip(
                placement
            )
            assert _packed_states(cold) == warm_states
            assert _attack_all(cold, _grid(placement)) == warm_results
        finally:
            native.configure_threads(before)


def _rewrite_members(path, mutate):
    """Round-trip the zip through a dict of members, applying ``mutate``."""
    with zipfile.ZipFile(path) as archive:
        members = {name: archive.read(name) for name in archive.namelist()}
    mutate(members)
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as archive:
        for name, blob in members.items():
            archive.writestr(name, blob)


def _flip_last_byte(members, name):
    blob = members[name]
    members[name] = blob[:-1] + bytes([blob[-1] ^ 0xFF])


def _edit_header(members, **updates):
    header = json.loads(members["header.json"])
    header.update(updates)
    members["header.json"] = json.dumps(header).encode()


class TestChecksumGatedTrust:
    def _snapshot(self, tmp_path):
        placement = random_placement(10, 3, 24, 23)
        path = str(tmp_path / "engine.npz")
        snapshot_engine(AttackEngine(placement), path)
        return path

    @pytest.mark.parametrize("mmap", (False, True))
    def test_tampered_packed_state_is_rejected(self, tmp_path, mmap):
        path = self._snapshot(tmp_path)
        _rewrite_members(path, lambda m: _flip_last_byte(m, "state_2.npy"))
        with pytest.raises(ArtifactError, match="state_2"):
            load_engine_state(path, mmap=mmap)

    @pytest.mark.parametrize("mmap", (False, True))
    def test_tampered_rows_fail_the_fingerprint(self, tmp_path, mmap):
        path = self._snapshot(tmp_path)
        _rewrite_members(path, lambda m: _flip_last_byte(m, "rows.npy"))
        with pytest.raises(ArtifactError, match="fingerprint"):
            load_engine_state(path, mmap=mmap)

    def test_corruption_stays_hard_through_hydrate(self, tmp_path):
        path = self._snapshot(tmp_path)
        _rewrite_members(path, lambda m: _flip_last_byte(m, "node_objs.npy"))
        with pytest.raises(ArtifactError):
            hydrate_engine(path)

    def test_not_a_zip_is_rejected(self, tmp_path):
        path = str(tmp_path / "engine.npz")
        with open(path, "wb") as handle:
            handle.write(b"definitely not a zip archive")
        with pytest.raises(ArtifactError, match="zip"):
            load_engine_state(path)


class TestVersionSkewFallsBackToRebuild:
    def _snapshot(self, tmp_path):
        placement = random_placement(10, 3, 24, 29)
        path = str(tmp_path / "engine.npz")
        snapshot_engine(AttackEngine(placement), path)
        return path

    def test_newer_artifact_version_hydrates_as_none(self, tmp_path):
        path = self._snapshot(tmp_path)
        _rewrite_members(path, lambda m: _edit_header(m, version=99))
        assert hydrate_engine(path) is None

    def test_packed_state_version_mismatch_hydrates_as_none(self, tmp_path):
        path = self._snapshot(tmp_path)
        _rewrite_members(path, lambda m: _edit_header(m, state_version=99))
        assert hydrate_engine(path) is None


@pytest.fixture
def metrics_on():
    obs.set_metrics(True)
    yield
    obs.set_metrics(None)
    obs.reset_metrics()


class TestEngineStateDir:
    def test_cold_build_persists_and_next_process_hydrates(
        self, tmp_path, metrics_on
    ):
        configure_engine_state_dir(str(tmp_path))
        placement = random_placement(12, 3, 40, 31)
        cold = engine_for(placement)
        snapshot = tmp_path / (placement.fingerprint() + ".npz")
        assert snapshot.exists()
        cold_results = _attack_all(cold, _grid(placement))

        clear_attack_caches()  # simulate a fresh process over the same dir
        hydrations = obs.counter_value("engine.hydrations")
        builds = obs.counter_value("engine.builds")
        warm = engine_for(placement)
        assert obs.counter_value("engine.hydrations") == hydrations + 1
        assert obs.counter_value("engine.builds") == builds
        assert _attack_all(warm, _grid(placement)) == cold_results

    def test_unusable_snapshot_degrades_to_cold_build(self, tmp_path):
        configure_engine_state_dir(str(tmp_path))
        placement = random_placement(12, 3, 40, 37)
        snapshot = tmp_path / (placement.fingerprint() + ".npz")
        snapshot.write_bytes(b"garbage, not an artifact")
        with pytest.warns(RuntimeWarning, match="cold build path"):
            engine = engine_for(placement)
        reference = AttackEngine(placement)
        assert _attack_all(engine, _grid(placement)) == _attack_all(
            reference, _grid(placement)
        )
