"""Bit-identity tests for the threaded native gain kernel.

The native kernel's multithreaded paths (bulk rebuild, add/remove
sweeps, best-addition argmax, the polish pass) partition work by index
range and merge per-lane partials in ascending lane order, so the final
state and every tie-break must be *bit-for-bit* identical to the serial
code at any thread count. These tests pin that contract:

* full :class:`~repro.core.adversary.AttackResult` equality (nodes,
  damage, exactness *and* evaluation counts) across
  ``REPRO_NATIVE_THREADS`` in {1, 2, 4} for every available gain
  backing — the non-native backings ignore the knob, which is itself
  part of the contract (the knob must never change results anywhere);
* a deterministic large instance (b = 20 000, heavy node segments) that
  genuinely crosses the kernel's parallelism thresholds, comparing the
  packed gain-state buffer byte-for-byte;
* interleaved :meth:`AttackEngine.apply_delta` churn, where threaded
  delta-updated engines must match a cold serial engine;
* the thread-budget knobs themselves (env parsing, configure/restore,
  per-worker budget split) and ``compile_info()``/``REPRO_CC``.
"""

import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import native
from repro.core.adversary import best_attack
from repro.core.batch import AttackCell, AttackEngine
from repro.core.kernels import GAIN_BACKINGS, make_kernel, numpy_available
from repro.core.random_placement import RandomStrategy

THREAD_COUNTS = (1, 2, 4)


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


placements = st.builds(
    random_placement,
    n=st.integers(5, 14),
    r=st.integers(2, 4),
    b=st.integers(1, 40),
    seed=st.integers(0, 10_000),
).filter(lambda p: p.r <= p.n)


class TestThreadCountInvariance:
    @settings(max_examples=15, deadline=None)
    @given(placements, st.data())
    def test_attack_results_identical_across_thread_counts(
        self, placement, data
    ):
        s = data.draw(st.integers(1, placement.r))
        k = data.draw(st.integers(1, placement.n - 1))
        for backing in available_gain_backings():
            results = []
            for threads in THREAD_COUNTS:
                with kernel_threads(threads):
                    kernel = make_kernel(placement, s, gain_backing=backing)
                    results.append(
                        best_attack(
                            placement,
                            k,
                            s,
                            effort="auto",
                            rng=random.Random(1234),
                            kernel=kernel,
                        )
                    )
            # Full dataclass equality: nodes, damage, exact AND the
            # evaluation count — the search trajectory itself must not
            # depend on the thread count.
            assert results[1] == results[0], (backing, results)
            assert results[2] == results[0], (backing, results)

    @settings(max_examples=10, deadline=None)
    @given(placements, st.data())
    def test_incremental_state_identical_across_thread_counts(
        self, placement, data
    ):
        if "native" not in available_gain_backings():
            pytest.skip("native kernel unavailable")
        s = data.draw(st.integers(1, placement.r))
        moves = data.draw(
            st.lists(st.integers(0, placement.n - 1), min_size=1, max_size=8)
        )
        snapshots = []
        for threads in THREAD_COUNTS:
            with kernel_threads(threads):
                kernel = make_kernel(placement, s, gain_backing="native")
                hits = kernel.empty_hits()
                active = []
                trace = []
                for node in moves:
                    if node in active:
                        hits = kernel.remove_node(hits, node)
                        active.remove(node)
                    else:
                        hits = kernel.add_node(hits, node)
                        active.append(node)
                    trace.append(hits.state.tobytes())
                snapshots.append(trace)
        assert snapshots[1] == snapshots[0]
        assert snapshots[2] == snapshots[0]


@pytest.mark.skipif(not native.available(), reason="native kernel unavailable")
class TestThreadedLargeInstance:
    """b = 20 000 with n = 6 heavy nodes: every segment crosses the
    GK_MT_* thresholds, so lanes > 1 genuinely take the parallel paths.
    """

    def _placement(self):
        return random_placement(6, 3, 20_000, 9)

    def test_bulk_rebuild_state_bit_identical(self):
        placement = self._placement()
        reference = None
        for threads in THREAD_COUNTS:
            with kernel_threads(threads):
                kernel = make_kernel(placement, 2, gain_backing="native")
                state = kernel.hits_for([0, 2, 4]).state.tobytes()
            if reference is None:
                reference = state
            else:
                assert state == reference, f"threads={threads}"

    def test_polish_and_argmax_bit_identical(self):
        placement = self._placement()
        reference = None
        for threads in THREAD_COUNTS:
            with kernel_threads(threads):
                kernel = make_kernel(placement, 2, gain_backing="native")
                hits = kernel.hits_for([1, 3])
                best = kernel.best_addition(hits, banned=[1, 3])
                nodes = [1, 3]
                current = kernel.damage_of(hits)
                hits, polished, improved = kernel.polish_pass(
                    hits, nodes, current
                )
                outcome = (
                    best,
                    tuple(nodes),
                    polished,
                    improved,
                    hits.state.tobytes(),
                )
            if reference is None:
                reference = outcome
            else:
                assert outcome == reference, f"threads={threads}"

    def test_attack_result_bit_identical(self):
        placement = self._placement()
        reference = None
        for threads in THREAD_COUNTS:
            with kernel_threads(threads):
                kernel = make_kernel(placement, 2, gain_backing="native")
                result = best_attack(
                    placement,
                    3,
                    2,
                    effort="fast",
                    rng=random.Random(7),
                    kernel=kernel,
                )
            if reference is None:
                reference = result
            else:
                assert result == reference, f"threads={threads}"


class TestDeltaChurnInvariance:
    """Threaded engines under apply_delta churn match a serial engine."""

    def _churn(self, backing, threads):
        placement = random_placement(8, 2, 30, 5)
        with kernel_threads(threads):
            engine = AttackEngine(
                placement, gain_backing=backing
            )
            out = [engine.attack(AttackCell(2, 2), cache=False)]
            engine.apply_delta(
                added_objects=[(0, 1), (2, 3), (5, 7)], removed_objects=[0]
            )
            out.append(engine.attack(AttackCell(2, 2), cache=False))
            out.append(engine.attack(AttackCell(3, 1), cache=False))
            engine.apply_delta(removed_objects=[4, 1])
            out.append(engine.attack(AttackCell(2, 1), cache=False))
        return out

    def test_churned_results_identical_across_threads_and_backings(self):
        reference = None
        for backing in available_gain_backings():
            for threads in THREAD_COUNTS:
                out = self._churn(backing, threads)
                if reference is None:
                    reference = out
                else:
                    assert out == reference, (backing, threads)


class TestThreadKnobs:
    def test_env_override_parsed(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "3")
        with kernel_threads(None):
            assert native.thread_count() == 3

    def test_env_invalid_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "zero")
        with kernel_threads(None):
            with pytest.raises(ValueError, match="REPRO_NATIVE_THREADS"):
                native.thread_count()

    def test_configure_overrides_env_and_restores(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "2")
        with kernel_threads(5):
            assert native.configured_threads() == 5
            assert native.thread_count() == 5
        with kernel_threads(None):
            assert native.configured_threads() is None
            assert native.thread_count() == 2

    def test_worker_thread_budget_splits_evenly(self):
        with kernel_threads(8):
            assert native.worker_thread_budget(2) == 4
            assert native.worker_thread_budget(3) == 2
            assert native.worker_thread_budget(16) == 1
            assert native.worker_thread_budget(0) == 8

    @pytest.mark.skipif(
        not native.available(), reason="native kernel unavailable"
    )
    def test_pool_matches_configuration(self):
        with kernel_threads(2):
            epoch_before = native.pool_epoch()
            handle = native.current_pool()
            assert handle is not None
            assert native.pool_threads() == 2
            # Same configuration: the pool handle is cached, no churn.
            assert native.current_pool() == handle
            assert native.pool_epoch() == native.pool_epoch()
        with kernel_threads(1):
            # A 1-thread budget needs no pool at all.
            assert native.current_pool() is None
            assert native.pool_epoch() != epoch_before


class TestCompileInfo:
    @pytest.mark.skipif(
        not native.available(), reason="native kernel unavailable"
    )
    def test_compile_info_records_toolchain(self):
        info = native.compile_info()
        assert info is not None
        assert info["compiler"]
        assert any(flag in info["flags"] for flag in ("-O3", "-O2"))
        assert "-pthread" in info["flags"]

    def test_repro_cc_failure_degrades_gracefully(
        self, monkeypatch, tmp_path
    ):
        saved = (
            native._lib,
            native._load_attempted,
            native._load_error,
            native._compile_info,
        )
        native._drop_pool(destroy=True)
        native._lib = None
        native._load_attempted = False
        native._load_error = None
        native._compile_info = None
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        monkeypatch.setenv("REPRO_CC", "/bin/false")
        try:
            assert not native.available()
            assert native.compile_info() is None
            assert native.load_error() is not None
            # Threaded entry points shrug it off too: no pool handle.
            assert native.current_pool() is None
        finally:
            native._drop_pool(destroy=True)
            (
                native._lib,
                native._load_attempted,
                native._load_error,
                native._compile_info,
            ) = saved
