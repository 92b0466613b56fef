"""Supervised runner under chaos: retries, watchdog, demotion, identity."""

import json
import os

import pytest

from repro import faults
from repro.analysis import fig2
from repro.core import kernels
from repro.exp.runner import ExperimentError, run_experiment
from repro.exp.store import RunStore
from repro.faults import FaultPlan


def _spec():
    return fig2.default_spec(b_values=(600, 1200), s_values=(2, 3), k_max=4)


def _shard_starts(spec):
    from repro.exp.registry import kernel as experiment_kernel
    from repro.exp.runner import _contiguous_groups

    definition = experiment_kernel(spec.experiment)
    cells = [dict(cell) for cell in definition.expand(spec)]
    return [group.start for group in _contiguous_groups(spec, definition, cells)]


def _chaos_env(plan, monkeypatch):
    """Export the plan so fork-inherited shard workers see it too."""
    monkeypatch.setenv("REPRO_CHAOS", plan.canonical_json())
    faults.clear()  # drop any configure() override; env rules now


class TestCrashRetry:
    def test_crashed_shard_is_redispatched_bit_identically(
        self, tmp_path, monkeypatch
    ):
        spec = _spec()
        start = _shard_starts(spec)[1]
        plan = FaultPlan.build([{
            "site": "runner.shard_start", "kind": "crash",
            "when": {"start": start, "attempt": 0, "mode": "shard"},
            "times": 1,
        }])
        _chaos_env(plan, monkeypatch)
        store = RunStore(str(tmp_path / "chaos"))
        run = run_experiment(spec, workers=3, store=store)
        assert run.complete
        assert run.retries >= 1
        assert f"[{run.retries} shard retries]" in run.summary()

        monkeypatch.delenv("REPRO_CHAOS")
        reference = run_experiment(
            spec, workers=3, store=RunStore(str(tmp_path / "clean"))
        )
        with open(store.cells_file(spec), "rb") as handle:
            chaos_bytes = handle.read()
        with open(
            RunStore(str(tmp_path / "clean")).cells_file(spec), "rb"
        ) as handle:
            clean_bytes = handle.read()
        assert chaos_bytes == clean_bytes
        assert run.result() == reference.result()

    def test_retries_are_recorded_in_the_manifest(
        self, tmp_path, monkeypatch
    ):
        spec = _spec()
        start = _shard_starts(spec)[0]
        plan = FaultPlan.build([{
            "site": "runner.shard_start", "kind": "crash",
            "when": {"start": start, "attempt": 0, "mode": "shard"},
            "times": 1,
        }])
        _chaos_env(plan, monkeypatch)
        store = RunStore(str(tmp_path))
        run = run_experiment(spec, workers=3, store=store)
        manifest_path = os.path.join(store.run_path(spec), "manifest.json")
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert manifest["faults"]["shard_retries"] == run.retries >= 1

    def test_fault_free_manifest_has_no_faults_key(self, tmp_path):
        spec = _spec()
        store = RunStore(str(tmp_path))
        run_experiment(spec, workers=3, store=store)
        manifest_path = os.path.join(store.run_path(spec), "manifest.json")
        with open(manifest_path, encoding="utf-8") as handle:
            assert "faults" not in json.load(handle)

    def test_exhausted_retries_fail_the_run(self, monkeypatch):
        spec = _spec()
        start = _shard_starts(spec)[0]
        plan = FaultPlan.build([{
            "site": "runner.shard_start", "kind": "error",
            "when": {"start": start, "mode": "shard"},
        }])
        _chaos_env(plan, monkeypatch)
        with pytest.raises(ExperimentError, match="failed after"):
            run_experiment(spec, workers=3, shard_retries=1)


class TestWatchdog:
    def test_hung_shard_is_killed_and_retried(self, tmp_path, monkeypatch):
        spec = _spec()
        start = _shard_starts(spec)[0]
        plan = FaultPlan.build([{
            "site": "runner.shard_start", "kind": "hang",
            "when": {"start": start, "attempt": 0, "mode": "shard"},
            "times": 1, "args": {"seconds": 60.0},
        }])
        _chaos_env(plan, monkeypatch)
        store = RunStore(str(tmp_path / "chaos"))
        run = run_experiment(
            spec, workers=3, store=store, shard_timeout=1.0
        )
        assert run.complete
        assert run.retries >= 1

        monkeypatch.delenv("REPRO_CHAOS")
        run_experiment(spec, workers=3, store=RunStore(str(tmp_path / "b")))
        with open(store.cells_file(spec), "rb") as handle:
            chaos_bytes = handle.read()
        with open(
            RunStore(str(tmp_path / "b")).cells_file(spec), "rb"
        ) as handle:
            assert handle.read() == chaos_bytes

    def test_bad_timeout_env_is_rejected_loudly(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "soon")
        with pytest.raises(ValueError, match="REPRO_SHARD_TIMEOUT"):
            run_experiment(_spec(), workers=3)

    @pytest.mark.parametrize("raw", ["nan", "inf"])
    def test_non_finite_timeout_env_is_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_SHARD_TIMEOUT", raw)
        with pytest.raises(ValueError, match="REPRO_SHARD_TIMEOUT"):
            run_experiment(_spec(), workers=3)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_timeout_argument_is_rejected(self, value):
        # A NaN deadline never fires: accepting it would silently turn
        # the watchdog off.
        with pytest.raises(ValueError, match="shard_timeout"):
            run_experiment(_spec(), workers=3, shard_timeout=value)

    def test_bad_retries_env_is_rejected_loudly(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_RETRIES", "-1")
        with pytest.raises(ValueError, match="REPRO_SHARD_RETRIES"):
            run_experiment(_spec(), workers=3)


class TestDemotion:
    def test_repeated_watchdog_faults_demote_the_auto_backing(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_GAIN_BACKING", raising=False)
        before = kernels.resolve_gain_backing()
        if before == kernels.GAIN_BACKINGS[-1]:
            pytest.skip("auto already resolves to the python floor")
        spec = _spec()
        start = _shard_starts(spec)[0]
        plan = FaultPlan.build([
            {"site": "runner.shard_start", "kind": "crash",
             "when": {"start": start, "attempt": attempt, "mode": "shard"},
             "times": 1}
            for attempt in (0, 1)
        ])
        _chaos_env(plan, monkeypatch)
        store = RunStore(str(tmp_path))
        run = run_experiment(spec, workers=3, store=store, shard_retries=3)
        assert run.complete
        assert [entry["backing"] for entry in run.demotions] == [before]
        assert "[demoted: " in run.summary()
        assert before in kernels.demoted_backings()

        manifest_path = os.path.join(store.run_path(spec), "manifest.json")
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert manifest["faults"]["demotions"] == run.demotions


class TestSerialPath:
    def test_serial_runs_retry_transient_faults(self, monkeypatch):
        spec = _spec()
        plan = FaultPlan.build([{
            "site": "runner.shard_start", "kind": "error",
            "when": {"mode": "serial", "attempt": 0}, "times": 2,
        }])
        _chaos_env(plan, monkeypatch)
        run = run_experiment(spec, workers=1)
        assert run.complete
        assert run.retries >= 1

    def test_real_exceptions_are_not_retried(self, monkeypatch):
        from repro.exp.registry import ExperimentKernel, register_kernel

        calls = []

        def explode(spec, cells):
            calls.append(1)
            raise RuntimeError("genuine bug, not chaos")

        register_kernel(ExperimentKernel(
            name="_test_explode",
            expand=lambda spec: [{"i": 0}],
            group_key=lambda spec, cell: 0,
            run_group=explode,
            assemble=lambda spec, cells, metrics: None,
            render=lambda result: "",
        ))
        from repro.exp.spec import ExperimentSpec

        spec = ExperimentSpec.build("_test_explode", axes={"i": (0,)})
        with pytest.raises(RuntimeError, match="genuine bug"):
            run_experiment(spec, shard_retries=5)
        assert len(calls) == 1
