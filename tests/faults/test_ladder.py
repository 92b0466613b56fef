"""Degradation ladder: demotions, auto resolution, forced backing faults."""

import random

import pytest

from repro import faults
from repro.core import kernels
from repro.core.kernels import (
    GAIN_BACKINGS,
    Incidence,
    PythonKernel,
    demote_backing,
    demoted_backings,
    make_kernel,
    resolve_gain_backing,
    restore_backings,
)
from repro.core.random_placement import RandomStrategy
from repro.faults import FaultPlan, prob_plan


def _placement():
    return RandomStrategy(11, 3).place(40, random.Random(7))


def _available(backing):
    if backing == "native":
        from repro.core import native

        return native.available()
    if backing == "numpy":
        return kernels.numpy_available()
    return True


class TestDemotionBookkeeping:
    def test_demote_and_restore(self):
        demote_backing("bitset", "test fault")
        assert demoted_backings() == {"bitset": "test fault"}
        restore_backings()
        assert demoted_backings() == {}

    def test_first_reason_wins(self):
        demote_backing("bitset", "first")
        demote_backing("bitset", "second")
        assert demoted_backings()["bitset"] == "first"

    def test_python_floor_is_never_demotable(self):
        with pytest.raises(ValueError, match="floor"):
            demote_backing("python", "nope")

    def test_unknown_backing_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            demote_backing("gpu", "nope")


class TestResolution:
    def test_auto_skips_demoted_rungs(self, monkeypatch):
        monkeypatch.delenv("REPRO_GAIN_BACKING", raising=False)
        ladder = [resolve_gain_backing()]
        while ladder[-1] != GAIN_BACKINGS[-1]:
            demote_backing(ladder[-1], "test demotion")
            ladder.append(resolve_gain_backing())
        # Strictly descending through the (available) ladder to python.
        positions = [GAIN_BACKINGS.index(backing) for backing in ladder]
        assert positions == sorted(set(positions))
        assert ladder[-1] == "python"

    def test_explicit_demoted_choice_raises(self):
        demote_backing("bitset", "watchdog fault")
        with pytest.raises(ValueError, match="demoted"):
            resolve_gain_backing("bitset")


class TestForcedBackendFault:
    def test_backend_fault_degrades_with_identical_damages(
        self, monkeypatch
    ):
        monkeypatch.delenv("REPRO_GAIN_BACKING", raising=False)
        top = resolve_gain_backing()
        if top == GAIN_BACKINGS[-1]:
            pytest.skip("auto already resolves to the python floor")
        placement = _placement()
        oracle = PythonKernel(Incidence(placement), 2)

        faults.configure(FaultPlan.build([{
            "site": "kernels.dispatch", "kind": "backend",
            "when": {"hit": 0}, "times": 1,
        }]))
        kernel = make_kernel(placement, 2)
        assert top in demoted_backings()
        nodes = [0, 3, 7]
        assert kernel.damage_for(nodes) == oracle.damage_for(nodes)

    def test_transient_errors_retry_without_demotion(self):
        faults.configure(FaultPlan.build([{
            "site": "kernels.dispatch", "kind": "error",
            "when": {"hit": 0}, "times": 1,
        }]))
        kernel = make_kernel(_placement(), 2)
        assert demoted_backings() == {}
        assert kernel is not None

    def test_persistent_faults_exhaust_the_ladder(self):
        faults.configure(prob_plan(1.0, sites=("kernels.dispatch",)))
        with pytest.raises(RuntimeError, match="after 4 attempts"):
            make_kernel(_placement(), 2)

    def test_bad_arguments_propagate_without_demoting(self, monkeypatch):
        """A ValueError is a caller bug, not a broken backing."""
        monkeypatch.delenv("REPRO_GAIN_BACKING", raising=False)
        with pytest.raises(ValueError, match="s"):
            make_kernel(_placement(), 0)
        assert demoted_backings() == {}

    def test_explicit_backing_never_silently_degrades(self, monkeypatch):
        """A pinned backing propagates real failures; no demotion."""
        available = [b for b in GAIN_BACKINGS[:-1] if _available(b)]
        if not available:
            pytest.skip("only the python floor is available")
        pinned = available[-1]
        faults.configure(FaultPlan.build([{
            "site": "kernels.dispatch", "kind": "backend",
        }]))
        with pytest.raises(Exception):
            make_kernel(_placement(), 2, gain_backing=pinned)
        assert pinned not in demoted_backings()
