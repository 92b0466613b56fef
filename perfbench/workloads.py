"""The four benchmark workloads: inputs, the measured work, and its checks.

Each workload is driven in a fresh interpreter by ``child.py``. The
phases are:

* ``inputs(seed, scale)`` — a JSON description of the generated inputs.
  It is pure and imports nothing from ``repro``, so ``run.py`` stays
  light.
* ``prepare(inputs, workdir)`` — writes the input files (spec file,
  placement artifact). It runs once per benchmark run, before any
  timing.
* ``setup(inputs, workdir)`` — loads the inputs. This is the end of
  ``setup_s``.
* ``run(state, rundir, probe)`` — the work a user waits for. It returns
  the product plus the per-op latencies when ``probe`` is on.
* ``observe`` / ``checks`` — the values pinned in ``pins.json``, and the
  independent checks that hold for any seed. Both run after the clock
  stops.

``interpreter_bound`` marks a workload whose time is nearly all pure
Python. Its times follow the host's interpreter speed, which drifts by
a quarter over minutes on a shared host, so ``run.py`` reports them at a
reference speed (see ``run.clock_loop``).

An *op* is the unit each workload's throughput and latency metrics
count: one fig5 n row (the capacity gap of every (r, x) pair at one
cluster size n), one fig7 shard (a Random placement plus its k-ladder of
searches), one simulator event, and one attack.
"""

from __future__ import annotations

import contextlib
import dataclasses
import glob
import hashlib
import io
import json
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The seed used when ``--seed`` is omitted.
DEFAULT_SEED = 1
#: The confirmation seed: a claim measured on the default seed must also
#: hold here.
HELDOUT_SEED = 20151

SCALES = ("full", "tiny")

#: The BENCH_3 churn + strike trace (n=31, r=3, s=2, k=3, 4 racks,
#: arrival probability 0.6, a strike every 8 time units). Strikes run on
#: one lane: with the auto default (2 lanes on 2 cores) every strike
#: waits for both lanes, so a descheduled core stalls it and wall time
#: spread twice as much from run to run. Lanes are measured on
#: attack-grid, at their auto default.
SIM_TRACE = dict(
    n=31, r=3, s=2, k=3,
    events=10_000, racks=4,
    arrival_probability=0.6, warmup_arrivals=300, churn_interval=1.0,
    strike_period=8.0, measure_period=64.0, repair_time=2.0,
    effort="fast", repair="none", replan_interval=256,
    expected_objects=300, lanes=1,
)

Check = Tuple[str, bool, str]


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


class _Timed:
    """Wraps one callable and records each call's latency in seconds."""

    def __init__(self, fn: Callable, sink: Callable[[float], None]):
        self.fn = fn
        self.sink = sink

    def __call__(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return self.fn(*args, **kwargs)
        finally:
            self.sink(time.perf_counter() - start)


def _run_cli(argv: List[str]) -> str:
    """``repro <argv>`` in-process; returns what it printed to stdout."""
    from repro import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(
            f"repro {' '.join(argv)} exited {code}: {err.getvalue().strip()}"
        )
    return out.getvalue()


# -- design-sweep -------------------------------------------------------------


class DesignSweep:
    """``repro run`` on the fig5 default spec, serial, ``--no-store``."""

    name = "design-sweep"
    seeded = False
    interpreter_bound = True

    def inputs(self, seed: int, scale: str) -> Dict[str, Any]:
        # Seedless: the fig5 sweep has no randomness, so every seed gives
        # the same inputs and the same pinned digest.
        if scale == "tiny":
            return {"target": "spec.json", "n_range": [50, 64]}
        return {"target": "fig5"}

    def prepare(self, inputs: Dict[str, Any], workdir: str) -> None:
        if inputs["target"] != "spec.json":
            return
        from repro.analysis.fig5 import default_spec

        spec = default_spec(n_range=tuple(inputs["n_range"]))
        _write_json(os.path.join(workdir, "spec.json"), spec.to_dict())

    def setup(self, inputs: Dict[str, Any], workdir: str) -> Dict[str, Any]:
        from repro.analysis import fig5
        from repro.exp import registry

        target = inputs["target"]
        if target == "spec.json":
            target = os.path.join(workdir, target)
            with open(target, encoding="utf-8") as handle:
                registry.spec_from_payload(json.load(handle))
        else:
            registry.figure_spec(target)
        return {"target": target, "fig5": fig5}

    def run(self, state, rundir: str, probe: bool) -> Dict[str, Any]:
        fig5 = state["fig5"]
        rows: Dict[int, float] = {}
        original = fig5.capacity_gap
        if probe:
            # An op is one n row: every (r, x) curve's cell at that n.
            # The shards run curve by curve, so a row's time is summed.
            def timed_gap(n, *args, **kwargs):
                start = time.perf_counter()
                try:
                    return original(n, *args, **kwargs)
                finally:
                    rows[n] = rows.get(n, 0.0) + time.perf_counter() - start

            fig5.capacity_gap = timed_gap
        try:
            text = _run_cli(["run", state["target"], "--no-store"])
        finally:
            fig5.capacity_gap = original
        return {"render": text.rstrip("\n"), "latencies": list(rows.values()),
                "ops": len(rows)}

    def observe(self, state, outcome) -> Dict[str, Any]:
        return {"render_sha256": sha256_text(outcome["render"])}

    def checks(self, state, outcome) -> List[Check]:
        # Each row is a CDF over gap thresholds up to 1: non-decreasing,
        # ending at 1 (a capacity gap never exceeds 1).
        rows = [
            [float(value) for value in line.split()[3:]]
            for line in outcome["render"].splitlines()
            if line.split() and line.split()[0].isdigit()
        ]
        bad = [
            row for row in rows
            if row != sorted(row) or not row or row[-1] != 1.0
        ]
        return [("every row is a CDF ending at 1", bool(rows) and not bad,
                 f"{len(bad)} of {len(rows)} rows malformed")]


# -- random-figure -------------------------------------------------------------


class RandomFigure:
    """``repro run`` on a generated fig7 spec, 2 workers, fresh store."""

    name = "random-figure"
    seeded = True
    # About 90% of its time is RandomStrategy.place, a pure-Python loop.
    interpreter_bound = True

    def inputs(self, seed: int, scale: str) -> Dict[str, Any]:
        if scale == "tiny":
            return {"seed": seed, "b_values": [150, 300], "reps": 1,
                    "workers": 2}
        return {"seed": seed, "b_values": None, "reps": 5, "workers": 2}

    def prepare(self, inputs: Dict[str, Any], workdir: str) -> None:
        from repro.analysis import fig7

        options: Dict[str, Any] = {
            "seed": inputs["seed"], "effort": "fast", "reps": inputs["reps"],
        }
        if inputs["b_values"] is not None:
            options["b_values"] = tuple(inputs["b_values"])
        spec = fig7.default_spec(**options)
        _write_json(os.path.join(workdir, "spec.json"), spec.to_dict())

    def setup(self, inputs: Dict[str, Any], workdir: str) -> Dict[str, Any]:
        from repro.analysis import fig7
        from repro.exp import registry

        path = os.path.join(workdir, "spec.json")
        with open(path, encoding="utf-8") as handle:
            spec = registry.spec_from_payload(json.load(handle))
        return {"path": path, "spec": spec, "fig7": fig7,
                "workers": inputs["workers"]}

    def run(self, state, rundir: str, probe: bool) -> Dict[str, Any]:
        fig7 = state["fig7"]
        store = os.path.join(rundir, "store")
        ops_log = os.path.join(rundir, "ops.log")
        original = fig7.KERNELS["fig7"]
        if probe:
            # Shards run in pool workers: each appends its latency to a
            # log the parent reads back.
            def sink(seconds: float) -> None:
                fd = os.open(ops_log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
                try:
                    os.write(fd, f"{seconds!r}\n".encode())
                finally:
                    os.close(fd)

            fig7.KERNELS["fig7"] = dataclasses.replace(
                original, run_group=_Timed(original.run_group, sink)
            )
        try:
            text = _run_cli([
                "run", state["path"], "--workers", str(state["workers"]),
                "--store", store,
            ])
        finally:
            fig7.KERNELS["fig7"] = original
        latencies: List[float] = []
        if probe:
            with open(ops_log, encoding="utf-8") as handle:
                latencies = [float(line) for line in handle if line.strip()]
        return {"render": text.rstrip("\n"), "store": store,
                "latencies": latencies, "ops": len(latencies)}

    def _cells_file(self, outcome) -> Optional[str]:
        found = glob.glob(os.path.join(outcome["store"], "*", "cells.jsonl"))
        return found[0] if len(found) == 1 else None

    def observe(self, state, outcome) -> Dict[str, Any]:
        cells = self._cells_file(outcome)
        return {
            "render_sha256": sha256_text(outcome["render"]),
            "cells_sha256": sha256_file(cells) if cells else None,
        }

    def checks(self, state, outcome) -> List[Check]:
        from repro.exp.runner import run_experiment

        cells = self._cells_file(outcome)
        expected = len(state["fig7"].KERNELS["fig7"].expand(state["spec"]))
        stored = 0
        if cells is not None:
            with open(cells, encoding="utf-8") as handle:
                stored = sum(1 for line in handle if line.strip())
        # Re-render from the committed store: it must serve every cell
        # and reproduce the output byte for byte.
        again = run_experiment(state["spec"], store=outcome["store"])
        return [
            ("store holds every cell", stored == expected,
             f"{stored} of {expected}"),
            ("store re-render matches",
             again.computed == 0 and again.render() == outcome["render"],
             f"{again.computed} recomputed"),
        ]


# -- lifetime-sim ---------------------------------------------------------------


class LifetimeSim:
    """``LifetimeSimulator(SimConfig(...)).run()`` on the BENCH_3 trace."""

    name = "lifetime-sim"
    seeded = True
    interpreter_bound = False

    def inputs(self, seed: int, scale: str) -> Dict[str, Any]:
        config = dict(SIM_TRACE, seed=seed)
        if scale == "tiny":
            config.update(events=600, warmup_arrivals=40, expected_objects=40)
        return {"config": config}

    def prepare(self, inputs: Dict[str, Any], workdir: str) -> None:
        _write_json(os.path.join(workdir, "sim.json"), inputs["config"])

    def setup(self, inputs: Dict[str, Any], workdir: str) -> Dict[str, Any]:
        from repro.sim import LifetimeSimulator, SimConfig

        with open(os.path.join(workdir, "sim.json"), encoding="utf-8") as handle:
            config = SimConfig(**json.load(handle))
        config.validate()
        return {"config": config, "simulator": LifetimeSimulator}

    def run(self, state, rundir: str, probe: bool) -> Dict[str, Any]:
        simulator = state["simulator"](state["config"])
        latencies: List[float] = []
        if probe:
            # An instance attribute shadows the method the event loop calls.
            simulator._dispatch = _Timed(simulator._dispatch, latencies.append)
        report = simulator.run()
        return {"report": report, "latencies": latencies,
                "ops": report.events}

    def observe(self, state, outcome) -> Dict[str, Any]:
        signature = [
            [round(s.time, 6), list(s.nodes), s.damage, s.live_objects]
            for s in outcome["report"].strikes
        ]
        return {"strike_sha256": sha256_text(json.dumps(signature))}

    def checks(self, state, outcome) -> List[Check]:
        report = outcome["report"]
        violations = report.bound_violations()
        return [
            ("no Lemma-3 bound violations", violations == 0,
             f"{violations} violations"),
            ("every event handled",
             report.events == state["config"].events,
             f"{report.events} of {state['config'].events}"),
        ]


# -- attack-grid -----------------------------------------------------------------


class AttackGrid:
    """``AttackEngine.attack`` over k x s x attack seeds, memo off."""

    name = "attack-grid"
    seeded = True
    interpreter_bound = False

    def inputs(self, seed: int, scale: str) -> Dict[str, Any]:
        if scale == "tiny":
            return {"seed": seed, "n": 31, "r": 3, "b": 2000, "ks": [2, 4],
                    "ss": [2], "attack_seeds": [0, 1], "effort": "auto"}
        # Every fourth k, not just the powers of two: with a dense
        # ladder the percentiles fall inside a smooth spread of costs
        # instead of on the step between two cells.
        return {"seed": seed, "n": 257, "r": 3, "b": 200_000,
                "ks": list(range(4, 65, 4)), "ss": [2, 3],
                "attack_seeds": [0, 1, 2], "effort": "auto"}

    def prepare(self, inputs: Dict[str, Any], workdir: str) -> None:
        import random

        from repro.core.artifact import save_placement
        from repro.core.random_placement import RandomStrategy

        placement = RandomStrategy(inputs["n"], inputs["r"]).place(
            inputs["b"], random.Random(inputs["seed"])
        )
        save_placement(placement, os.path.join(workdir, "placement.npz"))

    def setup(self, inputs: Dict[str, Any], workdir: str) -> Dict[str, Any]:
        from repro.core import batch
        from repro.core.artifact import load_placement

        placement = load_placement(os.path.join(workdir, "placement.npz"))
        grid = [
            batch.AttackCell(k, s, inputs["effort"])
            for s in inputs["ss"] for k in inputs["ks"]
        ]
        return {"placement": placement, "batch": batch, "grid": grid,
                "attack_seeds": inputs["attack_seeds"]}

    def run(self, state, rundir: str, probe: bool) -> Dict[str, Any]:
        batch = state["batch"]
        engine = batch.engine_for(state["placement"])
        results, latencies = [], []
        for attack_seed in state["attack_seeds"]:
            for cell in state["grid"]:
                start = time.perf_counter()
                result = engine.attack(cell, seed=attack_seed, cache=False)
                latencies.append(time.perf_counter() - start)
                results.append((cell, result))
        return {"results": results, "latencies": latencies,
                "ops": len(results), "engine": engine}

    def observe(self, state, outcome) -> Dict[str, Any]:
        return {"damages": [result.damage for _, result in outcome["results"]]}

    def checks(self, state, outcome) -> List[Check]:
        placement = state["placement"]
        checks = []
        for cell, result in outcome["results"]:
            recount = len(placement.failed_objects(result.nodes, cell.s))
            checks.append((
                f"recount k={cell.k} s={cell.s}",
                recount == result.damage and len(set(result.nodes)) == cell.k,
                f"damage {result.damage}, recount {recount}",
            ))
        return checks


WORKLOADS = {
    workload.name: workload
    for workload in (DesignSweep(), RandomFigure(), LifetimeSim(), AttackGrid())
}


def seed_key(workload: Any, seed: int) -> str:
    """The pins key for one seed (seedless workloads share one entry)."""
    return str(seed) if workload.seeded else "seedless"


def pinned_checks(
    observed: Dict[str, Any], expected: Optional[Dict[str, Any]]
) -> List[Check]:
    """One check per pinned value (list pins: one per element)."""
    if expected is None:
        return []
    checks: List[Check] = []
    for key in sorted(expected):
        want, got = expected[key], observed.get(key)
        if isinstance(want, list):
            got = got if isinstance(got, list) else []
            for index, value in enumerate(want):
                mine = got[index] if index < len(got) else None
                checks.append((f"pinned {key}[{index}]", mine == value,
                               f"got {mine}, pinned {value}"))
            if len(got) != len(want):
                checks.append((f"pinned {key} length", False,
                               f"got {len(got)}, pinned {len(want)}"))
        else:
            checks.append((f"pinned {key}", got == want,
                           f"got {got}, pinned {want}"))
    return checks


def _write_json(path: str, payload: Any) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
