#!/usr/bin/env python3
"""Self-test of the benchmark: output schema, layer coverage, the gate.

Run from the root of a checkout (about a minute)::

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py -q     # the same tests

Every workload runs at tiny scale, untraced and traced. The result must
carry exactly the metrics ``BENCHMARK.json`` names, with their units.
Layers a workload bypasses must read zero, and the layers it exercises
must not. Planting a wrong pinned digest or damage value must raise
``failed``, so the correctness gate cannot pass vacuously. Without the
package source next to it, the benchmark must refuse to run.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402 - after the path set-up above
from workloads import DEFAULT_SEED, WORKLOADS, seed_key  # noqa: E402

#: Per-layer metrics that must read zero: the workload bypasses the layer.
BYPASSED = {
    "design-sweep": [
        "placement.random.calls", "engine.builds", "engine.apply_delta.calls",
        "attack.searches", "cluster.availability.calls", "store.commits",
    ],
    "random-figure": [
        "designs.existence.calls", "designs.difference_family.calls",
        "engine.apply_delta.calls", "cluster.availability.calls",
    ],
    "lifetime-sim": ["placement.random.calls", "runner.shards", "store.commits"],
    "attack-grid": [
        "designs.existence.calls", "placement.random.calls",
        "engine.apply_delta.calls", "cluster.availability.calls",
        "runner.shards", "store.commits",
    ],
}

#: Per-layer metrics that must be positive: the workload's own layers.
EXERCISED = {
    "design-sweep": [
        "designs.existence.calls", "subsystems.admissible_orders.calls",
        "subsystems.capacity_gap_s", "runner.shards", "analysis.render_s",
    ],
    "random-figure": [
        "placement.random.calls", "engine.builds", "attack.searches",
        "runner.shards", "store.commits", "store.bytes", "analysis.assemble_s",
    ],
    "lifetime-sim": [
        "engine.apply_delta.calls", "attack.searches",
        "cluster.availability.calls", "sim.strike.select_s",
    ],
    "attack-grid": ["engine.builds", "attack.searches", "attack.evaluations"],
}

SCRATCH = ROOT / ".perfbench" / f"selftest-{os.getpid()}"


def bench_argv(workload, trace):
    return ["--workload", workload, "--seed", str(DEFAULT_SEED),
            "--seconds", "0", "--scale", "tiny", "--trace", str(trace)]


def bench_run(workload, trace, cwd=ROOT):
    argv = [sys.executable, "perfbench/run.py", *bench_argv(workload, trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def bench_in_process(workload, **patches):
    """``run.main`` in this process with module globals patched.

    Returns (exit code, standard output).
    """
    out = io.StringIO()
    with contextlib.ExitStack() as stack:
        for name, value in patches.items():
            stack.enter_context(mock.patch.object(bench, name, value))
        stack.enter_context(contextlib.redirect_stdout(out))
        code = bench.main(bench_argv(workload, 0))
    return code, out.getvalue()


def result_with_pins(workload, pins):
    code, out = bench_in_process(workload, load_pins=lambda: pins)
    assert code == 0, out
    return json.loads(out.strip().splitlines()[-1])


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_schema(result, units):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))


def shipped_tiny_pins(workload):
    pins = bench.load_pins()
    key = seed_key(WORKLOADS[workload], DEFAULT_SEED)
    return pins, pins[workload]["tiny"][key]


def test_metric_tables_match_contract():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in contract["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == bench.PER_LAYER
    assert sorted(w["name"] for w in contract["workloads"]) == sorted(WORKLOADS)


def test_end_to_end_schema():
    for workload in WORKLOADS:
        result = result_of(bench_run(workload, 0))
        check_schema(result, bench.END_TO_END)
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, (workload, name)


def test_per_layer_schema_and_bypass():
    for workload in WORKLOADS:
        metrics = result_of(bench_run(workload, 1))["metrics"]
        check_schema({"correct": True, "attempted": 1, "failed": 0,
                      "metrics": metrics}, bench.PER_LAYER)
        values = {name: m["value"] for name, m in metrics.items()}
        for name in BYPASSED[workload]:
            assert values[name] == 0, (workload, name, values[name])
        for name in EXERCISED[workload]:
            assert values[name] > 0, (workload, name)
        if values["kernel.builds"]:
            assert values["kernel.native_ratio"] == 1, workload


def test_planted_digest_raises_failed():
    pins, entry = shipped_tiny_pins("design-sweep")
    pinned = result_of(bench_run("design-sweep", 0))
    # A seed with no entry of its own runs the independent checks only.
    unpinned = result_with_pins("design-sweep",
                                {"design-sweep": {"tiny": {"other": entry}}})
    # The pinned digest is one more check per measured run, and it passes.
    assert pinned["attempted"] > unpinned["attempted"] and pinned["correct"]
    entry["render_sha256"] = "0" * 64
    planted = result_with_pins("design-sweep", pins)
    assert planted["correct"] is False and planted["failed"] >= 1


def test_planted_damage_raises_failed():
    pins, entry = shipped_tiny_pins("attack-grid")
    entry["damages"][0] += 1
    planted = result_with_pins("attack-grid", pins)
    assert planted["correct"] is False and planted["failed"] >= 1


def test_refuses_without_pins():
    # A missing pins file, or one without the workload, is an error, not
    # a quietly weaker gate.
    for patches in ({"PINS": SCRATCH / "missing.json"},
                    {"load_pins": lambda: {"attack-grid": {}}}):
        code, out = bench_in_process("design-sweep", **patches)
        assert code != 0 and '"metrics"' not in out, patches


def test_refuses_without_package_source():
    bare = SCRATCH / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench_run("design-sweep", 0, cwd=bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def teardown_module(module):
    shutil.rmtree(SCRATCH, ignore_errors=True)


def main() -> int:
    failures = 0
    try:
        for name, test in sorted(globals().items()):
            if not name.startswith("test_"):
                continue
            try:
                test()
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc}")
            else:
                print(f"ok   {name}")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
