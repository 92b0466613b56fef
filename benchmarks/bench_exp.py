"""Experiment-engine benchmark: sharded runner vs serial sweep, and resume.

Measures the declarative engine on the paper's two simulation sweeps
(the Fig. 2 tightness grid and the Fig. 7 Monte-Carlo grid):

* **serial**: every shard computed in-process, in expansion order — the
  same work and the same results as the pre-refactor hand-written figure
  loops (pinned bit-identical by ``tests/exp/test_figures_pinned.py``);
* **sharded**: the same specs through ``run_experiment(workers=N)``.
  Results are bit-identical by construction; only wall-clock changes;
* **cpu_count** is recorded next to the measurements: on a machine
  with fewer than N cores the sharded time cannot beat serial (the work
  is CPU-bound), so the measured speedup only speaks for hosts with
  cores >= workers;
* **resume**: a fig2 run interrupted at roughly half its cells, then
  resumed; the record asserts zero completed cells were recomputed and
  that the resumed store is byte-identical to an uninterrupted run.

Run::

    PYTHONPATH=src python benchmarks/bench_exp.py

Writes ``BENCH_5.json`` at the repository root (override with
``REPRO_BENCH_OUT``). ``REPRO_WORKERS`` sets the sharded worker count
(default 4); ``REPRO_REPS``/``REPRO_B_MAX`` scale the grids as usual.
"""

import json
import os
import pathlib
import sys
import tempfile
import time

from repro.analysis import fig2, fig7
from repro.core.batch import clear_attack_caches
from repro.exp.registry import kernel
from repro.exp.runner import run_experiment
from repro.exp.store import RunStore

DEFAULT_WORKERS = 4


def _group_slices(spec):
    definition = kernel(spec.experiment)
    cells = definition.expand(spec)
    slices = []
    start = 0
    for index in range(1, len(cells) + 1):
        if index == len(cells) or (
            definition.group_key(spec, cells[index])
            != definition.group_key(spec, cells[start])
        ):
            slices.append(cells[start:index])
            start = index
    return definition, cells, slices


def time_serial(spec):
    """Per-shard serial timings (the pre-refactor execution pattern)."""
    definition, cells, slices = _group_slices(spec)
    clear_attack_caches()
    group_seconds = []
    results = []
    for group in slices:
        begin = time.perf_counter()
        results.extend(definition.run_group(spec, group))
        group_seconds.append(time.perf_counter() - begin)
    normalized = json.loads(json.dumps(results))
    return sum(group_seconds), group_seconds, normalized


def time_sharded(spec, workers):
    clear_attack_caches()
    begin = time.perf_counter()
    run = run_experiment(spec, workers=workers)
    return time.perf_counter() - begin, run.metrics


def bench_grid(name, spec, workers):
    serial_seconds, group_seconds, serial_metrics = time_serial(spec)
    sharded_seconds, sharded_metrics = time_sharded(spec, workers)
    if serial_metrics != sharded_metrics:
        raise AssertionError(
            f"{name}: sharded metrics diverged from serial metrics"
        )
    return {
        "spec_hash": spec.spec_hash()[:16],
        "cells": len(kernel(spec.experiment).expand(spec)),
        "shards": len(group_seconds),
        "serial_seconds": round(serial_seconds, 4),
        "sharded_seconds": round(sharded_seconds, 4),
        "measured_speedup": round(serial_seconds / sharded_seconds, 2),
        "max_shard_seconds": round(max(group_seconds), 4),
        "bit_identical": True,
    }


def bench_resume(spec):
    with tempfile.TemporaryDirectory() as root:
        interrupted = RunStore(os.path.join(root, "interrupted"))
        reference = RunStore(os.path.join(root, "reference"))
        total = len(kernel(spec.experiment).expand(spec))
        partial = run_experiment(spec, store=interrupted, limit=total // 2)
        resumed = run_experiment(spec, store=interrupted, resume=True)
        uninterrupted = run_experiment(spec, store=reference)
        with open(interrupted.cells_file(spec), "rb") as handle:
            resumed_bytes = handle.read()
        with open(reference.cells_file(spec), "rb") as handle:
            reference_bytes = handle.read()
        record = {
            "total_cells": total,
            "interrupted_after": partial.computed,
            "resumed_loaded": resumed.loaded,
            "resumed_computed": resumed.computed,
            "recomputed_completed_cells": resumed.recomputed,
            "store_bit_identical": resumed_bytes == reference_bytes,
            "rerender_recompute": run_experiment(
                spec, store=interrupted
            ).computed,
        }
    if record["recomputed_completed_cells"] != 0:
        raise AssertionError("resume recomputed completed cells")
    if not record["store_bit_identical"]:
        raise AssertionError("resumed store diverged from uninterrupted run")
    if record["rerender_recompute"] != 0:
        raise AssertionError("re-render of a complete run recomputed cells")
    if record["resumed_loaded"] != record["interrupted_after"]:
        raise AssertionError("resume did not serve the stored prefix")
    return record


def main() -> int:
    workers = int(os.environ.get("REPRO_WORKERS", "") or DEFAULT_WORKERS)
    fig2_spec = fig2.default_spec()
    fig7_spec = fig7.default_spec()
    fig2_record = bench_grid("fig2", fig2_spec, workers)
    fig7_record = bench_grid("fig7", fig7_spec, workers)
    serial_total = fig2_record["serial_seconds"] + fig7_record["serial_seconds"]
    sharded_total = (
        fig2_record["sharded_seconds"] + fig7_record["sharded_seconds"]
    )
    report = {
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "fig2": fig2_record,
        "fig7": fig7_record,
        "combined": {
            "serial_seconds": round(serial_total, 4),
            "sharded_seconds": round(sharded_total, 4),
            "measured_speedup": round(serial_total / sharded_total, 2),
            "note": (
                "measured_speedup speaks for hosts with cpu_count >= "
                "workers; on smaller hosts the CPU-bound shards cannot "
                "overlap"
            ),
        },
        "resume": bench_resume(fig2_spec),
    }
    out_path = os.environ.get(
        "REPRO_BENCH_OUT",
        str(pathlib.Path(__file__).resolve().parent.parent / "BENCH_5.json"),
    )
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
