"""Perf record for the multicore native kernel + mmap substrate (BENCH_6.json).

Two sections:

* **thread sweep** — a fixed kernel workload (bulk gain rebuild,
  add/remove segment sweeps, a polish pass, one local-search attack) at
  1 / 2 / 4 kernel threads over a b = 2e6 instance whose node segments
  cross every ``GK_MT_*`` threshold. The sweep *always* asserts
  bit-identity: packed gain-state bytes, polished node lists and full
  :class:`AttackResult` values must match the serial run exactly at
  every thread count. Wall-clock speedup is **measured** and recorded
  together with ``cpu_count``; the measured number is only gated
  (>= 1.8x at 4 threads) on hosts with >= 4 cores. On smaller hosts the
  record additionally carries a clearly-labeled **partition-predicted**
  speedup (Amdahl over the kernel's partition structure: per-object /
  per-segment loop units scale with lanes, the per-lane gain-table merge
  and dispatch do not) — an honest "what the partitioning permits", not
  a claim about this host.
* **mmap scale** — a b = 1e7 placement artifact loaded to engine-ready
  (placement constructed, row buffer addressable, spot row reads) in a
  fresh subprocess, eagerly vs ``mmap=True``, recording wall clock and
  ``ru_maxrss``. The mmap arm must come in below the eager arm's
  resident memory: the eager path holds a 120 MB heap copy of the rows,
  the mapped path pages in only what is touched.

Run (writes the repo-top-level ``BENCH_6.json``)::

    PYTHONPATH=src python benchmarks/bench_native.py

CI smoke (small sizes, gates only, no BENCH_6.json)::

    PYTHONPATH=src python benchmarks/bench_native.py --smoke
"""

import argparse
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile
import time

from repro.core import native
from repro.core.adversary import best_attack
from repro.core.kernels import make_kernel, numpy_available
from repro.core.random_placement import RandomStrategy

BENCH_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_6.json"
OUTPUT_DIR = pathlib.Path(__file__).resolve().parent / "output"

THREAD_COUNTS = (1, 2, 4)
#: Measured-speedup gate at 4 threads, applied only when the host really
#: has >= 4 cores; a loaded CI runner still has ~10% headroom under the
#: near-linear scaling the partitioned loops allow.
SPEEDUP_FLOOR = 1.8

#: Thread-sweep instance: heavy node segments (b * r / n = 250k) so the
#: bulk, segment and sweep paths all cross their GK_MT_* thresholds.
SWEEP_N, SWEEP_R, SWEEP_B, SWEEP_S = 24, 3, 2_000_000, 2
SWEEP_REPS = 3
#: mmap-scale instance (the ISSUE 6 headline scale).
MMAP_N, MMAP_R, MMAP_B = 512, 3, 10_000_000
SPOT_ROWS = 1024

SMOKE_SWEEP = (12, 3, 60_000, 2)
SMOKE_MMAP_B = 200_000


def _configured(threads):
    class _Ctx:
        def __enter__(self):
            self.previous = native.configured_threads()
            native.configure_threads(threads)

        def __exit__(self, *exc):
            native.configure_threads(self.previous)

    return _Ctx()


def sweep_placement(n, r, b):
    return RandomStrategy(n, r).place(b, random.Random(17))


def sweep_workload(kernel, n):
    """One deterministic pass over every threaded kernel path.

    Returns the full observable outcome — damages, polished nodes and
    the packed gain-state bytes — so callers can compare runs
    byte-for-byte.
    """
    bulk = list(range(0, min(12, n), 2))  # 6 nodes: heavy fold
    hits = kernel.hits_for(bulk)
    bulk_damage = kernel.damage_of(hits)
    extra = (max(bulk) + 1) % n
    hits = kernel.add_node(hits, extra)
    hits = kernel.remove_node(hits, extra)
    nodes = list(bulk)
    hits, polished_damage, improved = kernel.polish_pass(
        hits, nodes, kernel.damage_of(hits)
    )
    state = hits.state.tobytes() if hasattr(hits, "state") else bytes()
    return (bulk_damage, polished_damage, improved, tuple(nodes), state)


def predicted_speedups(b, r, n, bulk_nodes):
    """Amdahl over the partition structure, clearly labeled a prediction.

    Parallel units: the per-object flag/count/gain loops of a bulk
    rebuild (``fold + 2b``) plus the polish sweep's segment walks.
    Serial units: per-lane gain-table merges (``lanes * (n + 1)`` per
    threaded call) plus a fixed dispatch cost per call. This is what the
    partitioning permits under ideal scaling — the measured numbers on
    this host are recorded next to it.
    """
    fold = bulk_nodes * (b * r // n)
    parallel_units = fold + 2 * b
    out = {}
    for lanes in THREAD_COUNTS:
        serial_units = lanes * (n + 1) + 4096  # merge + dispatch per call
        p = parallel_units / (parallel_units + serial_units)
        out[str(lanes)] = round(1.0 / ((1.0 - p) + p / lanes), 3)
    return out


def thread_sweep(n, r, b, s, reps, report):
    placement = sweep_placement(n, r, b)
    outcomes = {}
    seconds = {}
    attacks = {}
    for threads in THREAD_COUNTS:
        with _configured(threads):
            kernel = make_kernel(placement, s, gain_backing="native")
            outcomes[threads] = sweep_workload(kernel, n)
            best = None
            for _ in range(reps):
                start = time.perf_counter()
                sweep_workload(kernel, n)
                elapsed = time.perf_counter() - start
                best = elapsed if best is None else min(best, elapsed)
            seconds[threads] = best
            attacks[threads] = best_attack(
                placement,
                4,
                s,
                effort="fast",
                rng=random.Random(5),
                kernel=kernel,
            )
    bit_identical = all(
        outcomes[t] == outcomes[1] and attacks[t] == attacks[1]
        for t in THREAD_COUNTS
    )
    cores = os.cpu_count() or 1
    measured = {
        str(t): round(seconds[1] / seconds[t], 3) for t in THREAD_COUNTS
    }
    report["thread_sweep"] = {
        "n": n, "r": r, "b": b, "s": s,
        "cpu_count": cores,
        "threads": list(THREAD_COUNTS),
        "workload_seconds": {
            str(t): round(seconds[t], 4) for t in THREAD_COUNTS
        },
        "measured_speedup": measured,
        "measured_speedup_gated": cores >= 4,
        "partition_predicted_speedup": predicted_speedups(
            b, r, n, min(12, n) // 2
        ),
        "attack_damage": attacks[1].damage,
        "bit_identical": bit_identical,
    }
    status = 0
    if not bit_identical:
        print(
            "FAIL: threaded kernel results diverged from serial",
            file=sys.stderr,
        )
        status = 1
    if cores >= 4 and measured["4"] < SPEEDUP_FLOOR:
        print(
            f"FAIL: measured 4-thread speedup {measured['4']}x below the "
            f"{SPEEDUP_FLOOR}x floor on a {cores}-core host",
            file=sys.stderr,
        )
        status = 1
    return status


def synth_rows(b, n, r):
    """Valid sorted/distinct rows at scale, vectorized (numpy required)."""
    import numpy as np

    starts = (np.arange(b, dtype=np.int64) * 7919) % (n - r)
    return (starts[:, None] + np.arange(r, dtype=np.int64)[None, :]).astype(
        np.int32
    )


def _peak_rss_kb():
    """This process's own peak RSS in KB.

    ``getrusage`` is a trap here: on Linux a forked child's maxrss folds
    in the parent's pre-exec address space, so a benchmark parent holding
    the synthesized rows would inflate every child identically. VmHWM
    comes from the post-exec mm and only counts what the child itself
    touched.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:  # pragma: no cover - non-procfs platforms
        pass
    import resource  # pragma: no cover - fallback, coarser semantics

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _measure_child(mode, path):
    """Subprocess arm: load to engine-ready, report wall + peak RSS."""
    from repro.core.artifact import load_placement

    start = time.perf_counter()
    placement = load_placement(path, validate=False, mmap=(mode == "mmap"))
    rows = placement.replica_array()
    load_seconds = time.perf_counter() - start
    rng = random.Random(3)
    spot = 0
    for _ in range(SPOT_ROWS):
        obj = rng.randrange(placement.b)
        spot ^= rows[obj * placement.r]
    seconds = time.perf_counter() - start
    peak_kb = _peak_rss_kb()
    print(json.dumps({
        "mode": mode,
        "b": placement.b,
        "load_seconds": round(load_seconds, 4),
        "engine_ready_seconds": round(seconds, 4),
        "max_rss_kb": peak_kb,
        "spot_xor": spot,
    }))


def _measure(mode, path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(
        pathlib.Path(__file__).resolve().parent.parent / "src"
    )
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--_measure", mode, path],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def mmap_scale(b, n, r, report, gate_rss):
    from repro.core.artifact import save_npz
    from repro.core.placement import Placement

    rows = synth_rows(b, n, r)
    placement = Placement.from_arrays(n, rows, strategy="bench", validate=False)
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "p.npz")
        start = time.perf_counter()
        save_npz(placement, path)
        save_seconds = time.perf_counter() - start
        eager = _measure("eager", path)
        mapped = _measure("mmap", path)
    if eager["spot_xor"] != mapped["spot_xor"]:
        print("FAIL: mmap spot reads diverged from eager", file=sys.stderr)
        return 1
    report["mmap_scale"] = {
        "n": n, "r": r, "b": b,
        "artifact_bytes": 4 * b * r,
        "save_seconds": round(save_seconds, 4),
        "spot_rows": SPOT_ROWS,
        "eager": {k: eager[k] for k in (
            "load_seconds", "engine_ready_seconds", "max_rss_kb"
        )},
        "mmap": {k: mapped[k] for k in (
            "load_seconds", "engine_ready_seconds", "max_rss_kb"
        )},
        "rss_ratio": round(eager["max_rss_kb"] / mapped["max_rss_kb"], 2),
        "rss_gated": gate_rss,
    }
    if gate_rss and mapped["max_rss_kb"] >= eager["max_rss_kb"]:
        print(
            f"FAIL: mmap engine-ready RSS {mapped['max_rss_kb']} KB not "
            f"below eager baseline {eager['max_rss_kb']} KB",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small sizes, gates only, no BENCH_6.json",
    )
    parser.add_argument(
        "--_measure", nargs=2, metavar=("MODE", "PATH"), default=None,
        help=argparse.SUPPRESS,
    )
    args = parser.parse_args(argv)
    if args._measure is not None:
        _measure_child(*args._measure)
        return 0

    if not native.available():
        print(
            f"SKIP: native kernel unavailable ({native.load_error()}); "
            "nothing to benchmark",
        )
        return 0
    report = {"compile_info": native.compile_info()}
    if args.smoke:
        n, r, b, s = SMOKE_SWEEP
        status = thread_sweep(n, r, b, s, reps=1, report=report)
        if numpy_available():
            # Tiny artifact: only correctness gates; the interpreter
            # baseline swamps any RSS signal at this size.
            status = mmap_scale(
                SMOKE_MMAP_B, MMAP_N, MMAP_R, report, gate_rss=False
            ) or status
        print(json.dumps(report, indent=1))
        return status

    status = thread_sweep(
        SWEEP_N, SWEEP_R, SWEEP_B, SWEEP_S, reps=SWEEP_REPS, report=report
    )
    if numpy_available():
        status = mmap_scale(
            MMAP_B, MMAP_N, MMAP_R, report, gate_rss=True
        ) or status
    else:  # pragma: no cover - numpy is present everywhere we run this
        report["mmap_scale"] = {"skipped": "numpy unavailable"}
    text = json.dumps(report, indent=1)
    print(text)
    if status == 0:
        BENCH_PATH.write_text(text + "\n")
        OUTPUT_DIR.mkdir(exist_ok=True)
        (OUTPUT_DIR / "BENCH_native.json").write_text(text + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
