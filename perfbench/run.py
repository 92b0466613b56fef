#!/usr/bin/env python3
"""The repo's benchmark: one command behind every performance claim.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload design-sweep --seed 1 \\
        --seconds 20 --trace 0

Each measured run is a fresh interpreter (``child.py``) with every
``REPRO_*`` variable removed from its environment. Runs repeat until
``--seconds`` have passed, with at least ``MIN_RUNS`` of them, and the
medians are reported. Before any timing, one ``child.py prepare`` step
builds the native kernel, compiles the package's bytecode and writes the
seeded inputs. Users pay those costs once per install, not once per run.

``--trace 0`` reports the end-to-end metrics. On an interpreter-bound
workload they are scaled to a reference interpreter speed, measured by a
fixed loop timed beside the runs (``clock_loop``). ``--trace 1`` makes
one untraced run and one traced run, and reports the per-layer metrics
from the traced one (see ``ledger.py``).

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` (the correctness checks; ``error_rate`` is
``failed / attempted``) and ``metrics``. The lines before it give
the same figures for people to read, plus the host and build facts.
"""

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
#: The pinned outputs every run is checked against (see ``pin.py``).
PINS = HERE / "pins.json"

sys.path.insert(0, str(HERE))
from workloads import (  # noqa: E402 - after the path set-up above
    DEFAULT_SEED,
    HELDOUT_SEED,
    SCALES,
    WORKLOADS,
    pinned_checks,
    seed_key,
)

#: End-to-end metrics (``--trace 0``), with their units.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``), with their units.
PER_LAYER = {
    "cli.import_s": "s",
    "designs.existence.calls": "count",
    "designs.existence_s": "s",
    "designs.difference_family.calls": "count",
    "designs.difference_family_s": "s",
    "subsystems.admissible_orders.calls": "count",
    "subsystems.capacity_gap_s": "s",
    "placement.random.calls": "count",
    "placement.random_s": "s",
    "placement.random.objects_per_s": "objects/s",
    "engine.builds": "count",
    "engine.build_s": "s",
    "engine.cache.hit_ratio": "ratio",
    "engine.apply_delta.calls": "count",
    "engine.apply_delta_s": "s",
    "attack.searches": "count",
    "attack.search_s": "s",
    "attack.memo.hit_ratio": "ratio",
    "attack.evaluations": "count",
    "attack.evaluations_per_s": "evals/s",
    "attack.restarts": "count",
    "kernel.builds": "count",
    "kernel.native_ratio": "ratio",
    "cluster.availability.calls": "count",
    "cluster.availability_s": "s",
    "sim.mirror.flush_s": "s",
    "sim.strike.select_s": "s",
    "runner.shards": "count",
    "runner.retries": "count",
    "runner.shard_s": "s",
    "runner.busy_ratio": "ratio",
    "store.commits": "count",
    "store.commit_s": "s",
    "store.bytes": "bytes",
    "analysis.assemble_s": "s",
    "analysis.render_s": "s",
    "trace.attributed_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

#: What one op is: the unit of ``ops_per_s`` and ``op_p*_ms``.
OP_NAMES = {
    "design-sweep": "fig5 n row",
    "random-figure": "fig7 shard",
    "lifetime-sim": "simulator event",
    "attack-grid": "attack",
}

CHILD_TIMEOUT = 170
PREPARE_TIMEOUT = 600
#: Measured runs per benchmark run, at the least.
MIN_RUNS = 3
#: Set-up samples per run: measured runs plus set-up-only runs.
SETUP_SAMPLES = 9
#: ``clock_loop``'s time at the reference interpreter speed. Times of an
#: interpreter-bound workload are reported at this speed.
CLOCK_REF_S = 0.2


class BenchError(RuntimeError):
    pass


def removed_env():
    """The ``REPRO_*`` variables no child sees."""
    return sorted(name for name in os.environ if name.startswith("REPRO_"))


def child_env(rundir: Path) -> dict:
    """The environment of every child: no ``REPRO_*``, private caches."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    # The native kernel's build cache lives in the checkout, not $HOME.
    env["XDG_CACHE_HOME"] = str(WORK / "cache")
    env["TMPDIR"] = str(rundir / "tmp")
    return env


@contextlib.contextmanager
def prepared(name: str, seed: int, scale: str):
    """A run directory holding the workload's inputs, built and warm.

    Yields ``(rundir, env)``; the directory is removed afterwards.
    """
    WORK.mkdir(exist_ok=True)
    rundir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    (rundir / "tmp").mkdir(parents=True)
    env = child_env(rundir)
    try:
        inputs = WORKLOADS[name].inputs(seed, scale)
        (rundir / "inputs.json").write_text(json.dumps(inputs))
        call_child(["prepare", "--workload", name, "--dir", str(rundir)],
                   env, timeout=PREPARE_TIMEOUT)
        yield rundir, env
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def call_child(argv, env, timeout=CHILD_TIMEOUT) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *argv],
        cwd=str(ROOT), env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, timeout=timeout, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"child {argv[0]} exited {proc.returncode}:\n"
            + proc.stderr[-4000:]
        )
    return json.loads(lines[-1])


def measured_run(name, rundir, env, index, trace=False, setup_only=False):
    """One fresh interpreter, timed from just before its launch."""
    scratch = rundir / f"p{index}"
    scratch.mkdir()
    argv = ["run", "--workload", name, "--dir", str(rundir),
            "--rundir", str(scratch)]
    if trace:
        argv += ["--trace", str(scratch / "trace.jsonl")]
    if setup_only:
        argv.append("--setup-only")
    argv += ["--t0", repr(time.perf_counter())]
    try:
        return call_child(argv, env)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def clock_loop() -> float:
    """Seconds a fixed pure-Python loop takes: the interpreter speed now.

    On a shared host the same loop takes from 0.16 to 0.29 s within
    minutes, with no steal, and pure-Python work slows with it. Native
    kernels do not follow it, so only interpreter-bound workloads are
    scaled by it.
    """
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(1_500_000):
        total += i * i % 7
        table[i & 255] = total
    return time.perf_counter() - start


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(records, setups, factors):
    """(the end-to-end metrics, the number of latency samples).

    ``setups`` holds (index of the measured run it follows, seconds).
    Every time of measured run ``i``, and each set-up after it, is
    multiplied by ``factors[i]``.
    """
    latencies = [
        x * k for record, k in zip(records, factors)
        for x in record["latencies"]
    ]
    pairs = list(zip(records, factors))
    values = {
        "setup_s": statistics.median(t * factors[i] for i, t in setups),
        "wall_s": statistics.median(r["wall_s"] * k for r, k in pairs),
        "ops_per_s": statistics.median(
            r["ops"] / (r["run_s"] * k) for r, k in pairs
        ),
        "op_p50_ms": 1000 * percentile(latencies, 0.50),
        "op_p95_ms": 1000 * percentile(latencies, 0.95),
        "peak_rss_mb": statistics.median(r["rss_kb"] for r in records) / 1024,
    }
    return values, len(latencies)


def git_rev():
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def steal_seconds():
    """CPU time the host has stolen from this machine so far (Linux)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def sample(args, rundir, env, timed_clock):
    """Measured runs for ``--seconds``, interleaved with set-up-only runs.

    A run is launched while at least half a run's time remains, and at
    least ``MIN_RUNS`` happen. Set-up-only runs top the set-up samples
    up to ``SETUP_SAMPLES``, spread over the window. With
    ``timed_clock``, ``clock_loop`` runs before each measured run and
    after the last, so each run has a loop time on either side. Returns
    (records, (run index, set-up time) pairs, clock-loop times).
    """
    deadline = time.perf_counter() + args.seconds
    records, setups, durations, clocks, launched = [], [], [], [], 0
    while True:
        remaining = deadline - time.perf_counter()
        if len(records) >= MIN_RUNS and (
            remaining < statistics.median(durations) / 2
        ):
            break
        if timed_clock:
            clocks.append(clock_loop())
        start = time.perf_counter()
        record = measured_run(args.workload, rundir, env, launched)
        launched += 1
        durations.append(time.perf_counter() - start)
        records.append(record)
        setups.append((len(records) - 1, record["setup_s"]))
        while len(setups) < min(SETUP_SAMPLES, 3 * len(records)):
            extra = measured_run(args.workload, rundir, env, launched,
                                 setup_only=True)
            launched += 1
            setups.append((len(records) - 1, extra["setup_s"]))
    if timed_clock:
        clocks.append(clock_loop())
    return records, setups, clocks


def load_pins() -> dict:
    """The pinned outputs, by workload and scale, then by seed."""
    if not PINS.is_file():
        raise BenchError(f"no pinned outputs at {PINS}")
    return json.loads(PINS.read_text())


def expected_outputs(workload, seed: int, scale: str):
    """The outputs pinned for this seed, or ``None`` for an unpinned seed.

    Every workload and scale must have pins; only the seed may be new.
    """
    by_seed = load_pins().get(workload.name, {}).get(scale)
    if not by_seed:
        raise BenchError(f"{PINS} pins nothing for {workload.name} at "
                         f"scale {scale}")
    return by_seed.get(seed_key(workload, seed))


def score(records, expected):
    """(attempted, failed, failure lines) over every check of every run."""
    attempted, failures = 0, []
    for record in records:
        checks = [tuple(c) for c in record["checks"]]
        checks += pinned_checks(record["observed"], expected)
        attempted += len(checks)
        failures += [f"{name}: {detail}" for name, ok, detail in checks if not ok]
    return attempted, failures


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; the "
                        f"held-out confirmation seed is {HELDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="full",
                        help="tiny: small inputs for the self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: no package source at {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    stolen = steal_seconds()
    clock = None
    try:
        expected = expected_outputs(workload, args.seed, args.scale)
        with prepared(args.workload, args.seed, args.scale) as (rundir, env):
            if args.trace:
                plain = measured_run(args.workload, rundir, env, 0)
                traced = measured_run(args.workload, rundir, env, 1, trace=True)
                records = [plain, traced]
                metrics = dict(traced["layers"])
                metrics["trace.overhead_ratio"] = (
                    traced["wall_s"] / plain["wall_s"]
                )
                note = "one untraced and one traced process"
            else:
                records, setups, clocks = sample(
                    args, rundir, env, workload.interpreter_bound
                )
                measured, samples = end_to_end(
                    records, setups, [1.0] * len(records)
                )
                metrics = measured
                note = (f"op = one {OP_NAMES[args.workload]}; "
                        f"{samples} latency samples")
                if clocks:
                    # Run i is scaled by the mean of the loop times just
                    # before and just after it.
                    factors = [
                        2 * CLOCK_REF_S / (before + after)
                        for before, after in zip(clocks, clocks[1:])
                    ]
                    metrics, _ = end_to_end(records, setups, factors)
                    clock = statistics.median(clocks)
                    note += (
                        f"\n  times at the reference interpreter speed, "
                        f"clock loop {CLOCK_REF_S} s; here its median was "
                        f"{clock:.4f} s over {len(clocks)}; as measured: "
                        + ", ".join(f"{name} {value:.6g}"
                                    for name, value in measured.items())
                    )
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END

    attempted, failures = score(records, expected)
    host = dict(records[-1]["host"], git_rev=git_rev(),
                removed_env=removed_env(), pinned=expected is not None)
    if clock is not None:
        host["clock_loop_s"] = clock
    if stolen is not None:
        # Steal time is CPU the hypervisor gave to other guests while this
        # run was measuring. Runs with much of it are slow for reasons
        # outside the program; compare them with care.
        host["steal_s"] = round(steal_seconds() - stolen, 2)
    host["off_native"] = (
        host["gain_backing"] != "native" or bool(host["demotions"])
        or (metrics.get("kernel.builds", 0) > 0
            and metrics["kernel.native_ratio"] < 1)
    )

    print(f"workload {args.workload}  seed {args.seed}"
          f"{'' if workload.seeded else ' (seedless)'}  scale {args.scale}"
          f"  runs {len(records)}  pinned {'yes' if expected else 'no'}")
    print(f"  {note}")
    for name, value in metrics.items():
        print(f"  {name:<38} {value:>16.6g} {units[name]}")
    print(f"  {'error_rate':<38} {len(failures) / attempted:>16.6g} "
          f"failed/attempted ({len(failures)}/{attempted})")
    for line in failures[:20]:
        print(f"  FAILED {line}")
    print(json.dumps({"host": host}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
