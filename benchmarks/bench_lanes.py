"""Lane benchmark: replicated gain-state lanes vs the serial chain loop.

One claim, measured and gated: the flagship ``local_search_attacks_per_sec``
metric must reach at least 2x the serial path at 4 lanes — each
``LocalSearchAdversary.attack`` submits its greedy + restart polish
chains as one batch, and the native kernel runs each chain to
convergence on a private clone of the packed gain state (one fused
``gk_polish_chain`` foreign call per chain, dispatched across the
persistent pthread pool as coarse tasks).

Alongside the measured wall clock the report records the
**partition-predicted** speedup — with ``C`` chains over ``L`` lanes the
critical path is the longest lane, ``ceil(C / L)`` chains, so prediction
= ``C / ceil(C / L)`` capped by the core count — which states how much
of the ideal the measurement achieved.

Bit-identity is gated *unconditionally*: every lane count must produce
the same ``AttackResult`` (nodes, damage, evaluations) as the serial
loop. The wall-clock gate arms only on hosts with >= 4 cores and a
compiled native kernel (fewer cores cannot express a 2x overlap at 4
lanes; the pure-python fallbacks run chains serially by design);
smaller hosts still record honest numbers with
``wall_clock_gated: false``.

Run::

    PYTHONPATH=src python benchmarks/bench_lanes.py

Writes ``BENCH_10.json`` at the repository root (override with
``REPRO_BENCH_OUT``). CI smoke (small scale, gates only, no
BENCH_10.json)::

    PYTHONPATH=src python benchmarks/bench_lanes.py --smoke
"""

import argparse
import json
import math
import os
import pathlib
import random
import sys
import time

from repro.core import native
from repro.core.adversary import LocalSearchAdversary
from repro.core.kernels import make_kernel
from repro.core.random_placement import RandomStrategy

LANE_COUNTS = (1, 2, 4)
GATE_AT_4 = 2.0
ROOT = pathlib.Path(__file__).resolve().parent.parent

FULL = dict(n=192, r=3, b=60_000, k=8, s=2, restarts=11, attacks=6, reps=3)
SMOKE = dict(n=64, r=3, b=4_000, k=4, s=2, restarts=7, attacks=2, reps=2)


def _predicted_speedup(chains, lanes, cores):
    """Critical-path prediction: longest lane, capped by the cores."""
    ideal = chains / math.ceil(chains / lanes)
    return min(ideal, float(cores))


def _measure(placement, kernel, scale, lanes):
    """Min-of-reps wall clock for a block of whole attacks; plus results."""
    adversary = LocalSearchAdversary(restarts=scale["restarts"], lanes=lanes)
    times, results = [], None
    for _ in range(scale["reps"]):
        begin = time.perf_counter()
        block = [
            adversary.attack(placement, scale["k"], scale["s"], kernel=kernel)
            for _ in range(scale["attacks"])
        ]
        times.append(time.perf_counter() - begin)
        if results is None:
            results = block
        elif block != results:
            raise AssertionError(
                f"lanes={lanes}: repeated attack blocks diverged"
            )
    return min(times), results


def bench_lanes(scale, gated):
    placement = RandomStrategy(scale["n"], scale["r"]).place(
        scale["b"], random.Random(10)
    )
    kernel = make_kernel(placement, scale["s"])
    chains = 1 + scale["restarts"]  # greedy polish + every restart
    cores = os.cpu_count() or 1

    entries = {}
    serial_seconds, serial_results = None, None
    for lanes in LANE_COUNTS:
        seconds, results = _measure(placement, kernel, scale, lanes)
        if lanes == 1:
            serial_seconds, serial_results = seconds, results
        identical = results == serial_results
        if not identical:
            raise AssertionError(
                f"lanes={lanes}: certificates diverged from the serial path"
            )
        speedup = serial_seconds / seconds
        rate = scale["attacks"] / seconds
        entry = {
            "lanes": lanes,
            "local_search_attacks_per_sec": round(rate, 2),
            "seconds": round(seconds, 4),
            "speedup": round(speedup, 2),
            "predicted_speedup": round(
                _predicted_speedup(chains, lanes, cores), 2
            ),
            "bit_identical": identical,
        }
        if lanes == 4:
            entry["gate"] = GATE_AT_4
            entry["wall_clock_gated"] = gated
            entry["pass"] = identical and (
                (not gated) or speedup >= GATE_AT_4
            )
        entries[f"lanes_{lanes}"] = entry
    return {
        "n": scale["n"],
        "r": scale["r"],
        "b": scale["b"],
        "k": scale["k"],
        "s": scale["s"],
        "restarts": scale["restarts"],
        "chains_per_attack": chains,
        "attacks_per_block": scale["attacks"],
        "reps": scale["reps"],
        **entries,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small scale, gates only, no BENCH_10.json",
    )
    args = parser.parse_args(argv)
    cores = os.cpu_count() or 1
    gated = cores >= 4 and native.available()

    scale = SMOKE if args.smoke else FULL
    report = {
        "cpu_count": cores,
        "native_kernel": native.available(),
        "attacks": bench_lanes(scale, gated),
    }

    status = 0
    at4 = report["attacks"]["lanes_4"]
    for lanes in LANE_COUNTS:
        if not report["attacks"][f"lanes_{lanes}"]["bit_identical"]:
            print(
                f"FAIL: lanes={lanes} diverged from the serial certificates",
                file=sys.stderr,
            )
            status = 1
    if not at4["pass"]:
        print(
            f"FAIL: 4 lanes reach only {at4['speedup']:.2f}x the serial "
            f"attack rate (gate {at4['gate']:.1f}x, predicted "
            f"{at4['predicted_speedup']:.2f}x on {cores} cores)",
            file=sys.stderr,
        )
        status = 1

    text = json.dumps(report, indent=1)
    print(text)
    if args.smoke:
        return status
    if status == 0:
        out_path = os.environ.get(
            "REPRO_BENCH_OUT", str(ROOT / "BENCH_10.json")
        )
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
