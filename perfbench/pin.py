#!/usr/bin/env python3
"""Regenerate ``pins.json``: each workload's outputs at this commit.

Usage, from the root of a checkout (a few minutes)::

    python3 perfbench/pin.py

Each (workload, seed) gets one untraced run; its independent checks must
pass before its outputs are pinned. Rerun this only when a change is
meant to alter the outputs, and say so in the change.
"""

import json
import sys

import run as bench
from workloads import DEFAULT_SEED, HELDOUT_SEED, WORKLOADS, seed_key

#: Seeds pinned at full scale: a small range, which covers the default
#: seed, plus the held-out confirmation seed.
PIN_SEEDS = list(range(16)) + [HELDOUT_SEED]


def observe(name: str, seed: int, scale: str) -> dict:
    with bench.prepared(name, seed, scale) as (rundir, env):
        record = bench.measured_run(name, rundir, env, 0)
    failed = [c for c in record["checks"] if not c[1]]
    if failed:
        raise SystemExit(f"{name} seed {seed}: checks failed: {failed}")
    return record["observed"]


def main() -> int:
    pins = {}
    for name, workload in sorted(WORKLOADS.items()):
        seeds = PIN_SEEDS if workload.seeded else [DEFAULT_SEED]
        plan = [("full", seed) for seed in seeds] + [("tiny", DEFAULT_SEED)]
        for scale, seed in plan:
            pins.setdefault(name, {}).setdefault(scale, {})[
                seed_key(workload, seed)
            ] = observe(name, seed, scale)
            print(f"pinned {name} {scale} seed {seed}", file=sys.stderr)
    bench.PINS.write_text(
        json.dumps(pins, indent=1, sort_keys=True) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
