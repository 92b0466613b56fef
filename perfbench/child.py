"""One fresh-interpreter step of a benchmark run (started by ``run.py``).

``child.py prepare`` builds the native kernel, compiles the package's
bytecode and writes a workload's generated input files. ``child.py run``
is one measured run: the package import, ``setup``, then the work. It
prints one JSON record as its last line of output. With ``--trace`` it
also installs the layer wrappers from ``ledger.py`` and reports the
per-layer metrics.
"""

import argparse
import json
import os
import resource
import sys
import time


def _peak_rss_kb() -> int:
    # Linux reports ru_maxrss in KiB; children are the runner's workers.
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def _host() -> dict:
    import platform

    from repro.core import kernels, native

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "native": native.compile_info() if native.available() else None,
        "gain_backing": kernels.resolve_gain_backing(),
        "demotions": kernels.demoted_backings(),
    }


def _inputs(args) -> dict:
    with open(os.path.join(args.dir, "inputs.json"), encoding="utf-8") as handle:
        return json.load(handle)


def prepare(args) -> dict:
    import compileall

    from repro.core import native
    from workloads import WORKLOADS

    src = os.path.dirname(os.path.dirname(native.__file__))
    compileall.compile_dir(src, quiet=1)
    native.available()  # builds the kernel; without a compiler, runs go off-native
    WORKLOADS[args.workload].prepare(_inputs(args), args.dir)
    return {}


def run(args) -> dict:
    started = time.perf_counter()
    import repro.cli  # noqa: F401 - the package import every workload pays
    imported = time.perf_counter()

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    ledger = None
    if args.trace:
        from ledger import Ledger
        from repro import obs

        obs.configure_trace(args.trace)
        obs.set_metrics(True)
        ledger = Ledger(args.trace)
        ledger.record_span("cli.import", started, imported)
        ledger.install()
        mark = obs.checkpoint()

    state = workload.setup(_inputs(args), args.dir)
    set_up = time.perf_counter()
    if args.setup_only:
        return {"setup_s": set_up - args.t0}
    outcome = workload.run(state, args.rundir, probe=ledger is None)
    done = time.perf_counter()
    rss_kb = _peak_rss_kb()

    record = {
        "setup_s": set_up - args.t0,
        "wall_s": done - args.t0,
        "run_s": done - set_up,
        "ops": outcome["ops"],
        "latencies": outcome["latencies"],
        "rss_kb": rss_kb,
    }
    if ledger is not None:
        from ledger import layer_metrics, read_records

        ledger.flush()
        delta = obs.delta_since(mark)
        obs.configure_trace(None)  # the checks below are not traced
        record["layers"] = layer_metrics(
            read_records(args.trace), delta, os.getpid(), done - args.t0,
            workers=state.get("workers", 1),
        )
    record["checks"] = workload.checks(state, outcome)
    record["observed"] = workload.observe(state, outcome)
    record["host"] = _host()
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("prepare", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--dir", required=True, help="the run's input dir")
    parser.add_argument("--rundir", help="run: scratch dir for this process")
    parser.add_argument("--t0", type=float, help="run: launch perf_counter")
    parser.add_argument("--trace", help="run: span JSONL path (traced run)")
    parser.add_argument("--setup-only", action="store_true",
                        help="run: stop after setup (extra setup samples)")
    args = parser.parse_args()
    record = prepare(args) if args.mode == "prepare" else run(args)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
