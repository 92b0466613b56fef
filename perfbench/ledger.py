"""The traced run: per-layer spans and counters, recorded from outside.

Nothing under ``src/`` changes. :class:`Ledger` wraps the public
functions of each layer where their callers look them up: module
attributes in every loaded ``repro`` module that holds the same object,
plus class attributes for methods. It records:

* **spans** through :func:`repro.obs.span` for coarse calls. These are
  exported with the program's own spans to one JSONL file, which pool
  workers share because they fork after the wrappers are installed;
* **aggregates** for hot calls, such as ``existence`` at about 1.9M calls
  per fig5. Each aggregate is a call count plus a total time, kept per
  enclosing span and written as one synthetic record with the same
  fields, so :func:`repro.obs.profile.build_profile` computes self time
  across both kinds. Only the outermost call of a name is timed;
  recursive and nested calls only count;
* **counters** from the metrics registry, read as
  ``obs.delta_since(obs.checkpoint())`` around the run. Pool workers'
  deltas are merged by the runner.

:func:`layer_metrics` turns the records and the counter delta into the
per-layer metrics that ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import sys
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro import obs
from repro.obs import trace as obs_trace
from repro.obs.profile import build_profile

#: Spans whose own (self) time is not attributed to any layer: the
#: generic shard wrapper the runner puts around every kernel call.
CONTAINER_SPANS = ("runner.shard",)


class Ledger:
    """Installs the layer wrappers for one traced process tree."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._pending: Dict[tuple, Dict[str, Any]] = {}
        self._active: Dict[str, Dict[str, Any]] = {}
        self._hot_stack: List[Dict[str, Any]] = []
        self._next_seq = -1
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording ------------------------------------------------------------

    def _after_fork(self) -> None:
        # A forked worker owns none of the parent's pending aggregates.
        self._pending = {}
        self._active = {}
        self._hot_stack = []

    def _write(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)

    def record_span(self, name: str, start: float, end: float, **attrs) -> None:
        """A root-level span measured by the caller (e.g. the import)."""
        self._write({
            "name": name, "ts": round(time.time() - (end - start), 6),
            "dur": round(end - start, 9), "pid": os.getpid(),
            "seq": self._take_seq(), "parent": None, "depth": 0,
            "attrs": attrs,
        })

    def _take_seq(self) -> int:
        # Synthetic records use negative sequence numbers, which never
        # collide with the tracer's positive ones within a process.
        seq = self._next_seq
        self._next_seq -= 1
        return seq

    def flush(self, anchor: Optional[int] = None) -> None:
        """Write finished aggregates anchored at or under span ``anchor``.

        ``None`` writes every finished aggregate (end of process).
        """
        in_flight = {id(record) for record in self._hot_stack}
        for key, record in list(self._pending.items()):
            if id(record) in in_flight:
                continue
            if anchor is not None and (
                record["_anchor"] is None or record["_anchor"] < anchor
            ):
                continue
            del self._pending[key]
            self._write({k: v for k, v in record.items() if k != "_anchor"})

    def hot(self, name: str, fn: Callable) -> Callable:
        """Count-plus-total aggregation for a frequently called function."""
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = ledger._active.get(name)
            if outer is not None:
                outer["attrs"]["calls"] += 1
                return fn(*args, **kwargs)
            if ledger._hot_stack:
                top = ledger._hot_stack[-1]
                parent, anchor, depth = top["seq"], top["_anchor"], top["depth"] + 1
            else:
                stack = obs_trace._stack()
                if stack:
                    parent = anchor = stack[-1].seq
                    depth = len(stack)
                else:
                    parent = anchor = None
                    depth = 0
            key = (name, parent)
            record = ledger._pending.get(key)
            if record is None:
                record = {
                    "name": name, "ts": round(time.time(), 6), "dur": 0.0,
                    "pid": os.getpid(), "seq": ledger._take_seq(),
                    "parent": parent, "depth": depth,
                    "attrs": {"calls": 0, "aggregated": True},
                    "_anchor": anchor,
                }
                ledger._pending[key] = record
            record["attrs"]["calls"] += 1
            ledger._active[name] = record
            ledger._hot_stack.append(record)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record["dur"] += time.perf_counter() - start
                ledger._hot_stack.pop()
                del ledger._active[name]

        return wrapper

    def span(
        self, name: str, fn: Callable,
        attrs: Optional[Callable[..., Dict[str, Any]]] = None,
    ) -> Callable:
        """One :func:`repro.obs.span` per call, for coarse functions."""
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = attrs(*args, **kwargs) if attrs is not None else {}
            current = obs.span(name, **extra)
            try:
                with current:
                    return fn(*args, **kwargs)
            finally:
                seq = getattr(current, "seq", None)
                if seq is not None:
                    ledger.flush(seq)

        return wrapper

    # -- installation ---------------------------------------------------------

    def patch_function(self, module: Any, attr: str, wrap: Callable) -> None:
        """Replace ``module.attr`` wherever a ``repro`` module holds it."""
        original = getattr(module, attr)
        wrapped = wrap(original)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, name, wrapped)

    @staticmethod
    def patch_method(cls: type, attr: str, wrap: Callable) -> None:
        setattr(cls, attr, wrap(cls.__dict__[attr]))

    def install(self) -> None:
        """Wrap every layer's public functions (call after the imports)."""
        import repro.analysis.fig5  # noqa: F401 - bind the names it imports
        import repro.analysis.fig7  # noqa: F401
        import repro.cli  # noqa: F401
        import repro.sim  # noqa: F401
        from repro.cluster import cluster, failures
        from repro.core import adversary, batch, random_placement
        from repro.core import subsystems
        from repro.designs import catalog, difference_family
        from repro.exp import registry, runner
        from repro.sim import mirror

        hot, span = self.hot, self.span
        patch, method = self.patch_function, self.patch_method

        # designs
        patch(catalog, "existence", lambda f: hot("designs.existence", f))
        for name in ("find_difference_family", "cyclic_2design",
                     "difference_family_constructible"):
            patch(difference_family, name,
                  lambda f: hot("designs.difference_family", f))
        # subsystems
        patch(subsystems, "_admissible_orders",
              lambda f: hot("subsystems.admissible_orders", f))
        patch(subsystems, "capacity_gap",
              lambda f: hot("subsystems.capacity_gap", f))
        # placement
        method(random_placement.RandomStrategy, "place",
               lambda f: span("placement.random", f,
                              attrs=lambda self_, b, *a, **k: {"b": b}))
        # engine
        method(batch.AttackEngine, "__init__",
               lambda f: span("engine.build", f))
        method(batch.AttackEngine, "kernel", lambda f: span("engine.kernel", f))
        method(batch.AttackEngine, "apply_delta",
               lambda f: hot("engine.apply_delta", f))
        # attack
        patch(adversary, "best_attack", lambda f: span("attack.search", f))
        # cluster and sim
        method(cluster.Cluster, "availability",
               lambda f: hot("cluster.availability", f))
        method(mirror.EngineMirror, "flush", lambda f: hot("sim.mirror.flush", f))
        method(failures.WorstCaseInjector, "select",
               lambda f: span("sim.strike.select", f))
        # sim.run and analysis.kernel feed no metric of their own. They
        # are the root span of the simulator loop and the span inside
        # every runner.shard, so trace.attributed_ratio counts their
        # self time as attributed.
        method(repro.sim.LifetimeSimulator, "run", lambda f: span("sim.run", f))
        # runner and analysis
        patch(runner, "run_experiment", lambda f: span("runner.run", f))
        wrapped_kernels: Dict[str, Any] = {}

        def traced_kernel(resolve):
            def kernel(name):
                found = resolve(name)
                if name not in wrapped_kernels:
                    wrapped_kernels[name] = dataclasses.replace(
                        found,
                        run_group=span("analysis.kernel", found.run_group),
                        assemble=span("analysis.assemble", found.assemble),
                        render=span("analysis.render", found.render),
                    )
                return wrapped_kernels[name]
            return kernel

        patch(registry, "kernel", traced_kernel)


def read_records(path: str) -> List[Dict[str, Any]]:
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _calls(records: Iterable[Dict[str, Any]]) -> int:
    return sum(record.get("attrs", {}).get("calls", 1) for record in records)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    records: Sequence[Dict[str, Any]],
    delta: Dict[str, Any],
    main_pid: int,
    traced_wall: float,
    workers: int,
) -> Dict[str, float]:
    """The per-layer metrics from the span records and counter delta."""
    by_name: Dict[str, List[Dict[str, Any]]] = {}
    for record in records:
        by_name.setdefault(record["name"], []).append(record)

    def total(name: str) -> float:
        return sum(record["dur"] for record in by_name.get(name, ()))

    def calls(name: str) -> int:
        return _calls(by_name.get(name, ()))

    counters = delta.get("counters", {})

    def counter(name: str) -> int:
        return counters.get(name, 0)

    placed = sum(
        record["attrs"].get("b", 0) for record in by_name.get("placement.random", ())
    )
    dispatches = {
        rung: counter(f"kernel.dispatch.{rung}")
        for rung in ("native", "numpy", "bitset", "python")
    }
    kernel_builds = sum(dispatches.values())
    memo = counter("attack.memo.hits") + counter("attack.memo.misses")
    lookups = counter("engine.cache.hits") + counter("engine.cache.misses")
    search_s = total("attack.search")

    # Attribution: process time is the main process's traced wall plus
    # every worker's root-span time. Time outside any span in the main
    # process, and the self time of the generic shard wrapper, are the
    # unattributed part.
    rows = {row["name"]: row for row in build_profile(records)}
    main_spanned = sum(
        record["dur"] for record in records
        if record["pid"] == main_pid and record["parent"] is None
    )
    worker_busy = sum(
        record["dur"] for record in records
        if record["pid"] != main_pid and record["parent"] is None
    )
    process_time = traced_wall + worker_busy
    unattributed = max(0.0, traced_wall - main_spanned) + sum(
        rows[name]["self"] for name in CONTAINER_SPANS if name in rows
    )
    run_wall = total("runner.run")

    return {
        "cli.import_s": total("cli.import"),
        "designs.existence.calls": calls("designs.existence"),
        "designs.existence_s": total("designs.existence"),
        "designs.difference_family.calls": calls("designs.difference_family"),
        "designs.difference_family_s": total("designs.difference_family"),
        "subsystems.admissible_orders.calls": calls("subsystems.admissible_orders"),
        "subsystems.capacity_gap_s": total("subsystems.capacity_gap"),
        "placement.random.calls": calls("placement.random"),
        "placement.random_s": total("placement.random"),
        "placement.random.objects_per_s": _ratio(placed, total("placement.random")),
        "engine.builds": calls("engine.build"),
        "engine.build_s": total("engine.build") + total("engine.kernel"),
        "engine.cache.hit_ratio": _ratio(counter("engine.cache.hits"), lookups),
        "engine.apply_delta.calls": calls("engine.apply_delta"),
        "engine.apply_delta_s": total("engine.apply_delta"),
        "attack.searches": counter("attack.searches"),
        "attack.search_s": search_s,
        "attack.memo.hit_ratio": _ratio(counter("attack.memo.hits"), memo),
        "attack.evaluations": counter("kernel.evaluations"),
        "attack.evaluations_per_s": _ratio(counter("kernel.evaluations"), search_s),
        "attack.restarts": counter("attack.restarts"),
        "kernel.builds": kernel_builds,
        "kernel.native_ratio": _ratio(dispatches["native"], kernel_builds),
        "cluster.availability.calls": calls("cluster.availability"),
        "cluster.availability_s": total("cluster.availability"),
        "sim.mirror.flush_s": total("sim.mirror.flush"),
        "sim.strike.select_s": total("sim.strike.select"),
        "runner.shards": len(by_name.get("runner.shard", ())),
        "runner.retries": counter("runner.shard_retries"),
        "runner.shard_s": total("runner.shard"),
        "runner.busy_ratio": _ratio(total("runner.shard"), workers * run_wall),
        "store.commits": len(by_name.get("store.commit", ())),
        "store.commit_s": total("store.commit"),
        "store.bytes": sum(
            record["attrs"].get("bytes", 0)
            for record in by_name.get("store.commit", ())
        ),
        "analysis.assemble_s": total("analysis.assemble"),
        "analysis.render_s": total("analysis.render"),
        "trace.attributed_ratio": _ratio(process_time - unattributed, process_time),
    }
