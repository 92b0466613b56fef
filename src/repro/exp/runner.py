"""Sharded experiment runner: expand, group, fan out, stream in order.

Execution model:

* the kernel expands the spec into an ordered cell list and labels each
  cell with a **group key**. Cells sharing a key form one *shard* — they
  ride one warm :class:`~repro.core.batch.AttackEngine` (placement
  construction, incidence, per-threshold kernels) and one warm-start
  incumbent chain, exactly as the hand-written figure loops did. The
  expansion must keep groups contiguous; the runner enforces this, which
  is what lets the store hold a plain in-order prefix;
* each shard is computed **serially inside one process** — all
  parallelism is *across* shards (``workers`` processes via fork, as in
  :mod:`repro.core.batch`). Because a shard's randomness derives from
  the spec alone, results are bit-identical for every worker count,
  including 1. This is deliberately stronger than the pre-refactor
  figure loops, whose intra-grid chunking could drift under
  ``REPRO_WORKERS >= 2``;
* sharded fan-out keeps one persistent supervised worker per slot and
  routes shards by the kernel's *affinity* key, so a worker's
  process-local engine cache serves every shard attacking the same
  placement. Supervision (watchdog, bounded retries, degradation
  ladder) keeps the sharded run bit-identical to the serial run;
* shards are scheduled longest-first (``group_cost`` hint) but
  **committed in expansion order**: a shard that finishes early parks in
  memory until every earlier shard has been flushed. The store therefore
  only ever holds an exact prefix of the run, so an interrupted sweep
  resumes by recomputing just the shards past (or straddling) the
  prefix, and the final ``cells.jsonl`` is byte-identical to an
  uninterrupted run's;
* metrics are normalized through a JSON round-trip at the shard
  boundary, so freshly computed, worker-returned, and store-loaded
  results are indistinguishable — assembly cannot tell how a cell was
  obtained.
"""

from __future__ import annotations

import json
import math
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro import faults, obs
from repro.core.batch import worker_count
from repro.exp import registry
from repro.exp.spec import ExperimentSpec
from repro.exp.store import RunState, RunStore
from repro.util.rng import derive_rng


class ExperimentError(ValueError):
    """Raised on kernel-contract violations (non-contiguous groups, ...)."""


#: Decorrelated-jitter backoff bounds for shard retries (seconds). The
#: schedule is seeded from (spec hash, shard start, attempt), so retry
#: timing is reproducible run to run.
_BACKOFF_BASE = 0.05
_BACKOFF_CAP = 2.0

#: How long a worker that went dead-silent (no result, not alive) gets to
#: drain an already-posted result before being declared crashed.
_REAP_GRACE = 0.5


def _env_shard_retries() -> int:
    raw = os.environ.get("REPRO_SHARD_RETRIES")
    if raw is None or raw == "":
        return 2
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"REPRO_SHARD_RETRIES must be an int, got {raw!r}") from None
    if value < 0:
        raise ValueError(f"REPRO_SHARD_RETRIES must be >= 0, got {value}")
    return value


def _env_shard_timeout() -> Optional[float]:
    raw = os.environ.get("REPRO_SHARD_TIMEOUT")
    if raw is None or raw == "":
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_SHARD_TIMEOUT must be a float (seconds), got {raw!r}"
        ) from None
    # A NaN deadline never fires, so it would turn the watchdog off.
    if not math.isfinite(value) or value <= 0:
        raise ValueError(
            f"REPRO_SHARD_TIMEOUT must be a finite number > 0, got {value}"
        )
    return value


def _backoff_delay(spec_hash: str, start: int, attempt: int, previous: float) -> float:
    """One decorrelated-jitter step: min(cap, U(base, 3 * previous))."""
    rng = derive_rng(0, "shard-backoff", spec_hash, start, attempt)
    return min(_BACKOFF_CAP, rng.uniform(_BACKOFF_BASE, max(_BACKOFF_BASE, previous) * 3))


def _demote_after_watchdog(reason: str) -> Optional[Dict[str, str]]:
    """Degradation ladder: step the auto gain backing down one rung.

    Only an *auto* selection is demoted — an explicitly pinned backing
    never silently measures the wrong thing. Workers fork from the
    supervisor after the demotion, so re-dispatched shards inherit it;
    backings are bit-identical by contract, so results are unchanged.
    """
    from repro.core import kernels

    pinned = os.environ.get("REPRO_GAIN_BACKING", "auto") or "auto"
    if pinned != "auto":
        return None
    try:
        backing = kernels.resolve_gain_backing("auto")
    except ValueError:
        return None
    if backing == kernels.GAIN_BACKINGS[-1]:
        return None  # already on the last rung
    kernels.demote_backing(backing, reason)
    return {"backing": backing, "reason": reason}


@dataclass(frozen=True)
class _Group:
    """One contiguous shard: expansion slice [start, end) sharing a key."""

    key: Any
    start: int
    end: int

    @property
    def size(self) -> int:
        return self.end - self.start


@dataclass
class RunResult:
    """Everything one :func:`run_experiment` call produced.

    ``metrics`` aligns with ``cells``; entries are ``None`` only when a
    ``limit`` stopped the run early. ``loaded`` cells were served from the
    run store, ``computed`` were executed now, and ``recomputed`` counts
    the stored cells that had to be re-executed (and are included in
    ``computed``) because their shard straddled the stored prefix —
    always 0 when the interruption fell on a shard boundary, e.g. any
    ``limit``-bounded run.
    """

    spec: ExperimentSpec
    cells: List[Dict[str, Any]]
    metrics: List[Optional[Dict[str, Any]]]
    loaded: int = 0
    computed: int = 0
    recomputed: int = 0
    groups: int = 0
    elapsed: float = 0.0
    store_path: Optional[str] = None
    retries: int = 0
    demotions: List[Dict[str, str]] = field(default_factory=list)
    #: Deterministic metrics delta of this invocation (None when metrics
    #: are off); the same dict the store manifest records under "obs".
    obs: Optional[Dict[str, Any]] = None

    @property
    def complete(self) -> bool:
        return all(entry is not None for entry in self.metrics)

    def result(self) -> Any:
        """Assemble the figure's result object (requires a complete run)."""
        if not self.complete:
            missing = sum(1 for entry in self.metrics if entry is None)
            raise ExperimentError(
                f"run of {self.spec.experiment!r} is incomplete "
                f"({missing} of {len(self.cells)} cells missing); resume it "
                "to assemble a result"
            )
        kernel = registry.kernel(self.spec.experiment)
        return kernel.assemble(self.spec, self.cells, self.metrics)

    def render(self) -> str:
        kernel = registry.kernel(self.spec.experiment)
        return kernel.render(self.result())

    def summary(self) -> str:
        state = "complete" if self.complete else "partial"
        text = (
            f"{self.spec.experiment} [{self.spec.spec_hash()[:12]}] "
            f"{state}: {len(self.cells)} cells "
            f"({self.loaded} loaded, {self.computed} computed, "
            f"{self.recomputed} recomputed) across {self.groups} shards "
            f"in {self.elapsed:.2f}s"
        )
        if self.retries:
            text += f" [{self.retries} shard retries]"
        if self.demotions:
            demoted = ",".join(entry["backing"] for entry in self.demotions)
            text += f" [demoted: {demoted}]"
        return text

    def faults_record(self) -> Dict[str, Any]:
        """Manifest-ready fault metadata; empty dict for a fault-free run."""
        record: Dict[str, Any] = {}
        if self.retries:
            record["shard_retries"] = self.retries
        if self.demotions:
            record["demotions"] = [dict(entry) for entry in self.demotions]
        return record


def _normalize(metrics: Any) -> Dict[str, Any]:
    """JSON round-trip so in-memory metrics match store-loaded metrics."""
    if not isinstance(metrics, dict):
        raise ExperimentError(
            f"kernels must return one metrics dict per cell, got "
            f"{type(metrics).__name__}"
        )
    return json.loads(json.dumps(metrics))


def _contiguous_groups(
    spec: ExperimentSpec,
    kernel: registry.ExperimentKernel,
    cells: Sequence[Dict[str, Any]],
) -> List[_Group]:
    groups: List[_Group] = []
    seen = set()
    for index, cell in enumerate(cells):
        key = kernel.group_key(spec, cell)
        if groups and groups[-1].key == key:
            groups[-1] = _Group(key, groups[-1].start, index + 1)
            continue
        if key in seen:
            raise ExperimentError(
                f"kernel {kernel.name!r} expansion interleaves group "
                f"{key!r}; groups must be contiguous in expansion order"
            )
        seen.add(key)
        groups.append(_Group(key, index, index + 1))
    return groups


def _group_cost(
    spec: ExperimentSpec,
    kernel: registry.ExperimentKernel,
    group: _Group,
    cells: Sequence[Dict[str, Any]],
) -> float:
    if kernel.group_cost is None:
        return float(group.size)
    return float(
        kernel.group_cost(spec, group.key, cells[group.start:group.end])
    )


def _run_group_task(payload: Tuple[str, int, List[Dict[str, Any]]]):
    """Plain (unsupervised) worker entry: compute one shard.

    Kept as the benchmark baseline for the supervisor's overhead gate
    (``benchmarks/bench_chaos.py``) — production runs go through
    :func:`_pool_worker` under the supervisor.
    """
    spec_json, ordinal, cells = payload
    spec = ExperimentSpec.from_dict(json.loads(spec_json))
    kernel = registry.kernel(spec.experiment)
    return ordinal, kernel.run_group(spec, cells)


def run_experiment(
    spec: ExperimentSpec,
    workers: Optional[int] = None,
    store: Optional[Union[RunStore, str]] = None,
    resume: bool = False,
    limit: Optional[int] = None,
    threads: Optional[int] = None,
    lanes: Optional[int] = None,
    shard_timeout: Optional[float] = None,
    shard_retries: Optional[int] = None,
    engine_state: Optional[str] = None,
) -> RunResult:
    """Run one spec: expand, serve the stored prefix, compute the rest.

    ``workers`` defaults to ``REPRO_WORKERS`` (serial when unset); results
    are identical for every value. ``store`` (a :class:`RunStore` or a
    root path) makes the run resumable and re-renderable without
    recomputation. ``limit`` caps the number of *newly computed* cells —
    the run stops at the first shard boundary at or past the cap, leaving
    a clean resumable prefix (used by budgeted sweeps, the CI smoke job,
    and the resume benchmarks).

    ``threads`` pins the native kernel's thread budget for this run
    (default: ``REPRO_NATIVE_THREADS`` / cpu count). Sharded runs divide
    the budget across worker processes, so ``workers x threads`` never
    oversubscribes the host; results are bit-identical at every
    (workers, threads) combination — the kernel's threaded paths merge
    deterministically.

    ``lanes`` pins the adversary's polish-chain lane count for this run
    (default: ``REPRO_ATTACK_LANES`` / the thread budget). Like the
    thread budget, an explicit lane budget divides across worker
    processes (``max(1, lanes // processes)``); the ``auto`` default
    follows each worker's split thread budget on its own. Lanes are a
    pure scheduling knob — results are bit-identical at every lane
    count.

    Sharded runs are *supervised*: shards run on a persistent
    affinity-routed worker pool with a wall-clock watchdog
    (``shard_timeout`` / ``REPRO_SHARD_TIMEOUT``; off by default) and up
    to ``shard_retries`` re-dispatches (``REPRO_SHARD_RETRIES``, default
    2) under seeded decorrelated-jitter backoff. A re-dispatched shard replays its whole
    incumbent chain from the spec, so retried results are bit-identical
    to fault-free ones; repeated watchdog faults demote the auto gain
    backing one ladder rung (recorded in the run metadata).

    ``engine_state`` points the run at a directory of engine-state
    snapshots (:func:`repro.core.batch.configure_engine_state_dir`):
    workers hydrate cache-missed engines from
    ``<dir>/<fingerprint>.npz`` and persist their cold builds there, so
    repeated runs over one placement lineage skip the engine build.
    Purely a performance lever — results are bit-identical with or
    without it.
    """
    from repro.core import adversary, batch, kernels, native

    started = time.perf_counter()
    run_mark = obs.checkpoint()
    kernel = registry.kernel(spec.experiment)
    if workers is None:
        workers = worker_count(1)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if lanes is not None and lanes < 1:
        raise ValueError(f"lanes must be >= 1, got {lanes}")
    if shard_retries is None:
        shard_retries = _env_shard_retries()
    if shard_retries < 0:
        raise ValueError(f"shard_retries must be >= 0, got {shard_retries}")
    if shard_timeout is None:
        shard_timeout = _env_shard_timeout()
    if shard_timeout is not None and (
        not math.isfinite(shard_timeout) or shard_timeout <= 0
    ):
        raise ValueError(
            f"shard_timeout must be a finite number > 0, got {shard_timeout}"
        )
    demoted_before = set(kernels.demoted_backings())

    cells = [dict(cell) for cell in kernel.expand(spec)]
    groups = _contiguous_groups(spec, kernel, cells)
    metrics: List[Optional[Dict[str, Any]]] = [None] * len(cells)

    if isinstance(store, str):
        store = RunStore(store)
    state: Optional[RunState] = None
    previous_state_dir = batch.engine_state_dir()
    if engine_state is not None:
        # Configured before any worker forks, so shard workers inherit
        # the warm path; restored afterwards so one run's sidecar never
        # leaks into the next caller's process state.
        batch.configure_engine_state_dir(engine_state)
    try:
        prefix = 0
        if store is not None:
            # Inside the try: open_run takes the run lock, and a corrupt
            # store raising out of load_prefix must still release it.
            state = store.open_run(spec, resume=resume)
            stored = state.load_prefix(cells)
            prefix = len(stored)
            metrics[:prefix] = stored

        pending = [group for group in groups if group.end > prefix]
        if limit is not None:
            budget, kept = limit, []
            for group in pending:
                if budget <= 0:
                    break
                kept.append(group)
                budget -= group.end - max(group.start, prefix)
            pending = kept
        recomputed = sum(max(0, prefix - group.start) for group in pending)
        if prefix - recomputed:
            obs.count("store.cells_loaded", prefix - recomputed)
        if recomputed:
            obs.count("store.cells_recomputed", recomputed)

        def flush(group: _Group, chunk: Sequence[Any]) -> None:
            if len(chunk) != group.size:
                raise ExperimentError(
                    f"kernel {kernel.name!r} returned {len(chunk)} metric "
                    f"dicts for a {group.size}-cell shard"
                )
            for offset, entry in enumerate(chunk):
                metrics[group.start + offset] = _normalize(entry)
            if state is not None:
                for index in range(max(group.start, prefix), group.end):
                    state.append(cells[index], metrics[index], index=index)
                state.flush()

        if workers > 1 and len(pending) > 1:
            _run_sharded_pool(
                spec, kernel, cells, pending, workers, flush, threads,
                shard_timeout, shard_retries, lanes,
            )
        else:
            # Serial run with pinned budgets: configure, compute,
            # restore the caller's settings.
            previous_threads = native.configured_threads()
            previous_lanes = adversary.configured_lanes()
            if threads is not None:
                native.configure_threads(threads)
            if lanes is not None:
                adversary.configure_lanes(lanes)
            try:
                for group in pending:
                    chunk, _attempts = _run_group_serial(
                        spec, kernel, group, cells, shard_retries
                    )
                    flush(group, chunk)
            finally:
                if threads is not None:
                    native.configure_threads(previous_threads)
                if lanes is not None:
                    adversary.configure_lanes(previous_lanes)
        computed = sum(
            group.end - max(group.start, prefix) for group in pending
        ) + recomputed
        # The metrics registry is the single source of truth for retry
        # accounting: every retry site (supervisor fail(), serial replay)
        # records runner.shard_retries, and both RunResult.summary and
        # the manifest "faults" record read this one counter delta.
        retries = obs.delta_value("runner.shard_retries", run_mark)
        demotions = [
            {"backing": backing, "reason": reason}
            for backing, reason in kernels.demoted_backings().items()
            if backing not in demoted_before
        ]
        faults_record: Dict[str, Any] = {}
        if retries:
            faults_record["shard_retries"] = retries
        if demotions:
            faults_record["demotions"] = [dict(entry) for entry in demotions]
        obs_record: Optional[Dict[str, Any]] = None
        if obs.metrics_enabled():
            det = obs.deterministic_delta(run_mark)
            if det["counters"] or det["histograms"]:
                obs_record = det
        complete = all(entry is not None for entry in metrics)
        if state is not None and complete and not state.complete:
            state.finalize(len(cells), faults_record or None, obs_record)
    finally:
        if engine_state is not None:
            batch.configure_engine_state_dir(previous_state_dir)
        if state is not None:
            state.close()

    return RunResult(
        spec=spec,
        cells=cells,
        metrics=metrics,
        loaded=prefix - recomputed,
        computed=computed,
        recomputed=recomputed,
        groups=len(groups),
        elapsed=time.perf_counter() - started,
        store_path=state.path if state is not None else None,
        retries=retries,
        demotions=demotions,
        obs=obs_record,
    )


def _run_group_serial(
    spec, kernel, group, cells, shard_retries
) -> Tuple[Sequence[Any], int]:
    """One shard in-process, retrying injected transient faults.

    Only :class:`~repro.faults.InjectedFault` is retried — a genuine
    kernel exception propagates unchanged, exactly as before the chaos
    harness existed. Returns ``(chunk, retries_used)``.
    """
    spec_hash = spec.spec_hash()
    delay = _BACKOFF_BASE
    for attempt in range(shard_retries + 1):
        mark = obs.checkpoint()
        try:
            faults.inject(
                "runner.shard_start",
                start=group.start,
                ordinal=-1,
                attempt=attempt,
                mode="serial",
            )
            with obs.span(
                "runner.shard", start=group.start, end=group.end,
                attempt=attempt, mode="serial",
            ):
                chunk = kernel.run_group(spec, cells[group.start:group.end])
            return chunk, attempt
        except faults.InjectedFault as exc:
            # Discard the failed attempt's gated recordings — the retry
            # re-records the work — while always-counters (the retry
            # itself, fault fires) keep counting.
            obs.rollback(mark)
            if attempt >= shard_retries:
                raise ExperimentError(
                    f"shard at cells[{group.start}:{group.end}] of "
                    f"{spec.experiment!r} failed after {attempt + 1} "
                    f"attempts: {exc}"
                ) from exc
            obs.count("runner.shard_retries")
            obs.record_event(
                "runner.shard_retry", start=group.start,
                attempt=attempt + 1, reason=str(exc), watchdog=False,
            )
            delay = _backoff_delay(spec_hash, group.start, attempt + 1, delay)
            time.sleep(delay)
    raise AssertionError("unreachable")  # pragma: no cover


def _bind_to_supervisor() -> None:
    """Die with the supervisor instead of orphaning the pool worker.

    A torn-write fault (or plain SIGKILL) takes the supervisor out
    without unwinding the pool; a persistent worker blocked on its task
    queue would then outlive it holding inherited fds — the run-store
    lock and any pipes the caller captured — wedging every resume.
    ``PR_SET_PDEATHSIG`` delivers SIGTERM the instant the parent dies
    (Linux); elsewhere the worker's queue-timeout loop falls back to
    polling ``os.getppid``.
    """
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError, TypeError):  # pragma: no cover
        pass


def _pool_worker(
    spec_json: str,
    thread_budget: int,
    lane_budget: Optional[int],
    demotions: Sequence[Tuple[str, str]],
    task_queue: Any,
    result_queue: Any,
) -> None:
    """Persistent pool worker: loop shards off the slot queue until told.

    One boot (thread budget, inherited demotions, kernel resolution)
    amortizes over every shard the supervisor routes here, and the
    process-local engine cache (:mod:`repro.core.batch`, bounded by
    ``REPRO_ENGINE_CACHE``) survives between shards — that is the whole
    point of affinity routing. Each task posts one
    ``(ordinal, attempt, status, payload)`` message; a failed attempt
    rolls its gated recordings back (the retry re-records the work,
    wherever it runs) and the worker keeps serving, so one injected
    error never costs a warm cache. ``None`` is the shutdown sentinel;
    a crash or watchdog kill is detected by the supervisor's liveness
    sweep instead.
    """
    from queue import Empty

    from repro.core import adversary, kernels, native

    try:
        _bind_to_supervisor()
        native.configure_threads(thread_budget)
        if lane_budget is not None:
            adversary.configure_lanes(lane_budget)
        for backing, reason in demotions:
            try:
                kernels.demote_backing(backing, reason)
            except ValueError:
                pass
        spec = ExperimentSpec.from_dict(json.loads(spec_json))
        kernel = registry.kernel(spec.experiment)
    except BaseException:  # noqa: BLE001 - liveness sweep reports the death
        os._exit(70)
    parent = os.getppid()
    while True:
        try:
            task = task_queue.get(timeout=0.5)
        except Empty:
            if os.getppid() != parent:  # pragma: no cover - non-Linux path
                os._exit(0)  # orphaned: PDEATHSIG was unavailable
            continue
        if task is None:
            os._exit(0)
        ordinal, attempt, start, task_cells = task
        mark = obs.checkpoint()
        try:
            faults.inject(
                "runner.shard_start", start=start, ordinal=ordinal,
                attempt=attempt, mode="shard",
            )
            with obs.span(
                "runner.shard", start=start, ordinal=ordinal,
                attempt=attempt, mode="shard",
            ):
                chunk = list(kernel.run_group(spec, task_cells))
            message = (ordinal, attempt, "ok", (chunk, obs.delta_since(mark)))
        except BaseException as exc:  # noqa: BLE001 - reported, then retried
            obs.rollback(mark)
            message = (
                ordinal, attempt, "error", f"{type(exc).__name__}: {exc}"
            )
        try:
            result_queue.put(message)
        except BaseException:  # noqa: BLE001 - dead pipe: let the sweep act
            os._exit(70)


class _PoolSlot:
    """Supervision state for one persistent pool worker and its queue."""

    __slots__ = (
        "proc", "task_queue", "work", "current", "deadline", "reap_at",
        "epoch",
    )

    def __init__(self, work):
        self.proc = None
        self.task_queue = None
        self.work = list(work)  # ordinals, dispatch order; retries jump in
        self.current = None  # (ordinal, attempt) while a task is in flight
        self.deadline = None
        self.reap_at = None
        self.epoch = -1


def _affinity_plan(spec, kernel, cells, pending, slots) -> List[List[int]]:
    """Deterministic affinity-grouped LPT assignment of shards to slots.

    Shards sharing an affinity key (the group key when the kernel
    declares none) form one *class*; classes are placed whole, heaviest
    first, onto the least-loaded slot (ties: lowest slot), so every
    shard attacking one placement lands on one worker and hits its
    engine cache. Within a slot classes keep their placement order and
    each class runs its own shards longest-first (LPT, applied per
    worker). The plan depends only on (spec, kernel, cells), never on
    timing, so the shard->worker map is reproducible run to run and crash
    to crash.
    """
    costs = [_group_cost(spec, kernel, group, cells) for group in pending]
    classes: Dict[Any, List[int]] = {}
    class_order: List[Any] = []
    for ordinal, group in enumerate(pending):
        if kernel.affinity is not None:
            key = kernel.affinity(
                spec, group.key, cells[group.start:group.end]
            )
        else:
            key = group.key
        if key not in classes:
            classes[key] = []
            class_order.append(key)
        classes[key].append(ordinal)
    ranked = sorted(
        class_order,
        key=lambda key: (
            -sum(costs[o] for o in classes[key]), classes[key][0],
        ),
    )
    buckets: List[List[int]] = [[] for _ in range(slots)]
    loads = [0.0] * slots
    for key in ranked:
        members = classes[key]
        slot = min(range(slots), key=lambda i: (loads[i], i))
        buckets[slot].extend(sorted(members, key=lambda o: (-costs[o], o)))
        loads[slot] += sum(costs[o] for o in members)
    return [bucket for bucket in buckets if bucket]


def _run_sharded_pool(
    spec, kernel, cells, pending, workers, flush, threads=None,
    shard_timeout=None, shard_retries=2, lanes=None,
) -> int:
    """Persistent-pool shard fan-out; commit in expansion order.

    One supervised worker process per slot lives for the whole run and
    computes every shard routed to it, so the per-shard fixed cost
    drops from fork + engine rebuild to a queue hop — and because
    :func:`_affinity_plan` groups shards by the kernel's affinity key,
    a worker's process-local engine cache serves every shard that
    attacks the same placement. The supervisor watches for three failure
    shapes:

    * an ``error`` message — the worker caught an exception (injected or
      real) and reported it;
    * a watchdog timeout — the shard exceeded ``shard_timeout`` wall
      clock and its worker is killed (hung kernel, injected hang);
    * a silent death — the worker exited without posting a result
      (SIGKILL, ``os._exit``, segfault), detected by the liveness sweep
      after a short drain grace.

    Failed shards are re-dispatched up to ``shard_retries`` times under
    seeded decorrelated-jitter backoff; because a shard's randomness
    derives from the spec alone, a replayed shard recomputes the exact
    incumbent chain and the run stays bit-identical to a fault-free one.
    Repeated watchdog faults on one shard demote the auto gain backing
    one ladder rung. A failed worker is replaced in place — fresh fork,
    fresh task queue, same slot — and its shard retries at the front of
    that slot's queue, so the deterministic shard->worker map survives
    any crash schedule. Demotions bump an epoch; idle workers older
    than the current epoch are refreshed before their next task, so
    re-dispatched shards inherit the demoted ladder exactly as freshly
    forked workers would.
    """
    import multiprocessing
    from queue import Empty

    from repro.core import kernels, native

    spec_json = json.dumps(spec.to_dict())
    spec_hash = spec.spec_hash()
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else None)
    processes = min(workers, len(pending))
    budget = threads if threads is not None else native.thread_count()
    per_worker = max(1, budget // processes)
    lane_budget = max(1, lanes // processes) if lanes is not None else None

    result_queue = context.Queue()
    slots = [
        _PoolSlot(bucket)
        for bucket in _affinity_plan(spec, kernel, cells, pending, processes)
    ]
    slot_of = {
        ordinal: index
        for index, slot in enumerate(slots)
        for ordinal in slot.work
    }
    finished: Dict[int, Any] = {}
    attempts: Dict[int, int] = {}
    delays: Dict[int, float] = {}
    blocked: List[Tuple[float, int]] = []  # (not-before, ordinal) backoffs
    next_flush = 0
    retries = 0
    epoch = 0

    def spawn(slot: _PoolSlot) -> None:
        slot.task_queue = context.Queue()
        slot.proc = context.Process(
            target=_pool_worker,
            args=(
                spec_json, per_worker, lane_budget,
                sorted(kernels.demoted_backings().items()),
                slot.task_queue, result_queue,
            ),
            daemon=True,
        )
        slot.proc.start()
        slot.epoch = epoch
        slot.current = None
        slot.deadline = None
        slot.reap_at = None

    def respawn(slot: _PoolSlot) -> None:
        if slot.proc.is_alive():
            slot.proc.kill()
        slot.proc.join()
        slot.task_queue.close()
        slot.task_queue.cancel_join_thread()
        spawn(slot)

    def dispatch(slot: _PoolSlot) -> None:
        ordinal = slot.work.pop(0)
        group = pending[ordinal]
        attempt = attempts.get(ordinal, 0)
        slot.task_queue.put(
            (ordinal, attempt, group.start, cells[group.start:group.end])
        )
        slot.current = (ordinal, attempt)
        slot.deadline = (
            time.monotonic() + shard_timeout
            if shard_timeout is not None else None
        )
        slot.reap_at = None

    def fail(ordinal: int, reason: str, watchdog: bool) -> None:
        nonlocal retries, epoch
        group = pending[ordinal]
        count = attempts.get(ordinal, 0) + 1
        attempts[ordinal] = count
        if count > shard_retries:
            raise ExperimentError(
                f"shard at cells[{group.start}:{group.end}] of "
                f"{spec.experiment!r} failed after {count} attempts: {reason}"
            )
        retries += 1
        obs.count("runner.shard_retries")
        obs.record_event(
            "runner.shard_retry", start=group.start, attempt=count,
            reason=reason, watchdog=watchdog,
        )
        if watchdog and count >= 2:
            demoted = _demote_after_watchdog(
                f"shard at cells[{group.start}:{group.end}]: {reason}"
            )
            if demoted is not None:
                epoch += 1  # stale idle workers refresh before the next task
        delay = _backoff_delay(
            spec_hash, group.start, count, delays.get(ordinal, _BACKOFF_BASE)
        )
        delays[ordinal] = delay
        blocked.append((time.monotonic() + delay, ordinal))

    try:
        for slot in slots:
            spawn(slot)
        while next_flush < len(pending):
            now = time.monotonic()
            for entry in list(blocked):
                if entry[0] <= now:
                    blocked.remove(entry)
                    # The retry jumps its slot's queue: same worker, next.
                    slots[slot_of[entry[1]]].work.insert(0, entry[1])
            for slot in slots:
                if slot.current is None and slot.work:
                    if slot.epoch != epoch or not slot.proc.is_alive():
                        respawn(slot)
                    dispatch(slot)
            if blocked and all(slot.current is None for slot in slots):
                # Everything runnable is backing off; sleep toward the
                # earliest retry instead of spinning.
                wake = min(entry[0] for entry in blocked)
                time.sleep(max(0.0, min(wake - time.monotonic(), _BACKOFF_CAP)))
                continue
            try:
                message = result_queue.get(timeout=0.05)
            except Empty:
                message = None
            if message is not None:
                ordinal, attempt, status, payload = message
                slot = slots[slot_of[ordinal]]
                if slot.current == (ordinal, attempt):
                    slot.current = None
                    slot.deadline = None
                    slot.reap_at = None
                    if status == "ok":
                        chunk, delta = payload
                        # Merge only successful attempts' recordings:
                        # failed attempts rolled back worker-side, so
                        # half-done work never skews the totals.
                        obs.merge_delta(delta)
                        finished[ordinal] = chunk
                    else:
                        fail(ordinal, payload, watchdog=False)
                # else: stale message from a killed attempt — drop it.
            now = time.monotonic()
            for slot in slots:
                if slot.current is None:
                    continue
                ordinal, _attempt = slot.current
                if slot.deadline is not None and now >= slot.deadline:
                    slot.current = None
                    respawn(slot)  # kills the hung worker, fresh queue
                    fail(
                        ordinal,
                        f"exceeded the {shard_timeout:.1f}s shard watchdog",
                        watchdog=True,
                    )
                elif not slot.proc.is_alive():
                    if slot.reap_at is None:
                        slot.reap_at = now + _REAP_GRACE
                    elif now >= slot.reap_at:
                        code = slot.proc.exitcode
                        slot.current = None
                        respawn(slot)
                        fail(
                            ordinal,
                            f"worker died without a result (exit code {code})",
                            watchdog=True,
                        )
            while next_flush in finished:
                flush(pending[next_flush], finished.pop(next_flush))
                next_flush += 1
    finally:
        # Always reap every child — KeyboardInterrupt included — so an
        # interrupted run releases the store lock with no orphan workers.
        for slot in slots:
            if slot.proc is not None and slot.proc.is_alive():
                slot.proc.terminate()
        for slot in slots:
            if slot.proc is None:
                continue
            slot.proc.join(timeout=5)
            if slot.proc.is_alive():
                slot.proc.kill()
                slot.proc.join(timeout=5)
            slot.task_queue.close()
            slot.task_queue.cancel_join_thread()
        result_queue.close()
        result_queue.cancel_join_thread()
    return retries


def run_figure(
    spec: ExperimentSpec,
    workers: Optional[int] = None,
    store: Optional[Union[RunStore, str]] = None,
    resume: bool = False,
) -> Any:
    """Run a spec to completion and assemble its figure result object.

    This is the engine behind every ``figN.generate()`` compatibility
    wrapper: serial by default (``REPRO_WORKERS`` shards it), bit-identical
    output either way.
    """
    return run_experiment(
        spec, workers=workers, store=store, resume=resume
    ).result()
