"""Batched worst-case attack engine: one placement, many (k, s, effort) cells.

Every simulation figure evaluates the same placement under a grid of
failure scenarios — Fig. 2 sweeps (s, k) per object count, Fig. 7 sweeps
k per Monte-Carlo sample, the cluster simulator re-attacks snapshots of
the same population. Attacking cell-by-cell rebuilds the incidence
structure for every cell and forgets everything the previous search
learned. This engine instead keeps a *warm, persistent pipeline*:

* :class:`AttackEngine` holds the node-major
  :class:`~repro.core.kernels.Incidence`, one damage kernel per fatality
  threshold ``s``, and a bounded memo of finished attacks. The incidence
  ingests the placement's cached CSR arrays zero-copy (see
  :meth:`Placement.node_csr`), so engine construction does no per-object
  set walking, and the cache key — :meth:`Placement.fingerprint` — is a
  single sha256 over the raw row buffer. Engines are
  cached per process keyed by that fingerprint, so repeated
  ``batch_attack`` calls — and even *distinct but structurally equal*
  placement objects, e.g. fresh cluster snapshots of an unchanged
  population — reuse kernel state instead of rebuilding it;
* each threshold group is ordered by ascending ``k`` and chains
  incumbents — the k-attack's failure set seeds the (k+1)-search
  (``warm_start``), which both speeds local search and tightens
  branch-and-bound pruning;
* the attack memo is keyed by (cell, seed, warm chain) under the
  placement fingerprint, so identical queries (same structure, same cell,
  same derived randomness) return the finished result without searching.
  Memoization is semantically invisible: results are deterministic
  functions of the key. ``REPRO_ATTACK_CACHE=0`` (or ``cache=False``)
  disables it; caller-managed ``rng`` bypasses it automatically since the
  generator state is not part of the key;
* independent threshold groups optionally fan out over
  ``multiprocessing`` (``REPRO_WORKERS`` or the ``workers`` argument).
  Worker processes keep their own engine caches, so a worker that
  receives several payloads for one placement builds its incidence once;
  under the ``fork`` start method they also inherit the parent's
  already-warm engines for free.

Attacks are deterministic: each cell's restart randomness derives from
``(seed, s, k, effort)`` via :func:`repro.util.rng.derive_rng`, so the
same grid replays bit-for-bit regardless of worker count, cell order, or
cache hits.
"""

from __future__ import annotations

import os
import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.adversary import AttackResult, best_attack
from repro.core.kernels import (
    DamageKernel,
    DeltaIncidence,
    Incidence,
    make_kernel,
    resolve_gain_backing,
)
from repro.core.placement import Placement
from repro.util.rng import derive_rng

_EFFORTS = ("fast", "auto", "exact")

#: Engines kept warm per process (LRU by placement fingerprint + backing);
#: overridden by the ``REPRO_ENGINE_CACHE`` knob (see engine_cache_cap).
_ENGINE_CACHE_CAP = 8
#: Finished attacks remembered per engine (LRU).
_MEMO_CAP = 1024

_ENGINES: "OrderedDict[Tuple[str, str], AttackEngine]" = OrderedDict()
_CACHE_STATS = {"hits": 0, "misses": 0}

#: Directory of engine-state snapshots (``<fingerprint>.npz``) that
#: engine_for consults before cold-building; see configure_engine_state_dir.
_ENGINE_STATE_DIR: Optional[str] = None

# Snapshot-dir failure reasons already warned about (once per process).
_STATE_DIR_WARNED: set = set()


@dataclass(frozen=True)
class AttackCell:
    """One evaluation request: fail ``k`` nodes, objects die at ``s`` losses."""

    k: int
    s: int
    effort: str = "auto"


def worker_count(default: int = 1) -> int:
    """Worker processes for batched attacks (``REPRO_WORKERS``; 1 = serial)."""
    raw = os.environ.get("REPRO_WORKERS", "") or str(default)
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_WORKERS must be an integer >= 1, got {raw!r}"
        ) from None
    if value < 1:
        raise ValueError(f"REPRO_WORKERS must be >= 1, got {value}")
    return value


def engine_cache_cap() -> int:
    """Warm engines kept per process (``REPRO_ENGINE_CACHE``; default 8).

    Long sweeps over many distinct placements otherwise accumulate
    engines — and their incidence structures — without bound; the LRU
    cap keeps process RSS proportional to the recent working set.
    """
    raw = os.environ.get("REPRO_ENGINE_CACHE", "") or str(_ENGINE_CACHE_CAP)
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_ENGINE_CACHE must be an integer >= 1, got {raw!r}"
        ) from None
    if value < 1:
        raise ValueError(f"REPRO_ENGINE_CACHE must be >= 1, got {value}")
    return value


def attack_cache_default() -> bool:
    """Whether the attack memo is on (``REPRO_ATTACK_CACHE``; default yes)."""
    raw = os.environ.get("REPRO_ATTACK_CACHE", "1").strip().lower()
    if raw in ("1", "true", "yes", "on", ""):
        return True
    if raw in ("0", "false", "no", "off"):
        return False
    raise ValueError(
        f"REPRO_ATTACK_CACHE must be boolean-like, got {raw!r}"
    )


def attack_cache_stats() -> Dict[str, int]:
    """Process-wide memo counters plus the number of warm engines."""
    return {**_CACHE_STATS, "engines": len(_ENGINES)}


def clear_attack_caches() -> None:
    """Drop every warm engine and memoized result (tests, memory pressure)."""
    _ENGINES.clear()
    _CACHE_STATS["hits"] = 0
    _CACHE_STATS["misses"] = 0


class AttackEngine:
    """Warm per-placement attack state: incidence, kernels, result memo.

    Bound to one resolved gain backing. Use :func:`engine_for` to get
    the process-cached instance instead of constructing directly.
    """

    def __init__(
        self,
        placement: Placement,
        gain_backing: Optional[str] = None,
    ) -> None:
        self.placement = placement
        # Pin the gain backing at construction so lazily built kernels
        # cannot drift from the backing this engine was cached under.
        self.gain_backing = resolve_gain_backing(gain_backing)
        self.incidence = Incidence(placement)
        self._kernels: Dict[int, DamageKernel] = {}
        self._memo: "OrderedDict[tuple, AttackResult]" = OrderedDict()

    def apply_delta(
        self,
        added_objects: Sequence[Sequence[int]] = (),
        removed_objects: Sequence[int] = (),
    ) -> Placement:
        """Mutate the engine's placement in place and stay warm.

        ``added_objects`` holds replica node sets to append;
        ``removed_objects`` holds current object ids to drop, under the
        swap-with-last id semantics of
        :meth:`~repro.core.kernels.DeltaIncidence.apply_delta`. The
        incidence upgrades to a :class:`DeltaIncidence` on first use
        (one O(b) conversion, after which every delta costs O(changed
        replicas)); kernels that can absorb the mutation rebind in place
        and the rest rebuild lazily; the attack memo is cleared (results
        describe the old structure). Returns the resulting placement.

        A mutated engine no longer matches the fingerprint it may have
        been cached under, so it detaches from the :func:`engine_for`
        cache — delta engines are private to their driver (the lifetime
        simulator), while fingerprint lookups keep returning engines that
        describe what they claim.
        """
        upgraded = not isinstance(self.incidence, DeltaIncidence)
        if upgraded:
            self.incidence = DeltaIncidence(self.placement)
        self._detach()
        self.placement = self.incidence.apply_delta(
            added_objects, removed_objects
        )
        if upgraded:
            # Pre-upgrade kernels hold the old immutable structures.
            self._kernels.clear()
        else:
            for s in [s for s, k in self._kernels.items() if not k.rebind()]:
                del self._kernels[s]
        self._memo.clear()
        return self.placement

    def _detach(self) -> None:
        """Drop this engine from the process cache (stale fingerprint key)."""
        for key in [k for k, eng in _ENGINES.items() if eng is self]:
            del _ENGINES[key]

    def kernel(self, s: int) -> DamageKernel:
        """The shared damage kernel for threshold ``s`` (built once)."""
        kernel = self._kernels.get(s)
        if kernel is None:
            kernel = make_kernel(
                self.placement, s, incidence=self.incidence,
                gain_backing=self.gain_backing,
            )
            self._kernels[s] = kernel
        return kernel

    def memo_get(self, key: tuple) -> Optional[AttackResult]:
        """LRU lookup in the attack memo (refreshes recency on hit)."""
        cached = self._memo.get(key)
        if cached is not None:
            self._memo.move_to_end(key)
        return cached

    def memo_put(self, key: tuple, result: AttackResult) -> None:
        """Insert into the attack memo, evicting the LRU tail past the cap."""
        self._memo[key] = result
        while len(self._memo) > _MEMO_CAP:
            self._memo.popitem(last=False)

    def attack(
        self,
        cell: AttackCell,
        seed: int = 0,
        rng: Optional[random.Random] = None,
        warm_start: Optional[Sequence[int]] = None,
        cache: Optional[bool] = None,
        lanes: Optional[int] = None,
    ) -> AttackResult:
        """Run (or recall) one attack cell against the warm kernel state.

        With ``rng=None`` the cell's generator derives from
        ``(seed, s, k, effort)``, making the result a pure function of the
        memo key — eligible for caching. A caller-managed ``rng`` carries
        hidden state, so those calls always search. ``lanes`` sets the
        polish-chain lane count for this cell (default: the process lane
        budget, see :func:`repro.core.adversary.attack_lanes`); lanes are
        a pure scheduling knob — results are bit-identical at any lane
        count — so they are deliberately *not* part of the memo key.
        """
        _validate_cells(self.placement, (cell,))
        use_cache = (
            (attack_cache_default() if cache is None else cache)
            and rng is None
        )
        warm = tuple(warm_start) if warm_start is not None else None
        key = (cell.k, cell.s, cell.effort, seed, warm)
        if use_cache:
            cached = self.memo_get(key)
            if cached is not None:
                _CACHE_STATS["hits"] += 1
                obs.count("attack.memo.hits")
                return cached
            _CACHE_STATS["misses"] += 1
            obs.count("attack.memo.misses")
        cell_rng = rng if rng is not None else derive_rng(
            seed, "batch", cell.s, cell.k, cell.effort
        )
        with obs.span(
            "engine.attack", k=cell.k, s=cell.s, effort=cell.effort
        ):
            result = best_attack(
                self.placement,
                cell.k,
                cell.s,
                effort=cell.effort,
                rng=cell_rng,
                kernel=self.kernel(cell.s),
                warm_start=warm,
                lanes=lanes,
            )
        if use_cache:
            self.memo_put(key, result)
        return result


def _cache_engine(key: Tuple[str, str], engine: AttackEngine) -> None:
    """Insert a warm engine, evicting (and detaching) past the LRU cap."""
    _ENGINES[key] = engine
    cap = engine_cache_cap()
    while len(_ENGINES) > cap:
        _key, evicted = _ENGINES.popitem(last=False)
        # Detach any aliased keys so the evicted engine is fully released
        # (a half-evicted engine would pin its incidence via the alias).
        evicted._detach()
        obs.count("engine.cache.evictions")
    obs.gauge("engine.cache.size", len(_ENGINES))


def engine_for(placement: Placement) -> AttackEngine:
    """The process-cached warm engine for one placement structure.

    Structurally equal placements (same fingerprint) share one engine even
    when they are distinct objects — the engine's own placement stands in
    for all of them, which is sound because attacks depend only on
    structure and node ids are preserved by equality. The resolved gain
    backing is part of the key, so re-pinning ``REPRO_GAIN_BACKING``
    mid-process builds a fresh engine instead of silently reusing kernels
    of the previous backing.

    With an engine-state directory configured
    (:func:`configure_engine_state_dir`), a cache miss first tries to
    hydrate from ``<dir>/<fingerprint>.npz`` and a cold build writes that
    snapshot for the next process — both best-effort: a missing,
    version-skewed, or unwritable snapshot degrades to the cold path.
    """
    key = (placement.fingerprint(), resolve_gain_backing())
    engine = _ENGINES.get(key)
    if engine is None:
        obs.count("engine.cache.misses")
        engine = _hydrate_from_dir(placement)
        if engine is None:
            engine = AttackEngine(placement)
            obs.count("engine.builds")
            _cache_engine(key, engine)
            _snapshot_to_dir(engine)
        return engine
    _ENGINES.move_to_end(key)
    obs.count("engine.cache.hits")
    obs.gauge("engine.cache.size", len(_ENGINES))
    return engine


def configure_engine_state_dir(path: Optional[str]) -> None:
    """Point the process at a directory of engine-state snapshots.

    ``engine_for`` then hydrates cache misses from
    ``<dir>/<fingerprint>.npz`` (when present) and persists cold builds
    there, so successive processes over the same placement lineage skip
    the O(b r) engine build. ``None`` turns the warm path off.
    """
    global _ENGINE_STATE_DIR
    _ENGINE_STATE_DIR = path


def engine_state_dir() -> Optional[str]:
    """The configured snapshot directory (None = warm path off)."""
    return _ENGINE_STATE_DIR


def _state_dir_degraded(path: str, exc: BaseException) -> None:
    """Warn once per reason that the snapshot dir is not cooperating."""
    import warnings

    reason = f"{type(exc).__name__}: {exc}"
    if reason in _STATE_DIR_WARNED:
        return
    _STATE_DIR_WARNED.add(reason)
    obs.record_event("engine.state_dir_degraded", path=path, reason=reason)
    warnings.warn(
        f"engine-state snapshot {path} unusable ({reason}); "
        "continuing on the cold build path",
        RuntimeWarning,
        stacklevel=3,
    )


def _hydrate_from_dir(placement: Placement) -> Optional[AttackEngine]:
    """Try the snapshot directory for this placement's engine, else None."""
    if _ENGINE_STATE_DIR is None:
        return None
    path = os.path.join(
        _ENGINE_STATE_DIR, placement.fingerprint() + ".npz"
    )
    if not os.path.exists(path):
        return None
    from repro.core import artifact

    try:
        engine = hydrate_engine(path)
    except artifact.ArtifactError as exc:
        _state_dir_degraded(path, exc)
        return None
    if engine is not None and (
        engine.placement.fingerprint() != placement.fingerprint()
    ):  # pragma: no cover - requires a misnamed snapshot file
        engine._detach()
        return None
    return engine


def _snapshot_to_dir(engine: AttackEngine) -> None:
    """Persist a cold-built engine's snapshot (best-effort, atomic)."""
    if _ENGINE_STATE_DIR is None:
        return
    path = os.path.join(
        _ENGINE_STATE_DIR, engine.placement.fingerprint() + ".npz"
    )
    if os.path.exists(path):
        return
    try:
        snapshot_engine(engine, path)
    except OSError as exc:
        # The snapshot is an optimization; never fail the run over it.
        _state_dir_degraded(path, exc)


def snapshot_engine(
    engine: AttackEngine, path: str, s_values: Optional[Sequence[int]] = None
) -> None:
    """Write ``engine``'s placement + packed gain states as an artifact.

    ``s_values`` defaults to every threshold (1..r) so any later cell
    hydrates warm. The write is atomic
    (temp file + rename): concurrent writers race benignly because
    identical content wins either way.
    """
    from repro.core import artifact
    from repro.core.kernels import GAIN_STATE_VERSION

    placement = engine.placement
    thresholds = (
        sorted(int(s) for s in s_values)
        if s_values is not None else range(1, placement.r + 1)
    )
    states = {}
    for s in thresholds:
        kernel = engine.kernel(s)
        states[s] = kernel.export_state(kernel.empty_hits())
    scratch = f"{path}.tmp.{os.getpid()}"
    try:
        artifact.save_engine_state(
            scratch, placement, states, state_version=GAIN_STATE_VERSION
        )
        os.replace(scratch, path)
    except BaseException:
        if os.path.exists(scratch):
            os.unlink(scratch)
        raise


def hydrate_engine(
    path: str,
    mmap: bool = True,
    validate: bool = False,
) -> Optional[AttackEngine]:
    """Rebuild a warm engine from an engine-state snapshot.

    Returns ``None`` when the artifact's format or packed-state version
    is newer than this process understands (callers cold-build instead);
    corrupt artifacts raise :class:`~repro.core.artifact.ArtifactError` —
    checksum-gated trust, like placement artifacts. The hydrated engine
    registers in the process cache under its fingerprint, so subsequent
    :func:`engine_for` calls for the same structure reuse it. A hydrated
    engine is bit-for-bit equivalent to a cold-built one: the packed
    states seed each kernel's empty-state template, and every backing
    interprets the same canonical little-endian words.
    """
    from repro.core import artifact
    from repro.core.kernels import GAIN_STATE_VERSION

    try:
        with obs.span("engine.hydrate", path=str(path)):
            bundle = artifact.load_engine_state(
                path, mmap=mmap, validate=validate,
                state_version=GAIN_STATE_VERSION,
            )
            engine = AttackEngine(bundle.placement)
            for s, data in sorted(bundle.states.items()):
                engine.kernel(s).seed_empty_state(data)
    except artifact.ArtifactVersionError:
        return None
    obs.count("engine.hydrations")
    obs.count("engine.builds_avoided")
    _cache_engine((bundle.fingerprint, engine.gain_backing), engine)
    return engine


def _validate_cells(placement: Placement, cells: Sequence[AttackCell]) -> None:
    for cell in cells:
        if not 1 <= cell.k < placement.n:
            raise ValueError(f"need 1 <= k < n={placement.n}, got k={cell.k}")
        if not 1 <= cell.s <= placement.r:
            raise ValueError(f"need 1 <= s <= r={placement.r}, got s={cell.s}")
        if cell.effort not in _EFFORTS:
            raise ValueError(
                f"unknown effort {cell.effort!r}; use one of {_EFFORTS}"
            )


def _attack_group(
    placement: Placement,
    s: int,
    group: Sequence[Tuple[int, AttackCell]],
    seed: int,
    cache: Optional[bool] = None,
    lanes: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> List[Tuple[int, AttackResult]]:
    """Attack one threshold group (pre-sorted by k), chaining incumbents.

    Top-level so multiprocessing can pickle it; the warm engine comes from
    the per-process cache, so a worker handed several payloads of one
    placement (or a forked child of a warm parent) reuses kernel state.
    """
    engine = engine_for(placement)
    results: List[Tuple[int, AttackResult]] = []
    warm: Optional[Tuple[int, ...]] = None
    for index, cell in group:
        attack = engine.attack(
            cell, seed=seed, rng=rng, warm_start=warm, cache=cache,
            lanes=lanes,
        )
        warm = attack.nodes
        results.append((index, attack))
    return results


def _attack_group_task(payload):
    """One pool task: attack a group and report the metrics it recorded.

    Forked workers inherit the parent's counter values, and one worker
    may serve several payloads — so each task returns the registry
    *delta* between its start and end alongside the results. The parent
    merges those deltas, which makes counter totals exact for any worker
    count (see ``repro.obs.metrics``).
    """
    mark = obs.checkpoint()
    chunk = _attack_group(*payload)
    return chunk, obs.delta_since(mark)


def batch_attack(
    placement: Placement,
    cells: Iterable[AttackCell],
    workers: Optional[int] = None,
    seed: int = 0,
    rng: Optional[random.Random] = None,
    cache: Optional[bool] = None,
    lanes: Optional[int] = None,
) -> List[AttackResult]:
    """Evaluate a grid of attack cells; results align with the input order.

    ``workers`` picks the process fan-out (default: ``REPRO_WORKERS``/serial);
    see :func:`_partition` for how grids split across workers and the
    effect on heuristic warm-start chains.
    ``rng`` overrides the per-cell derived generators with one shared
    caller-managed generator (serial mode only; used by single-cell
    wrappers that expose an ``rng`` parameter) and disables memoization.
    ``cache`` overrides the ``REPRO_ATTACK_CACHE`` default for this call.
    ``lanes`` pins the polish-chain lane count; an explicit budget is
    split across the process fan-out (``max(1, lanes // processes)``)
    exactly like the kernel thread budget, while the ``auto`` default
    follows each worker's already-split thread budget for free.
    """
    cell_list = list(cells)
    _validate_cells(placement, cell_list)
    if not cell_list:
        return []
    if lanes is not None and lanes < 1:
        raise ValueError(f"lanes must be >= 1, got {lanes}")
    groups: Dict[int, List[Tuple[int, AttackCell]]] = {}
    for index, cell in enumerate(cell_list):
        groups.setdefault(cell.s, []).append((index, cell))
    for group in groups.values():
        group.sort(key=lambda item: (item[1].k, item[0]))
    workers = worker_count() if workers is None else workers
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    results: List[Optional[AttackResult]] = [None] * len(cell_list)
    payloads = _partition(placement, groups, seed, workers, cache, lanes)
    if workers > 1 and len(payloads) > 1 and rng is None:
        import multiprocessing

        # Warm the parent engine first: under fork the children inherit
        # the built incidence copy-on-write instead of rebuilding it —
        # and any payload fully answerable from the parent's memo skips
        # the pool outright.
        engine = engine_for(placement)
        pending = []
        for payload in payloads:
            chunk = _memoized_group(engine, payload)
            if chunk is None:
                pending.append(payload)
            else:
                for index, attack in chunk:
                    results[index] = attack
        if pending:
            from repro.core import native

            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context(
                "fork" if "fork" in methods else None
            )
            processes = min(workers, len(pending))
            # Split the kernel thread budget across the fan-out so
            # (workers x kernel threads) never oversubscribes the host.
            # An explicit lane budget splits the same way; auto lanes
            # follow each worker's split thread budget on their own.
            if lanes is not None:
                lane_budget = max(1, lanes // processes)
                pending = [
                    payload[:-1] + (lane_budget,) for payload in pending
                ]
            with context.Pool(
                processes=processes,
                initializer=native.configure_threads,
                initargs=(native.worker_thread_budget(processes),),
            ) as pool:
                tasks = pool.map(_attack_group_task, pending)
            chunks = [chunk for chunk, _delta in tasks]
            for _chunk, delta in tasks:
                obs.merge_delta(delta)
            for chunk in chunks:
                for index, attack in chunk:
                    results[index] = attack
            # Adopt worker results so later repeats are served locally.
            _adopt_results(engine, pending, chunks, cache)
    else:
        for placement_, s, group, seed_, cache_, lanes_ in payloads:
            for index, attack in _attack_group(
                placement_, s, group, seed_, cache=cache_, lanes=lanes_,
                rng=rng,
            ):
                results[index] = attack
    return results  # type: ignore[return-value]


def _memoized_group(engine: AttackEngine, payload) -> Optional[
    List[Tuple[int, AttackResult]]
]:
    """Serve one worker payload entirely from the engine memo, or None.

    Walks the group's warm-start chain key by key; any miss aborts (the
    chain's later keys depend on the missing result, so partial service
    is impossible).
    """
    _placement, _s, group, seed, cache, _lanes = payload
    if not (attack_cache_default() if cache is None else cache):
        return None
    results: List[Tuple[int, AttackResult]] = []
    warm: Optional[Tuple[int, ...]] = None
    for index, cell in group:
        cached = engine.memo_get((cell.k, cell.s, cell.effort, seed, warm))
        if cached is None:
            return None
        results.append((index, cached))
        warm = cached.nodes
    _CACHE_STATS["hits"] += len(results)
    obs.count("attack.memo.hits", len(results))
    return results


def _adopt_results(engine: AttackEngine, payloads, chunks, cache) -> None:
    """Store worker-computed attacks in the parent memo (post-pool)."""
    if not (attack_cache_default() if cache is None else cache):
        return
    for payload, chunk in zip(payloads, chunks):
        _placement, _s, group, seed, _cache, _lanes = payload
        warm: Optional[Tuple[int, ...]] = None
        for (index, cell), (_index, attack) in zip(group, chunk):
            engine.memo_put((cell.k, cell.s, cell.effort, seed, warm), attack)
            warm = attack.nodes


def _partition(
    placement: Placement,
    groups: Dict[int, List[Tuple[int, AttackCell]]],
    seed: int,
    workers: int,
    cache: Optional[bool] = None,
    lanes: Optional[int] = None,
) -> List[
    Tuple[
        Placement, int, List[Tuple[int, AttackCell]], int,
        Optional[bool], Optional[int],
    ]
]:
    """Split threshold groups into worker payloads.

    One payload per threshold by default; with spare workers, large
    single-threshold k-ladders are chunked into contiguous ascending-k
    runs so ``workers`` helps even when every cell shares one ``s`` (the
    common case: CLI grids, fig7, run_attack_grid). Each chunk keeps its
    internal warm-start chain; chunk boundaries start cold, so heuristic
    results can differ between worker counts (exact efforts cannot).
    Chunking is a pure function of (cells, workers): a fixed worker count
    replays bit-for-bit.
    """
    payloads = []
    chunks_per_group = max(1, workers // max(1, len(groups)))
    for s, group in sorted(groups.items()):
        chunk_count = min(len(group), chunks_per_group)
        size = -(-len(group) // chunk_count)
        for offset in range(0, len(group), size):
            payloads.append((
                placement, s, group[offset:offset + size], seed, cache, lanes,
            ))
    return payloads


def attack_grid(
    placement: Placement,
    k_values: Sequence[int],
    s_values: Sequence[int],
    effort: str = "auto",
    workers: Optional[int] = None,
    seed: int = 0,
    lanes: Optional[int] = None,
) -> Dict[Tuple[int, int], AttackResult]:
    """Full-cartesian convenience wrapper: ``{(k, s): AttackResult}``."""
    cells = [AttackCell(k, s, effort) for s in s_values for k in k_values]
    results = batch_attack(
        placement, cells, workers=workers, seed=seed, lanes=lanes
    )
    return {(cell.k, cell.s): attack for cell, attack in zip(cells, results)}
