"""Damage kernels: the shared hot path of worst-case search.

Every availability number in the paper (Definition 1's ``Avail(pi)`` =
min surviving objects over all C(n, k) failure sets) bottlenecks on one
operation: given a partial failure set, how many objects have lost at
least ``s`` replicas, and which node kills the most next? This module
isolates that operation behind the :class:`DamageKernel` interface:

* :class:`GainKernel` — the incremental gain-table engine that every
  search runs on. It maintains a length-``b`` hit-count vector plus a
  length-``n`` marginal-gain table (``gain[v]`` = objects at count
  ``s - 1`` covered by ``v``), so ``add_node``/``remove_node`` touch only
  the ~``r * b / n`` objects incident to the changed node instead of
  rescanning all ``n * b`` pairs, ``best_addition`` is an O(n) argmax
  over the table, and ``damage_of`` is O(1). Four backings share one
  contract: ``native`` (C hot loops compiled at first use, see
  :mod:`repro.core.native`), ``numpy`` (scatter updates + a vectorized
  bulk rebuild), ``bitset`` (bulk rebuilds via level bitmasks), and
  ``python`` (the dependency-free reference). Selected via
  ``REPRO_GAIN_BACKING`` or the ``gain_backing`` argument; ``auto``
  degrades from native through numpy and bitset to pure python.
* :class:`PythonKernel` — per-node object lists with full rescans. No
  search dispatches it: it is the test oracle, independent of the
  incremental gain logic, and tests construct it directly.

Kernels bind an :class:`Incidence` — the node-major structure built once
per placement — to one fatality threshold ``s``; the batch engine
(:mod:`repro.core.batch`) shares a single incidence across a whole grid
of (k, s, effort) cells.

The ``hits`` objects a kernel hands out are opaque and owned by the
kernel: ``add_node``/``remove_node`` may mutate their argument and return
the object to use afterwards. Search engines therefore backtrack with the
inverse call instead of keeping references to earlier states.
"""

from __future__ import annotations

import os
from array import array
from itertools import chain as _chain
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core import native as _native
from repro.core.placement import Placement

try:  # optional accelerator
    import numpy as _np
except ImportError:  # pragma: no cover - exercised in the no-numpy CI leg
    _np = None

#: Recognized gain-engine backings, fastest-first: the degradation
#: ladder. ``auto`` walks it top-down; a watchdog-detected fault demotes
#: the failing rung for the rest of the process (see demote_backing).
GAIN_BACKINGS: Tuple[str, ...] = ("native", "numpy", "bitset", "python")

#: Version of the packed gain-state wire format (little-endian int32
#: ``counts[b] | gain[n] | dead``). Bumped when the layout changes;
#: artifacts carrying a newer version fall back to a cold rebuild.
GAIN_STATE_VERSION = 1

# Backings demoted after a fault (backing -> reason). Process-wide: once
# a rung is demoted, ``auto`` never climbs back to it; forked workers
# inherit the parent's demotions at fork time.
_DEMOTED: Dict[str, str] = {}


def demote_backing(backing: str, reason: str) -> None:
    """Take one gain-backing rung out of the ``auto`` ladder.

    Called by the shard supervisor after a watchdog-detected fault and by
    the dispatch ladder when a backing fails to construct. The last rung
    (pure python) is never demotable — it is the floor the ladder
    degrades *to*. The first reason wins; re-demoting is a no-op.
    """
    if backing not in GAIN_BACKINGS:
        raise ValueError(
            f"unknown gain backing {backing!r}; use one of {GAIN_BACKINGS}"
        )
    if backing == GAIN_BACKINGS[-1]:
        raise ValueError("the python gain backing is the floor; cannot demote it")
    if backing not in _DEMOTED:
        _DEMOTED[backing] = str(reason)
        obs.count("kernel.demotions")
        obs.record_event("kernel.demotion", backing=backing, reason=str(reason))


def demoted_backings() -> Dict[str, str]:
    """The demoted rungs and why (empty in a fault-free process)."""
    return dict(_DEMOTED)


def restore_backings() -> None:
    """Clear all demotions (tests / explicit operator reset)."""
    _DEMOTED.clear()


def numpy_available() -> bool:
    return _np is not None


def _absorb(levels: List[int], mask: int) -> None:
    """Fold one node's object mask into saturating at-least-count levels.

    ``levels[i]`` is the bitmask of objects with at least ``i + 1`` hits;
    the update must run top-down so each level absorbs the *previous*
    state of the level below. Used by the bitset gain backing's bulk
    rebuild.
    """
    for i in range(len(levels) - 1, 0, -1):
        levels[i] |= levels[i - 1] & mask
    levels[0] |= mask


def resolve_gain_backing(requested: Optional[str] = None) -> str:
    """The concrete gain-engine backing: argument > ``REPRO_GAIN_BACKING``.

    ``auto`` walks the degradation ladder native -> numpy -> bitset ->
    python, skipping unavailable and fault-demoted rungs; an *explicit*
    request for an unavailable (or demoted) backing raises instead of
    degrading, so a pinned configuration never silently measures the
    wrong thing.
    """
    choice = requested or os.environ.get("REPRO_GAIN_BACKING", "auto") or "auto"
    if choice == "auto":
        for backing in GAIN_BACKINGS:
            if backing in _DEMOTED:
                continue
            if backing == "native" and not _native.available():
                continue
            if backing == "numpy" and _np is None:
                continue
            return backing
        return GAIN_BACKINGS[-1]  # python: demote-proof floor
    if choice not in GAIN_BACKINGS:
        raise ValueError(
            f"unknown gain backing {choice!r}; use auto or one of {GAIN_BACKINGS}"
        )
    if choice in _DEMOTED:
        raise ValueError(
            f"gain backing {choice!r} was demoted after a fault: "
            f"{_DEMOTED[choice]}"
        )
    if choice == "native" and not _native.available():
        raise ValueError(
            f"native gain backing requested but unavailable: {_native.load_error()}"
        )
    if choice == "numpy" and _np is None:
        raise ValueError("numpy gain backing requested but numpy is not importable")
    return choice


class Incidence:
    """Node-major incidence structures for one placement, built lazily.

    One instance is shared by every kernel (any ``s``, any backing) and
    every attack cell evaluated against the same placement: bitmasks for
    the bitset backing, CSR arrays for the native backing, index arrays
    and the dense suffix matrix for numpy, suffix replica counts for
    branch-and-bound optimistic bounds.
    """

    def __init__(self, placement: Placement) -> None:
        self.placement = placement
        self.n = placement.n
        self.b = placement.b
        self._masks: Optional[List[int]] = None
        self._matrix = None
        self._suffix_matrix = None
        self._suffix_counts: Optional[List[List[int]]] = None
        self._object_nodes: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._csr: Optional[Tuple[array, array, array, array]] = None
        self._suffix_flat: Optional[array] = None
        self._obj_nodes_np = None
        self._node_objs_np = None
        self._top_degree_prefix: Optional[List[List[int]]] = None

    # -- bitset structures -------------------------------------------------

    def node_masks(self) -> List[int]:
        """``masks[node]`` has bit ``o`` set iff object ``o`` lives there."""
        if self._masks is None:
            node_off, node_objs = self.placement.node_csr()
            masks = [0] * self.n
            for node in range(self.n):
                mask = 0
                for obj_id in node_objs[node_off[node]:node_off[node + 1]]:
                    mask |= 1 << obj_id
                masks[node] = mask
            self._masks = masks
        return self._masks

    def full_mask(self) -> int:
        return (1 << self.b) - 1

    # -- numpy structures --------------------------------------------------

    def matrix(self):
        """Object-by-node ``int16`` incidence matrix (numpy only)."""
        if self._matrix is None:
            matrix = _np.zeros((self.b, self.n), dtype=_np.int16)
            rows = self.placement.replica_matrix()
            matrix[_np.arange(self.b)[:, None], rows] = 1
            self._matrix = matrix
        return self._matrix

    def suffix_matrix(self):
        """``suffix[o, j]`` = replicas of object ``o`` on nodes >= j."""
        if self._suffix_matrix is None:
            reversed_cumsum = _np.cumsum(self.matrix()[:, ::-1], axis=1)[:, ::-1]
            self._suffix_matrix = _np.concatenate(
                [reversed_cumsum, _np.zeros((self.b, 1), dtype=reversed_cumsum.dtype)],
                axis=1,
            )
        return self._suffix_matrix

    # -- pure-python structures --------------------------------------------

    def node_objects(self) -> Tuple[Tuple[int, ...], ...]:
        """For each node, the ids of hosted objects (cached on the placement)."""
        return self.placement.node_incidence()

    def suffix_counts(self) -> List[List[int]]:
        """Pure-python twin of :meth:`suffix_matrix`."""
        if self._suffix_counts is None:
            flat = self.placement.replica_array()
            r = self.placement.r
            rows = [[0] * (self.n + 1) for _ in range(self.b)]
            for obj_id in range(self.b):
                row = rows[obj_id]
                for node in flat[obj_id * r:(obj_id + 1) * r]:
                    row[node] += 1
                for j in range(self.n - 1, -1, -1):
                    row[j] += row[j + 1]
            self._suffix_counts = rows
        return self._suffix_counts

    # -- gain-engine structures ---------------------------------------------

    def object_nodes(self) -> Tuple[Tuple[int, ...], ...]:
        """For each object, its replica nodes in ascending order."""
        if self._object_nodes is None:
            flat = self.placement.replica_array()
            r = self.placement.r
            self._object_nodes = tuple(
                tuple(flat[i:i + r]) for i in range(0, self.b * r, r)
            )
        return self._object_nodes

    def csr(self) -> Tuple[array, array, array, array, array]:
        """Both incidence directions as flat int32 CSR arrays.

        ``(node_off, node_end, node_objs, obj_off, obj_nodes)`` — the
        zero-copy layout shared with the native gain backing (and handy
        for any future accelerator). Node segment ``v`` spans
        ``node_objs[node_off[v]:node_end[v]]``; the split start/end
        arrays exist so :class:`DeltaIncidence` can leave slack between
        segments and absorb churn in place. Here the layout is tight
        (``node_end[v] == node_off[v + 1]``) and object offsets carry one
        trailing sentinel.

        Zero-copy with the array-native placement core: ``node_objs`` is
        the placement's cached CSR buffer and ``obj_nodes`` is the raw
        row-sorted ``(b, r)`` buffer itself (object offsets are the
        arithmetic progression with stride ``r``) — nothing is re-derived
        from per-object sets.
        """
        if self._csr is None:
            node_off, node_objs = self.placement.node_csr()
            node_end = node_off[1:]
            r = self.placement.r
            if _np is not None:
                obj_off = array("i")
                obj_off.frombytes(
                    (_np.arange(self.b + 1, dtype=_np.int32) * r).tobytes()
                )
            else:
                obj_off = array("i", range(0, (self.b + 1) * r, r))
            obj_nodes = self.placement.replica_array()
            self._csr = (node_off, node_end, node_objs, obj_off, obj_nodes)
        return self._csr

    def suffix_flat(self) -> array:
        """:meth:`suffix_counts` flattened row-major for the native bound."""
        if self._suffix_flat is None:
            flat = array("i", bytes(4 * self.b * (self.n + 1)))
            stride = self.n + 1
            for obj_id, row in enumerate(self.suffix_counts()):
                flat[obj_id * stride:(obj_id + 1) * stride] = array("i", row)
            self._suffix_flat = flat
        return self._suffix_flat

    def object_nodes_matrix(self):
        """``(b, r)`` index matrix of replica nodes (numpy gain backing).

        A zero-copy int32 view over the placement's row buffer.
        """
        if self._obj_nodes_np is None:
            self._obj_nodes_np = self.placement.replica_matrix()
        return self._obj_nodes_np

    def node_objects_arrays(self):
        """Per-node object-id index arrays (numpy gain backing).

        Zero-copy slices of the placement's CSR object list.
        """
        if self._node_objs_np is None:
            node_off, node_objs = self.placement.node_csr()
            flat = _np.frombuffer(node_objs, dtype=_np.int32)
            self._node_objs_np = [
                flat[node_off[v]:node_off[v + 1]] for v in range(self.n)
            ]
        return self._node_objs_np

    def top_degree_sum(self, start: int, slots: int) -> int:
        """Max total load of any ``slots`` distinct nodes with id >= start.

        Static per placement. Bounds how many *object incidences* a
        completion drawn from the suffix can add, and therefore (since a
        not-yet-dead object needs at least one added incidence to die) how
        many objects it can newly kill — the cap used by
        :meth:`DamageKernel.refined_bound`.
        """
        if self._top_degree_prefix is None:
            loads = self.placement.load_profile()
            table = []
            for j in range(self.n + 1):
                prefix = [0]
                for load in sorted(loads[j:], reverse=True):
                    prefix.append(prefix[-1] + load)
                table.append(prefix)
            self._top_degree_prefix = table
        prefix = self._top_degree_prefix[start]
        return prefix[min(max(slots, 0), len(prefix) - 1)]


class DeltaIncidence(Incidence):
    """A mutable incidence that absorbs object churn in place.

    The immutable :class:`Incidence` is rebuilt from scratch for every new
    placement; under churn that rebuild (plus the placement snapshot and
    fingerprint hashing feeding it) dominates the cost of re-attacking.
    This subclass instead keeps the core per-node/per-object structures —
    node bitmasks, node -> objects lists, object -> nodes tuples, the load
    profile — as mutable state and edits only the changed objects'
    entries per :meth:`apply_delta` (removals pay an extra O(node load)
    scan per incident node to locate the id being deleted or relabeled,
    so a delta costs O(changed replicas x avg incident load) — still
    independent of ``b * n``); the lazy aggregates (suffix tables, dense
    matrices) are invalidated and rebuilt on next use, which only search
    paths that consume them (branch-and-bound bounds, packed backings)
    ever pay for.

    Delta semantics, shared verbatim by every mirror of the object-id
    space (:class:`repro.core.batch.AttackEngine` callers track ids too):

    * removals are processed in **descending id order**; removing id ``d``
      moves the **last** object into slot ``d`` (swap-with-last keeps ids
      dense, so bitmask width and hit-vector length stay ``b``);
    * additions are appended in iteration order after all removals.

    Attack results are invariant under object re-numbering (damage counts
    and per-node gains aggregate over objects), so a delta-updated engine
    and a cold engine built from the resulting placement return
    bit-for-bit identical :class:`~repro.core.adversary.AttackResult`\\ s
    — the property pinned by ``tests/core/test_delta.py``.
    """

    def __init__(self, placement: Placement) -> None:
        super().__init__(placement)
        self.r = placement.r
        flat = placement.replica_array()
        r = placement.r
        node_off, node_objs = placement.node_csr()
        self._node_objs: List[List[int]] = [
            list(node_objs[node_off[v]:node_off[v + 1]]) for v in range(self.n)
        ]
        self._obj_nodes: List[Tuple[int, ...]] = [
            tuple(flat[i:i + r]) for i in range(0, self.b * r, r)
        ]
        self._loads: List[int] = list(placement.load_array())
        masks = [0] * self.n
        for obj_id, nodes in enumerate(self._obj_nodes):
            bit = 1 << obj_id
            for node in nodes:
                masks[node] |= bit
        self._masks = masks
        self._node_caps: Optional[List[int]] = None

    # Live views: kernels bound to this incidence hold these list objects
    # directly, so in-place edits propagate without rebinding.

    def node_masks(self) -> List[int]:
        return self._masks

    def node_objects(self) -> List[List[int]]:  # type: ignore[override]
        return self._node_objs

    def object_nodes(self) -> List[Tuple[int, ...]]:  # type: ignore[override]
        return self._obj_nodes

    def csr(self) -> Tuple[array, array, array, array, array]:
        """A *padded* CSR export, edited in place across deltas.

        Unlike the base tight layout, node segments carry slack capacity
        and the object-major arrays are sized past the current ``b``, so
        :meth:`apply_delta` updates O(changed replicas) words instead of
        re-flattening everything — the arrays are pinned by the native
        kernel's exported pointers (``array`` refuses to resize while a
        buffer view exists), so they are never resized, only replaced
        wholesale when a segment or the object region overflows its
        capacity (amortized by the headroom). Consumers must bound reads
        by the live ``b`` and the ``node_end`` entries; words beyond are
        garbage.
        """
        if self._csr is None:
            from itertools import chain

            n, r, b = self.n, self.r, self.b
            cap_b = b + (b >> 1) + 8
            obj_off = array("i", range(0, (cap_b + 1) * r, r))
            obj_nodes = array("i", bytes(4 * cap_b * r))
            obj_nodes[:b * r] = array("i", chain.from_iterable(self._obj_nodes))
            caps = [
                len(objs) + (len(objs) >> 1) + 4 for objs in self._node_objs
            ]
            node_off = array("i", bytes(4 * n))
            node_end = array("i", bytes(4 * n))
            store = array("i", bytes(4 * sum(caps)))
            position = 0
            for node, objs in enumerate(self._node_objs):
                node_off[node] = position
                store[position:position + len(objs)] = array("i", objs)
                node_end[node] = position + len(objs)
                position += caps[node]
            self._node_caps = caps
            self._csr = (node_off, node_end, store, obj_off, obj_nodes)
        return self._csr

    def apply_delta(
        self,
        added: Sequence[Sequence[int]] = (),
        removed: Sequence[int] = (),
    ) -> Placement:
        """Absorb one churn batch; returns the resulting placement.

        ``removed`` holds current object ids (distinct, any order);
        ``added`` holds replica node sets (size ``r``, distinct in-range
        nodes). Core structures are edited in O(changed replicas); the
        returned :class:`Placement` is built without re-validation (the
        delta was validated here) and carries the maintained load profile,
        so no later consumer pays an O(b r) rescan.
        """
        added_sets: List[Tuple[int, ...]] = []
        for nodes in added:
            node_tuple = tuple(sorted(nodes))
            if len(frozenset(node_tuple)) != self.r or len(node_tuple) != self.r:
                raise ValueError(
                    f"added object needs {self.r} distinct nodes, got "
                    f"{sorted(nodes)}"
                )
            for node in node_tuple:
                if not 0 <= node < self.n:
                    raise ValueError(
                        f"added object places a replica on node {node}, "
                        f"outside [0, {self.n})"
                    )
            added_sets.append(node_tuple)
        removed_ids = sorted(removed, reverse=True)
        if len(set(removed_ids)) != len(removed_ids):
            raise ValueError(f"duplicate removal ids in {sorted(removed)}")
        for obj_id in removed_ids:
            if not 0 <= obj_id < len(self._obj_nodes):
                raise ValueError(
                    f"cannot remove object {obj_id}: ids span "
                    f"[0, {len(self._obj_nodes)})"
                )
        if len(self._obj_nodes) - len(removed_ids) + len(added_sets) == 0:
            raise ValueError("delta would leave the placement empty")

        masks, node_objs, loads = self._masks, self._node_objs, self._loads
        # The padded CSR export (if built) is edited in lockstep with the
        # list structures; `csr` goes None mid-batch if a capacity
        # overflows, after which it rebuilds lazily from the lists.
        csr = self._csr
        if csr is not None:
            node_off, node_end, store, _obj_off, obj_nodes_flat = csr
            caps = self._node_caps
        r = self.r
        for obj_id in removed_ids:
            bit = 1 << obj_id
            for node in self._obj_nodes[obj_id]:
                node_objs[node].remove(obj_id)
                masks[node] &= ~bit
                loads[node] -= 1
                if csr is not None:
                    tail = node_end[node] - 1
                    for i in range(node_off[node], tail + 1):
                        if store[i] == obj_id:
                            store[i] = store[tail]
                            break
                    node_end[node] = tail
            last = len(self._obj_nodes) - 1
            if obj_id != last:
                moved = self._obj_nodes[last]
                last_bit = 1 << last
                for node in moved:
                    row = node_objs[node]
                    row[row.index(last)] = obj_id
                    masks[node] = (masks[node] & ~last_bit) | bit
                    if csr is not None:
                        for i in range(node_off[node], node_end[node]):
                            if store[i] == last:
                                store[i] = obj_id
                                break
                self._obj_nodes[obj_id] = moved
                if csr is not None:
                    obj_nodes_flat[obj_id * r:(obj_id + 1) * r] = (
                        obj_nodes_flat[last * r:(last + 1) * r]
                    )
            self._obj_nodes.pop()
        for node_tuple in added_sets:
            obj_id = len(self._obj_nodes)
            bit = 1 << obj_id
            if csr is not None:
                if (obj_id + 1) * r > len(obj_nodes_flat):
                    csr = self._csr = None  # object region full; rebuild lazily
                else:
                    obj_nodes_flat[obj_id * r:(obj_id + 1) * r] = array(
                        "i", node_tuple
                    )
            for node in node_tuple:
                node_objs[node].append(obj_id)
                masks[node] |= bit
                loads[node] += 1
                if csr is not None:
                    end = node_end[node]
                    if end - node_off[node] >= caps[node]:
                        csr = self._csr = None  # segment full; rebuild lazily
                    else:
                        store[end] = obj_id
                        node_end[node] = end + 1
            self._obj_nodes.append(node_tuple)

        self.b = len(self._obj_nodes)
        # Snapshot straight into the trusted rows-backed constructor (the
        # delta was validated here; rows are sorted tuples by invariant)
        # and hand over the maintained load profile, so no later consumer
        # pays an O(b r) revalidation or load rescan.
        flat = array("i", _chain.from_iterable(self._obj_nodes))
        placement = Placement(
            n=self.n, rows=flat, r=self.r, strategy=self.placement.strategy,
        )
        placement.__dict__["_load"] = array("i", loads)
        placement.__dict__["_load_profile"] = tuple(loads)
        self.placement = placement
        # Lazy aggregates are stale; drop them for on-demand rebuild.
        # (The padded CSR is NOT dropped — it was maintained above.)
        self._matrix = None
        self._suffix_matrix = None
        self._suffix_counts = None
        self._object_nodes = None
        self._suffix_flat = None
        self._obj_nodes_np = None
        self._node_objs_np = None
        self._top_degree_prefix = None
        return placement


class DamageKernel:
    """Incremental damage evaluation bound to one (placement, s) pair.

    Subclasses implement the hit-vector operations; the contract on
    ``hits`` objects (mutate-and-return, backtrack via the inverse call)
    is described in the module docstring.
    """

    name = "abstract"

    def __init__(self, incidence: Incidence, s: int) -> None:
        placement = incidence.placement
        if not 1 <= s <= placement.r:
            raise ValueError(f"need 1 <= s <= r={placement.r}, got s={s}")
        self.incidence = incidence
        self.placement = placement
        self.s = s
        self.n = placement.n
        self.b = placement.b

    def rebind(self) -> bool:
        """Re-align with an in-place :meth:`DeltaIncidence.apply_delta`.

        Returns True when this kernel absorbed the mutation — it shares
        the incidence's live structures and only its cached shape needed
        refreshing — and False when the caller must rebuild it (packed
        per-object state that cannot be edited surgically). The default is
        conservative: rebuild.
        """
        return False

    def _refresh_shape(self) -> None:
        """Adopt the incidence's post-delta placement and object count."""
        self.placement = self.incidence.placement
        self.b = self.incidence.b

    # -- hit-vector operations --------------------------------------------

    def empty_hits(self):
        raise NotImplementedError

    def add_node(self, hits, node: int):
        raise NotImplementedError

    def remove_node(self, hits, node: int):
        raise NotImplementedError

    def hits_for(self, nodes: Sequence[int]):
        hits = self.empty_hits()
        for node in nodes:
            hits = self.add_node(hits, node)
        return hits

    def damage_of(self, hits) -> int:
        raise NotImplementedError

    def damage_for(self, nodes: Sequence[int]) -> int:
        """One-shot damage of a concrete failure set."""
        return self.damage_of(self.hits_for(nodes))

    def best_addition(self, hits, banned: Sequence[int]) -> Tuple[int, int]:
        """(node, resulting damage) maximizing damage after adding one node.

        Ties break toward the lowest node id in every kernel, so search
        trajectories (and therefore heuristic results) are kernel-independent.
        """
        raise NotImplementedError

    def optimistic_bound(self, hits, start: int, slots: int) -> int:
        """Upper bound on damage after adding ``slots`` nodes from ``>= start``.

        Counts objects that are dead already or still killable: deficit
        (replicas to reach ``s``) at most ``slots`` *and* reachable among
        the not-yet-considered nodes. Used by branch-and-bound pruning.
        This bound is kernel-independent by contract (the property tests
        pin it); kernel-specific tightenings go in :meth:`refined_bound`.
        """
        raise NotImplementedError

    def refined_bound(self, hits, start: int, slots: int) -> int:
        """The tightest sound completion bound this kernel can offer.

        Combines :meth:`optimistic_bound` with the degree cap: every
        not-yet-dead object needs at least one added incidence to die, so
        a completion of ``slots`` nodes from the suffix kills at most
        ``top_degree_sum(start, slots)`` new objects. Kernels with more
        state may tighten further (the gain kernel resolves one-slot
        completions exactly), so unlike ``optimistic_bound`` the value may
        differ between kernels — it only has to stay sound.
        """
        bound = self.optimistic_bound(hits, start, slots)
        cap = self.damage_of(hits) + self.incidence.top_degree_sum(start, slots)
        return cap if cap < bound else bound

    def try_swap(self, hits, node: int, banned, current: int):
        """One local-search polish position: swap ``node`` out if it pays.

        Removes ``node``, finds the best non-banned replacement, keeps it
        iff the resulting damage strictly beats ``current``, and restores
        ``node`` otherwise. ``banned`` must not contain ``node`` (so the
        no-op swap is a legal candidate). Returns
        ``(hits, swapped_in_node_or_None, resulting_damage)``; kernels
        with fused state (the native gain backing) override this to run
        the whole position in one call.
        """
        hits = self.remove_node(hits, node)
        candidate, damage = self.best_addition(hits, banned)
        if damage > current:
            hits = self.add_node(hits, candidate)
            return hits, candidate, damage
        hits = self.add_node(hits, node)
        return hits, None, current

    def polish_pass(self, hits, nodes: List[int], current: int):
        """One steepest-positional local-search sweep over ``nodes``.

        Runs :meth:`try_swap` at every position in order, mutating
        ``nodes`` in place as swaps land. Returns
        ``(hits, resulting_damage, improved)``. The native gain backing
        overrides this to run the whole sweep in one foreign call;
        semantics (visit order, tie-breaks, strict-improvement rule) are
        identical everywhere, so search trajectories stay
        kernel-independent.
        """
        banned = set(nodes)
        improved = False
        for position in range(len(nodes)):
            node = nodes[position]
            banned.discard(node)
            hits, swapped, current = self.try_swap(hits, node, banned, current)
            if swapped is not None:
                nodes[position] = swapped
                banned.add(swapped)
                improved = True
            else:
                banned.add(node)
        return hits, current, improved

    def polish_chain(
        self, seed_nodes: Sequence[int]
    ) -> Tuple[List[int], int, int, int]:
        """One whole polish-to-convergence chain from a seed failure set.

        Builds fresh hit state for the seed (never touching any hits
        object the caller holds), then repeats :meth:`polish_pass` until
        a sweep lands no swap. Returns ``(nodes, damage, passes,
        swaps)`` where ``passes`` counts every sweep (including the
        final non-improving one — the evaluation charge the driver
        reconstructs) and ``swaps`` the positions whose occupant
        changed. A chain is a pure function of (kernel state, seed), so
        chains commute: running them in any order, or on parallel
        lanes, yields identical per-chain results.
        """
        nodes = list(seed_nodes)
        hits = self.hits_for(nodes)
        current = self.damage_of(hits)
        passes = 0
        swaps = 0
        improved = True
        while improved:
            before = list(nodes)
            hits, current, improved = self.polish_pass(hits, nodes, current)
            passes += 1
            swaps += sum(1 for a, b in zip(before, nodes) if a != b)
        return nodes, current, passes, swaps

    def polish_chains(
        self, seeds: Sequence[Sequence[int]], lanes: int = 1
    ) -> List[Tuple[List[int], int, int, int]]:
        """Run one :meth:`polish_chain` per seed; results in seed order.

        ``lanes`` is the concurrency budget. The generic implementation
        runs the chains sequentially whatever the budget (chains commute,
        so this is bit-identical); the native gain backing overrides it
        to fan chains out across replicated-state lanes on the worker
        pool in a single foreign call.
        """
        return [self.polish_chain(seed) for seed in seeds]


class PythonKernel(DamageKernel):
    """Per-node object lists with full rescans; the test oracle."""

    name = "python"

    def __init__(self, incidence: Incidence, s: int) -> None:
        super().__init__(incidence, s)
        self.node_objects = incidence.node_objects()

    def empty_hits(self) -> List[int]:
        return [0] * self.b

    def add_node(self, hits: List[int], node: int) -> List[int]:
        for obj_id in self.node_objects[node]:
            hits[obj_id] += 1
        return hits

    def remove_node(self, hits: List[int], node: int) -> List[int]:
        for obj_id in self.node_objects[node]:
            hits[obj_id] -= 1
        return hits

    def damage_of(self, hits: List[int]) -> int:
        s = self.s
        return sum(1 for h in hits if h >= s)

    def best_addition(self, hits: List[int], banned: Sequence[int]) -> Tuple[int, int]:
        banned_set = set(banned)
        s = self.s
        base = self.damage_of(hits)
        best_node, best_damage = -1, -1
        for node in range(self.n):
            if node in banned_set:
                continue
            # Only objects on `node` can change state; count crossings.
            d = base
            for obj_id in self.node_objects[node]:
                if hits[obj_id] == s - 1:
                    d += 1
            if d > best_damage:
                best_node, best_damage = node, d
        return best_node, best_damage

    def optimistic_bound(self, hits: List[int], start: int, slots: int) -> int:
        suffix = self.incidence.suffix_counts()
        s = self.s
        count = 0
        for obj_id in range(self.b):
            deficit = s - hits[obj_id]
            if deficit <= 0:
                count += 1
            elif deficit <= slots and suffix[obj_id][start] >= deficit:
                count += 1
        return count


class _GainHits:
    """Mutable gain-engine state: hit counts, gain table, dead counter."""

    __slots__ = ("counts", "gain", "dead")

    def __init__(self, counts, gain, dead: int) -> None:
        self.counts = counts
        self.gain = gain
        self.dead = dead


class GainKernel(DamageKernel):
    """The incremental gain-table engine (pure-python backing).

    State per hits object: ``counts[o]`` (failed replicas of object ``o``),
    ``gain[v]`` (objects at exactly ``s - 1`` hits that node ``v`` covers,
    i.e. the marginal damage of failing ``v``), and ``dead`` (objects at
    ``>= s`` hits). ``add_node``/``remove_node`` walk only the objects
    incident to the changed node and propagate boundary crossings (counts
    hitting ``s - 1`` or ``s``) to the ~``r`` incident nodes of each
    crossing object — O(r^2 * b / n) per move versus the O(n * b) rescans
    of a full-scan kernel. ``best_addition`` is an O(n) argmax over the
    table (zero-gain candidates never cost a damage evaluation — the
    candidate pruning of classic max-coverage local search), and
    ``damage_of`` is O(1).

    Subclasses swap the *backing* — how state is stored and bulk-rebuilt —
    without changing results; see the module docstring.
    """

    name = "gain"
    backing = "python"

    def __init__(self, incidence: Incidence, s: int) -> None:
        super().__init__(incidence, s)
        # The per-object/per-node Python structures are bound lazily: the
        # python and bitset backings walk them on every move, but the
        # native and numpy backings never touch them (they consume the
        # packed CSR / index arrays), and forcing the tuple views would
        # cost O(b r) object allocation at engine-build time.
        self._node_objects = None
        self._object_nodes = None
        # Packed empty-state bytes seeded from a snapshot (see
        # seed_empty_state); replaces the O(b r) cold derivation of the
        # s == 1 gain table in empty_hits when present.
        self._seeded_empty: Optional[bytes] = None

    @property
    def node_objects(self):
        if self._node_objects is None:
            self._node_objects = self.incidence.node_objects()
        return self._node_objects

    @property
    def object_nodes(self):
        if self._object_nodes is None:
            self._object_nodes = self.incidence.object_nodes()
        return self._object_nodes

    def rebind(self) -> bool:
        # Pure-python and bitset backings read the delta incidence's live
        # list structures; absorbing a delta is an O(1) shape refresh.
        self._refresh_shape()
        self._node_objects = None
        self._object_nodes = None
        self._seeded_empty = None  # stale after a shape change
        return True

    # -- packed state (snapshot export/import) -----------------------------

    def state_size(self) -> int:
        """Byte length of this kernel's packed state."""
        return 4 * (self.b + self.n + 1)

    def export_state(self, hits: _GainHits) -> bytes:
        """Serialize ``hits`` as versioned packed bytes.

        Wire format (``GAIN_STATE_VERSION`` 1): little-endian int32
        ``counts[b] | gain[n] | dead`` — the native backing's in-memory
        layout, adopted as the canonical format for every backing so
        snapshots transfer across backings and hosts.
        """
        state = array("i", hits.counts)
        state.extend(hits.gain)
        state.append(hits.dead)
        return _native.pack_i32_le(state)

    def _unpack_state(self, data: bytes) -> array:
        """Length-check packed bytes; machine-order int32 array."""
        expected = self.state_size()
        if len(data) != expected:
            raise ValueError(
                f"packed gain state is {len(data)} bytes; kernel with "
                f"b={self.b}, n={self.n} needs {expected}"
            )
        return _native.unpack_i32_le(bytes(data))

    def import_state(self, data: bytes) -> _GainHits:
        """Rebuild a hits object from :meth:`export_state` bytes."""
        state = self._unpack_state(data)
        b = self.b
        return _GainHits(
            list(state[:b]), list(state[b:b + self.n]), state[b + self.n]
        )

    def seed_empty_state(self, data: bytes) -> None:
        """Adopt packed bytes as this kernel's empty (zero-failure) state.

        Subsequent :meth:`empty_hits` calls deserialize the seed instead
        of deriving the s == 1 gain table from the incidence — the O(b r)
        cost a snapshot hydration avoids. The caller vouches for the
        bytes (artifact checksums gate trust); only the length is checked
        here.
        """
        self._unpack_state(data)  # validate length
        self._seeded_empty = bytes(data)

    # -- state ------------------------------------------------------------

    def empty_hits(self) -> _GainHits:
        if self._seeded_empty is not None:
            return self.import_state(self._seeded_empty)
        counts = [0] * self.b
        if self.s == 1:
            gain = [len(objs) for objs in self.node_objects]
        else:
            gain = [0] * self.n
        return _GainHits(counts, gain, 0)

    def add_node(self, hits: _GainHits, node: int) -> _GainHits:
        s = self.s
        counts, gain = hits.counts, hits.gain
        dead = hits.dead
        object_nodes = self.object_nodes
        for obj_id in self.node_objects[node]:
            c = counts[obj_id] + 1
            counts[obj_id] = c
            if c == s:
                dead += 1
                for w in object_nodes[obj_id]:
                    gain[w] -= 1
            elif c == s - 1:
                for w in object_nodes[obj_id]:
                    gain[w] += 1
        hits.dead = dead
        return hits

    def remove_node(self, hits: _GainHits, node: int) -> _GainHits:
        s = self.s
        counts, gain = hits.counts, hits.gain
        dead = hits.dead
        object_nodes = self.object_nodes
        for obj_id in self.node_objects[node]:
            c = counts[obj_id]
            counts[obj_id] = c - 1
            if c == s:
                dead -= 1
                for w in object_nodes[obj_id]:
                    gain[w] += 1
            elif c == s - 1:
                for w in object_nodes[obj_id]:
                    gain[w] -= 1
        hits.dead = dead
        return hits

    # -- queries -----------------------------------------------------------

    def damage_of(self, hits: _GainHits) -> int:
        return hits.dead

    def best_addition(self, hits: _GainHits, banned: Sequence[int]) -> Tuple[int, int]:
        banned_set = (
            banned if isinstance(banned, (set, frozenset)) else set(banned)
        )
        best_node, best_gain = -1, -1
        for node, g in enumerate(hits.gain):
            # Gain comparison first: losing candidates (in particular every
            # zero-gain node once a positive gain is seen) skip the set probe.
            if g > best_gain and node not in banned_set:
                best_node, best_gain = node, g
        if best_node < 0:
            return -1, -1
        return best_node, hits.dead + int(best_gain)

    def optimistic_bound(self, hits: _GainHits, start: int, slots: int) -> int:
        suffix = self.incidence.suffix_counts()
        s = self.s
        counts = hits.counts
        count = 0
        for obj_id in range(self.b):
            deficit = s - counts[obj_id]
            if deficit <= 0:
                count += 1
            elif deficit <= slots and suffix[obj_id][start] >= deficit:
                count += 1
        return count

    def _max_gain_from(self, hits: _GainHits, start: int) -> int:
        return max(hits.gain[start:])

    def refined_bound(self, hits: _GainHits, start: int, slots: int) -> int:
        bound = super().refined_bound(hits, start, slots)
        if slots == 1 and start < self.n:
            # One-slot completions are resolved exactly by the gain table:
            # the best single addition from the suffix adds max gain.
            exact = self.damage_of(hits) + int(self._max_gain_from(hits, start))
            if exact < bound:
                bound = exact
        return bound


class _BitsetGainKernel(GainKernel):
    """Gain engine with bitset bulk rebuilds (dependency-free).

    Incremental moves share the pure-python O(delta) updates; cold
    ``hits_for`` builds fold node masks through the saturating level
    update and read the gain table off ``exactly-(s-1)`` masks with one
    popcount per node instead of replaying per-object transitions.
    """

    backing = "bitset"

    def hits_for(self, nodes: Sequence[int]) -> _GainHits:
        node_list = list(nodes)
        masks = self.incidence.node_masks()
        levels = [0] * self.s
        counts = [0] * self.b
        node_objects = self.node_objects
        for node in node_list:
            _absorb(levels, masks[node])
            for obj_id in node_objects[node]:
                counts[obj_id] += 1
        top = levels[self.s - 1]
        if self.s == 1:
            exact = ~top & self.incidence.full_mask()
        else:
            exact = levels[self.s - 2] & ~top
        gain = [(exact & masks[v]).bit_count() for v in range(self.n)]
        return _GainHits(counts, gain, top.bit_count())


class _NumpyGainKernel(GainKernel):
    """Gain engine on numpy state: scatter updates, vectorized rebuilds."""

    backing = "numpy"

    def __init__(self, incidence: Incidence, s: int) -> None:
        if _np is None:
            raise RuntimeError("numpy gain backing requires numpy")
        super().__init__(incidence, s)
        self._node_arrays = incidence.node_objects_arrays()
        self._obj_matrix = incidence.object_nodes_matrix()

    def rebind(self) -> bool:
        # The packed index arrays cannot be edited surgically, but they
        # re-export from the delta incidence's live lists in O(b) — far
        # cheaper than a placement-snapshot + fingerprint + engine rebuild.
        if not super().rebind():  # pragma: no cover - GainKernel returns True
            return False
        self._node_arrays = self.incidence.node_objects_arrays()
        self._obj_matrix = self.incidence.object_nodes_matrix()
        return True

    def export_state(self, hits: _GainHits) -> bytes:
        state = _np.empty(self.b + self.n + 1, dtype="<i4")
        state[:self.b] = hits.counts
        state[self.b:self.b + self.n] = hits.gain
        state[self.b + self.n] = hits.dead
        return state.tobytes()

    def import_state(self, data: bytes) -> _GainHits:
        state = _np.frombuffer(
            self._unpack_state(data), dtype=_np.int32
        )
        counts = state[:self.b].copy()
        gain = state[self.b:self.b + self.n].astype(_np.int64)
        return _GainHits(counts, gain, int(state[self.b + self.n]))

    def empty_hits(self) -> _GainHits:
        if self._seeded_empty is not None:
            return self.import_state(self._seeded_empty)
        counts = _np.zeros(self.b, dtype=_np.int32)
        if self.s == 1:
            # Column sums of the incidence matrix = the load profile,
            # which the placement carries precomputed.
            gain = _np.array(self.placement.load_profile(), dtype=_np.int64)
        else:
            gain = _np.zeros(self.n, dtype=_np.int64)
        return _GainHits(counts, gain, 0)

    #: Objects per block of the bulk rebuild; bounds temp memory at
    #: ``block * r`` indices regardless of b.
    _REBUILD_BLOCK = 1 << 16

    def hits_for(self, nodes: Sequence[int]) -> _GainHits:
        node_list = list(nodes)
        if not node_list:
            return self.empty_hits()
        # Blocked direct rebuild over the (b, r) replica matrix: node
        # occurrence flags, per-object hit counts via a stride-1 row
        # gather, gain via bincount over at-target rows. Equivalent to
        # (and bit-identical with) the historical dense
        # ``M @ (counts == s - 1)`` path, but never materializes the
        # b x n incidence matrix — the difference between b = 1e5 and
        # b = 1e7 being feasible on this backing.
        flags = _np.zeros(self.n, dtype=_np.int32)
        _np.add.at(flags, node_list, 1)
        rows = self._obj_matrix
        counts = _np.empty(self.b, dtype=_np.int32)
        gain = _np.zeros(self.n, dtype=_np.int64)
        dead = 0
        target = self.s - 1
        for lo in range(0, self.b, self._REBUILD_BLOCK):
            hi = min(lo + self._REBUILD_BLOCK, self.b)
            chunk = rows[lo:hi]
            hit = flags[chunk].sum(axis=1, dtype=_np.int32)
            counts[lo:hi] = hit
            dead += int((hit >= self.s).sum())
            at_target = chunk[hit == target]
            if len(at_target):
                gain += _np.bincount(at_target.ravel(), minlength=self.n)
        return _GainHits(counts, gain, dead)

    def add_node(self, hits: _GainHits, node: int) -> _GainHits:
        objs = self._node_arrays[node]
        counts = hits.counts
        c = counts[objs]
        counts[objs] = c + 1
        to_dead = objs[c == self.s - 1]
        if len(to_dead):
            _np.subtract.at(hits.gain, self._obj_matrix[to_dead].ravel(), 1)
            hits.dead += int(len(to_dead))
        if self.s >= 2:
            to_target = objs[c == self.s - 2]
            if len(to_target):
                _np.add.at(hits.gain, self._obj_matrix[to_target].ravel(), 1)
        return hits

    def remove_node(self, hits: _GainHits, node: int) -> _GainHits:
        objs = self._node_arrays[node]
        counts = hits.counts
        c = counts[objs]
        counts[objs] = c - 1
        from_dead = objs[c == self.s]
        if len(from_dead):
            _np.add.at(hits.gain, self._obj_matrix[from_dead].ravel(), 1)
            hits.dead -= int(len(from_dead))
        if self.s >= 2:
            from_target = objs[c == self.s - 1]
            if len(from_target):
                _np.subtract.at(
                    hits.gain, self._obj_matrix[from_target].ravel(), 1
                )
        return hits

    def best_addition(self, hits: _GainHits, banned: Sequence[int]) -> Tuple[int, int]:
        banned_set = (
            banned if isinstance(banned, (set, frozenset)) else set(banned)
        )
        best_node, best_gain = -1, -1
        for node, g in enumerate(hits.gain.tolist()):
            if g > best_gain and node not in banned_set:
                best_node, best_gain = node, g
        if best_node < 0:
            return -1, -1
        return best_node, hits.dead + int(best_gain)

    def optimistic_bound(self, hits: _GainHits, start: int, slots: int) -> int:
        suffix = self.incidence.suffix_matrix()
        deficit = self.s - hits.counts
        killable = (deficit <= 0) | (
            (deficit <= slots) & (suffix[:, start] >= deficit)
        )
        return int(killable.sum())

    def _max_gain_from(self, hits: _GainHits, start: int) -> int:
        return int(hits.gain[start:].max())


class _NativeGainHits:
    """Packed gain state shared zero-copy with the C library.

    One int32 buffer: ``counts`` in ``state[:b]``, the gain table in
    ``state[b:b + n]``, the dead counter at ``state[b + n]`` — a single
    allocation and a single pointer per foreign call.
    """

    __slots__ = ("state", "ptr", "_b", "_n")

    def __init__(self, state: array, b: int, n: int) -> None:
        self.state = state
        self.ptr = _native.i32_ptr(state)
        self._b = b
        self._n = n

    @property
    def counts(self) -> array:
        return self.state[:self._b]

    @property
    def gain(self) -> array:
        return self.state[self._b:self._b + self._n]

    @property
    def dead(self) -> int:
        return self.state[self._b + self._n]


class _NativeGainKernel(GainKernel):
    """Gain engine with C hot loops (see :mod:`repro.core.native`).

    The fused ``try_swap`` runs a whole polish position — remove, table
    argmax, conditional re-add — in one foreign call, which is what makes
    a LocalSearch sweep kernel-bound rather than interpreter-bound.
    Instances are not thread-safe (they share small scratch buffers);
    process fan-out via the batch engine is unaffected.

    Every call goes through the ``*_mt`` entry points against the
    process-wide worker pool (``REPRO_NATIVE_THREADS`` /
    :func:`repro.core.native.configure_threads`); with a one-thread
    budget, or below the in-kernel work thresholds, those delegate to the
    serial loops, and at any thread count the results are bit-identical
    (per-lane partials merged in index order). ctypes releases the GIL
    for the duration of each foreign call, so the pool's threads run
    unimpeded. The pool handle is re-fetched whenever the pool epoch
    moves (fork, reconfigure) — stale handles are never dereferenced.
    """

    backing = "native"

    def __init__(self, incidence: Incidence, s: int) -> None:
        super().__init__(incidence, s)
        lib = _native.load()
        self._add = lib.gk_add_node_mt
        self._remove = lib.gk_remove_node_mt
        self._bulk = lib.gk_bulk_build_mt
        self._best = lib.gk_best_addition_mt
        self._swap = lib.gk_try_swap_mt
        self._pass = lib.gk_polish_pass_mt
        self._bound = lib.gk_optimistic_bound
        self._chains = lib.gk_polish_chains_mt
        self._lane_alloc = lib.gk_lane_alloc
        self._lane_release = lib.gk_lane_free
        self._lane_handle = None
        self._lane_shape: Optional[Tuple[int, int, int]] = None
        self._banned = array("i", bytes(4 * self.n))
        self._banned_ptr = _native.i32_ptr(self._banned)
        self._out = array("i", [0])
        self._out_ptr = _native.i32_ptr(self._out)
        self._pool_handle = None
        self._pool_seen = -1
        self._bind_model()

    def _pool(self):
        """The process-wide pool handle, epoch-cached per kernel."""
        epoch = _native.pool_epoch()
        if self._pool_seen != epoch:
            self._pool_handle = _native.current_pool()
            self._pool_seen = _native.pool_epoch()
        return self._pool_handle

    def _bind_model(self) -> None:
        """(Re)export the CSR model and empty-state template to C."""
        csr = self.incidence.csr()
        self._csr = csr  # keep the exported buffers alive (and pinned)
        node_off, node_end, node_objs, obj_off, obj_nodes = csr
        self._model = _native.ModelStruct(
            self.n, self.b, self.s,
            _native.i32_ptr(node_off), _native.i32_ptr(node_end),
            _native.i32_ptr(node_objs),
            _native.i32_ptr(obj_off), _native.i32_ptr(obj_nodes),
        )
        self._model_ref = _native.model_ref(self._model)
        self._suffix_ptr = None
        self._rebuild_template()

    def _rebuild_template(self) -> None:
        # Template for empty state: zero counts, per-node degrees in the
        # gain slots when s == 1 (every object sits at s - 1 = 0 hits).
        # Node degree == load (replicas are distinct per object), so the
        # placement's cached load array serves without materializing the
        # per-node object lists.
        template = array("i", bytes(4 * (self.b + self.n + 1)))
        if self.s == 1:
            template[self.b:self.b + self.n] = self.placement.load_array()
        self._empty_template = template.tobytes()

    def rebind(self) -> bool:
        # A DeltaIncidence edits its padded CSR arrays in place, so the
        # usual delta leaves the exported pointers valid: only the model's
        # object count and the empty-state template need refreshing. A
        # replaced CSR (capacity overflow, first upgrade) re-exports.
        # Lane replicas are sized by (b, n), so they are dropped either
        # way: a chain launched after churn must clone the *current*
        # state shape, never a stale pre-delta block.
        if not super().rebind():  # pragma: no cover - GainKernel returns True
            return False
        self._drop_lanes()
        if self.incidence.csr() is not self._csr:
            self._bind_model()
        else:
            self._model.b = self.b
            self._suffix_ptr = None
            self._rebuild_template()
        return True

    def export_state(self, hits: _NativeGainHits) -> bytes:
        return _native.pack_i32_le(hits.state)

    def import_state(self, data: bytes) -> _NativeGainHits:
        return _NativeGainHits(self._unpack_state(data), self.b, self.n)

    def seed_empty_state(self, data: bytes) -> None:
        # The native backing already materializes empty state from a
        # bytes template; the seed replaces it (machine word order).
        self._empty_template = self._unpack_state(data).tobytes()

    def empty_hits(self) -> _NativeGainHits:
        return _NativeGainHits(
            array("i", self._empty_template), self.b, self.n
        )

    def hits_for(self, nodes: Sequence[int]) -> _NativeGainHits:
        hits = _NativeGainHits(
            array("i", bytes(4 * (self.b + self.n + 1))), self.b, self.n
        )
        node_arr = array("i", nodes)
        # Both CSR exports lay object offsets out as the stride-r ramp,
        # which the threaded rebuild exploits as a contiguous row walk.
        self._bulk(
            self._model_ref, self._pool(), _native.i32_ptr(node_arr),
            len(node_arr), self.placement.r, hits.ptr,
        )
        return hits

    def add_node(self, hits: _NativeGainHits, node: int) -> _NativeGainHits:
        self._add(self._model_ref, self._pool(), node, hits.ptr)
        return hits

    def remove_node(self, hits: _NativeGainHits, node: int) -> _NativeGainHits:
        self._remove(self._model_ref, self._pool(), node, hits.ptr)
        return hits

    def damage_of(self, hits: _NativeGainHits) -> int:
        return hits.dead

    def best_addition(self, hits: _NativeGainHits, banned: Sequence[int]) -> Tuple[int, int]:
        flags = self._banned
        for node in banned:
            flags[node] = 1
        best = self._best(
            self._model_ref, self._pool(), hits.ptr, self._banned_ptr,
            self._out_ptr,
        )
        for node in banned:
            flags[node] = 0
        if best < 0:
            return -1, -1
        return best, self._out[0]

    def try_swap(self, hits: _NativeGainHits, node: int, banned, current: int):
        flags = self._banned
        for banned_node in banned:
            flags[banned_node] = 1
        swapped = self._swap(
            self._model_ref, self._pool(), node, self._banned_ptr, current,
            hits.ptr, self._out_ptr,
        )
        for banned_node in banned:
            flags[banned_node] = 0
        if swapped < 0:
            return hits, None, current
        return hits, swapped, self._out[0]

    def polish_pass(self, hits: _NativeGainHits, nodes: List[int], current: int):
        flags = self._banned
        node_arr = array("i", nodes)
        for node in nodes:
            flags[node] = 1
        improved = self._pass(
            self._model_ref, self._pool(), hits.ptr, _native.i32_ptr(node_arr),
            len(node_arr), self._banned_ptr, current, self._out_ptr,
        )
        final_nodes = node_arr.tolist()
        for node in final_nodes:
            flags[node] = 0
        if improved:
            nodes[:] = final_nodes
            return hits, self._out[0], True
        return hits, current, False

    def _drop_lanes(self) -> None:
        """Free the lane block; the next chain batch reallocates."""
        handle = getattr(self, "_lane_handle", None)
        if handle:
            self._lane_release(handle)
        self._lane_handle = None
        self._lane_shape = None

    def _lane_set(self, width: int):
        """A C lane block of `width` state replicas, cached per shape.

        Keyed by (width, b, n): a delta-rebound shape change can shrink
        or grow the packed-state footprint, so a stale block would be
        read out of bounds — :meth:`rebind` also drops it eagerly.
        """
        shape = (width, self.b, self.n)
        if self._lane_handle is None or self._lane_shape != shape:
            self._drop_lanes()
            handle = self._lane_alloc(width, self.b, self.n)
            if not handle:
                raise MemoryError(
                    f"gk_lane_alloc({width}, b={self.b}, n={self.n}) failed"
                )
            self._lane_handle = handle
            self._lane_shape = shape
        return self._lane_handle

    def __del__(self):  # noqa: D105 - release C-side lane memory
        try:
            self._drop_lanes()
        except Exception:  # pragma: no cover - interpreter teardown
            pass

    def polish_chains(
        self, seeds: Sequence[Sequence[int]], lanes: int = 1
    ) -> List[Tuple[List[int], int, int, int]]:
        """Fused chain batch: every chain in one foreign call.

        Each lane clones the bound engine's packed state shape and runs
        chains serially inside (the coarse tasks are the parallelism, so
        the fine-grained ``_mt`` paths never nest under a lane); up to
        ``min(lanes, pool width)`` chains run concurrently. Chain i
        writes only its own output slots, so results are bit-identical
        to the sequential generic path at any lane count.
        """
        seeds = [list(seed) for seed in seeds]
        chains = len(seeds)
        if chains == 0:
            return []
        k = len(seeds[0])
        if any(len(seed) != k for seed in seeds):
            raise ValueError("polish chains need uniform seed sizes")
        width = min(max(1, lanes), chains)
        pool = self._pool() if width > 1 else None
        if pool is None:
            width = 1
        else:
            width = min(width, _native.pool_threads())
        lane_set = self._lane_set(width)
        all_nodes = array("i", [node for seed in seeds for node in seed])
        damages = array("i", bytes(4 * chains))
        passes = array("i", bytes(4 * chains))
        swaps = array("i", bytes(4 * chains))
        self._chains(
            self._model_ref, pool if width > 1 else None, lane_set,
            _native.i32_ptr(all_nodes), chains, k,
            _native.i32_ptr(damages), _native.i32_ptr(passes),
            _native.i32_ptr(swaps),
        )
        return [
            (
                all_nodes[i * k:(i + 1) * k].tolist(),
                damages[i],
                passes[i],
                swaps[i],
            )
            for i in range(chains)
        ]

    def optimistic_bound(self, hits: _NativeGainHits, start: int, slots: int) -> int:
        if self._suffix_ptr is None:
            self._suffix_ptr = _native.i32_ptr(self.incidence.suffix_flat())
        return int(
            self._bound(
                self._model_ref, hits.ptr, self._suffix_ptr, start, slots
            )
        )


_GAIN_KERNELS = {
    "native": _NativeGainKernel,
    "numpy": _NumpyGainKernel,
    "bitset": _BitsetGainKernel,
    "python": GainKernel,
}


def make_kernel(
    placement: Placement,
    s: int,
    incidence: Optional[Incidence] = None,
    gain_backing: Optional[str] = None,
) -> DamageKernel:
    """Build the gain kernel for ``(placement, s)``.

    Pass ``incidence`` to share one :class:`Incidence` across several
    kernels (different ``s``) over the same placement. ``gain_backing``
    pins the backing (default: ``REPRO_GAIN_BACKING``/auto).
    """
    if incidence is None:
        incidence = Incidence(placement)
    elif incidence.placement is not placement:
        raise ValueError("incidence was built for a different placement")
    return _dispatch_gain_kernel(incidence, s, gain_backing)


def _dispatch_gain_kernel(
    incidence: Incidence, s: int, gain_backing: Optional[str]
) -> DamageKernel:
    """Build a gain kernel, riding the degradation ladder on faults.

    This is the ``kernels.dispatch`` injection point. Per attempt: resolve
    the backing (honoring demotions made meanwhile), evaluate the chaos
    plan, construct. An injected ``backend`` fault — or a *real*
    infrastructure failure under ``auto`` — demotes the rung and
    re-resolves, so the ladder degrades native -> numpy -> bitset ->
    python instead of failing the run; transient ``error`` faults just
    retry. ``ValueError``/``TypeError`` are bad arguments, not a broken
    backing — every rung rejects them identically, so they propagate
    without demoting. Explicit (non-auto) requests propagate all real
    failures unchanged: pins never silently degrade. All backings are
    bit-identical by contract, so a demotion changes speed, never
    results.
    """
    from repro import faults

    choice = (
        gain_backing or os.environ.get("REPRO_GAIN_BACKING", "auto") or "auto"
    )
    last: Optional[BaseException] = None
    for attempt in range(4):
        backing = resolve_gain_backing(gain_backing)
        try:
            faults.inject("kernels.dispatch", backing=backing, s=s, attempt=attempt)
            with obs.span("kernels.dispatch", backing=backing, s=s):
                kernel = _GAIN_KERNELS[backing](incidence, s)
            obs.count("kernel.dispatch." + backing)
            return kernel
        except faults.InjectedFault as fault:
            last = fault
            if (
                fault.kind == "backend"
                and choice == "auto"
                and backing != GAIN_BACKINGS[-1]
            ):
                demote_backing(backing, f"injected backend fault ({fault})")
        except (ValueError, TypeError):
            raise
        except Exception as exc:
            if choice != "auto" or backing == GAIN_BACKINGS[-1]:
                raise
            demote_backing(backing, f"{type(exc).__name__}: {exc}")
            last = exc
    raise RuntimeError(
        f"gain kernel dispatch failed after 4 attempts: {last}"
    ) from last
