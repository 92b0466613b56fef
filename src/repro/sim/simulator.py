"""The cluster lifetime simulator: churn, failures, repair, online attacks.

The paper evaluates placements as static snapshots; this driver evaluates
them *over time* (the Sec. IV-D future-work regime): a seeded
discrete-event loop advances one :class:`~repro.cluster.cluster.Cluster`
through interleaved

* **object churn** — a :func:`~repro.cluster.workload.churn_trace` feeds
  arrivals/departures, placed and released by an
  :class:`~repro.core.adaptive.AdaptiveComboPlacement` (so the Lemma-3
  certificate tracks the live population);
* **node failures** — memoryless random crashes and correlated
  whole-rack crashes, each repairing after a fixed downtime;
* **re-replication** — an eager/lazy/none :mod:`repro.sim.repair` policy
  rebuilds lost redundancy on healthy nodes (and, once it moves a
  replica, voids the packing certificate — recorded honestly);
* **a recurring online adversary** — a
  :class:`~repro.cluster.failures.WorstCaseInjector` strike every period,
  warm-started from the previous strike.

Engine modes make the delta machinery measurable: ``"delta"`` (default)
keeps one warm :class:`~repro.core.batch.AttackEngine` aligned with the
population through :class:`~repro.sim.mirror.EngineMirror` — churn
between strikes costs one O(changed replicas) ``apply_delta`` — while
``"rebuild"`` replays the pre-delta behaviour (snapshot + fingerprint +
cold incidence per strike). Both modes draw identical randomness and
produce bit-identical strike records; ``benchmarks/bench_sim.py`` times
the gap.

Everything is a pure function of :class:`SimConfig` (all randomness
derives from ``seed`` via labelled streams), so runs replay bit-for-bit.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro import obs
from repro.cluster.cluster import Cluster
from repro.cluster.failures import WorstCaseInjector
from repro.cluster.metrics import LoadStats
from repro.cluster.objects import LivenessRule, threshold_rule
from repro.cluster.workload import ChurnKind, churn_trace
from repro.core.adaptive import AdaptiveComboPlacement
from repro.sim.events import Event, EventKind, EventQueue
from repro.sim.mirror import EngineMirror
from repro.sim.processes import (
    AdversaryProcess,
    ChurnProcess,
    MeasureProcess,
    Process,
    RackFailureProcess,
    RandomFailureProcess,
)
from repro.sim.repair import (
    RepairPolicy,
    choose_repair_target,
    make_repair_policy,
)
from repro.sim.report import SimReport, SimSample, StrikeRecord
from repro.util.rng import derive_rng

_ENGINE_MODES = ("delta", "rebuild")


@dataclass(frozen=True)
class SimConfig:
    """One lifetime experiment, fully specified.

    Rates are events per unit time (0 disables the process); periods are
    time units between firings. ``events`` caps the number of handled
    events (every queue pop counts: churn, failures, repairs, strikes,
    measures), which is the budget the events/sec throughput metric is
    measured against.
    """

    n: int = 31
    r: int = 3
    s: int = 2
    k: int = 3
    events: int = 2000
    seed: int = 0
    racks: int = 1
    arrival_probability: float = 0.6
    warmup_arrivals: int = 64
    churn_interval: float = 1.0
    failure_rate: float = 0.0
    rack_failure_rate: float = 0.0
    repair_time: float = 8.0
    strike_period: float = 16.0
    measure_period: float = 8.0
    effort: str = "fast"
    engine_mode: str = "delta"
    repair: str = "none"
    repair_grace: float = 4.0
    replan_interval: int = 64
    expected_objects: int = 64
    lanes: Optional[int] = None

    def validate(self) -> None:
        if self.n < 2:
            raise ValueError(f"need n >= 2 nodes, got {self.n}")
        if not 1 <= self.k < self.n:
            raise ValueError(f"need 1 <= k < n={self.n}, got k={self.k}")
        if not 1 <= self.s <= self.r:
            raise ValueError(f"need 1 <= s <= r={self.r}, got s={self.s}")
        if self.events < 1:
            raise ValueError(f"need an event budget >= 1, got {self.events}")
        if self.racks < 1:
            raise ValueError(f"need racks >= 1, got {self.racks}")
        if self.engine_mode not in _ENGINE_MODES:
            raise ValueError(
                f"unknown engine mode {self.engine_mode!r}; "
                f"use one of {_ENGINE_MODES}"
            )
        if self.effort not in ("fast", "auto", "exact"):
            raise ValueError(
                f"unknown effort {self.effort!r}; use fast, auto or exact"
            )
        if self.repair_time <= 0:
            raise ValueError(f"repair time must be > 0, got {self.repair_time}")
        if self.lanes is not None and self.lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {self.lanes}")


class LifetimeSimulator:
    """Drives one :class:`SimConfig` to a :class:`SimReport`."""

    def __init__(self, config: SimConfig) -> None:
        config.validate()
        self.config = config
        self.rule: LivenessRule = threshold_rule(config.s)
        self.cluster = Cluster(config.n, racks=config.racks)
        self.adaptive = AdaptiveComboPlacement(
            config.n, config.r, config.s, config.k,
            expected_objects=config.expected_objects,
            replan_interval=config.replan_interval,
        )
        self.repair_policy: RepairPolicy = make_repair_policy(
            config.repair, grace=config.repair_grace
        )
        self.mirror = EngineMirror(config.n)
        self.injector = WorstCaseInjector(
            effort=config.effort, seed=config.seed, lanes=config.lanes,
        )
        self._trace = churn_trace(
            steps=config.events,
            arrival_probability=config.arrival_probability,
            warmup_arrivals=config.warmup_arrivals,
            rng=derive_rng(config.seed, "sim", "churn-trace"),
        )
        self._victims = derive_rng(config.seed, "sim", "victims")
        self._live: List[int] = []
        self._warm: Optional[tuple] = None
        self._failed_at: Dict[int, float] = {}
        self._certified = True
        self._queue = EventQueue()
        self._handled = 0
        self._processes: Dict[EventKind, Process] = {}
        self._report = SimReport(
            n=config.n, r=config.r, s=config.s, k=config.k,
            seed=config.seed, engine_mode=config.engine_mode,
        )
        self._install_processes()

    def _install_processes(self) -> None:
        config = self.config
        processes: List[Process] = [ChurnProcess(config.churn_interval)]
        if config.failure_rate > 0:
            processes.append(RandomFailureProcess(config.failure_rate))
        if config.rack_failure_rate > 0:
            processes.append(RackFailureProcess(config.rack_failure_rate))
        if config.strike_period > 0:
            processes.append(AdversaryProcess(config.strike_period, config.k))
        if config.measure_period > 0:
            processes.append(MeasureProcess(config.measure_period))
        for process in processes:
            process.bind(config.seed)
            self._processes[process.kind] = process
            # Churn starts at t=0 so warmup arrivals populate the cluster
            # before the first failure/strike/measure can fire.
            first = 0.0 if isinstance(process, ChurnProcess) else process.delay()
            self._queue.push(first, process.event())

    # -- the event loop ------------------------------------------------------

    def run(self) -> SimReport:
        start = _time.perf_counter()
        handled_before = self._handled
        while self._queue and self._handled < self.config.events:
            now, event = self._queue.pop()
            self._handled += 1
            counted_kind = self._dispatch(now, event)
            self._report.count_event(counted_kind.value)
        if self._handled > handled_before:
            obs.count("sim.events", self._handled - handled_before)
        self._report.events = self._handled
        self._report.end_time = self._queue.now
        self._report.wall_seconds = _time.perf_counter() - start
        return self._report

    def _dispatch(self, now: float, event: Event) -> EventKind:
        kind = event.kind
        if kind in (EventKind.ARRIVAL, EventKind.DEPARTURE):
            return self._handle_churn(now)
        if kind == EventKind.NODE_FAIL:
            self._handle_node_fail(now)
        elif kind == EventKind.RACK_FAIL:
            self._handle_rack_fail(now)
        elif kind == EventKind.STRIKE:
            self._handle_strike(now)
        elif kind == EventKind.NODE_REPAIR:
            node = self.cluster.nodes[event.node]
            if not node.is_up:
                node.recover()
        elif kind == EventKind.REREPLICATE:
            self._handle_rereplicate(event.node, event.epoch)
        elif kind == EventKind.MEASURE:
            self._handle_measure(now)
            self._reschedule(EventKind.MEASURE, now)
        return kind

    def _reschedule(self, kind: EventKind, now: float) -> None:
        process = self._processes.get(kind)
        if process is not None:
            self._queue.push(now + process.delay(), process.event())

    # -- churn ---------------------------------------------------------------

    def _handle_churn(self, now: float) -> EventKind:
        step = next(self._trace, None)
        if step is None:
            return EventKind.ARRIVAL  # trace exhausted: inert tick
        self._reschedule(EventKind.ARRIVAL, now)
        if step.kind == ChurnKind.ARRIVAL:
            obj_id = self.adaptive.add_object()
            nodes = self.adaptive.replica_nodes(obj_id)
            self.cluster.add_object(obj_id, nodes)
            self._live.append(obj_id)
            if self.config.engine_mode == "delta":
                self.mirror.add(obj_id, nodes)
            # The adaptive placement is failure-oblivious (blocks come
            # from the packing, not from cluster health), so an arrival
            # can land replicas on a failed node; give the repair policy
            # a chance to rebuild them like any other lost redundancy.
            for node in nodes:
                if not self.cluster.nodes[node].is_up:
                    when = self.repair_policy.rereplicate_at(now, node)
                    if when is not None:
                        self._queue.push(
                            when,
                            Event(
                                kind=EventKind.REREPLICATE,
                                node=node,
                                epoch=self._failed_at.get(node),
                            ),
                        )
            return EventKind.ARRIVAL
        if self._live:
            victim = self._live.pop(self._victims.randrange(len(self._live)))
            self.adaptive.remove_object(victim)
            self.cluster.remove_object(victim)
            if self.config.engine_mode == "delta":
                self.mirror.remove(victim)
        return EventKind.DEPARTURE

    # -- failures and repair -------------------------------------------------

    def _fail_and_schedule_repair(self, now: float, node: int) -> None:
        self.cluster.fail_nodes([node])
        self._failed_at[node] = now
        self._queue.push(
            now + self.config.repair_time,
            Event(kind=EventKind.NODE_REPAIR, node=node),
        )
        when = self.repair_policy.rereplicate_at(now, node)
        if when is not None:
            self._queue.push(
                when, Event(kind=EventKind.REREPLICATE, node=node, epoch=now)
            )

    def _handle_node_fail(self, now: float) -> None:
        process = self._processes[EventKind.NODE_FAIL]
        self._reschedule(EventKind.NODE_FAIL, now)
        up = [node.node_id for node in self.cluster.nodes if node.is_up]
        if not up:
            return
        self._fail_and_schedule_repair(now, process.rng.choice(up))

    def _handle_rack_fail(self, now: float) -> None:
        process = self._processes[EventKind.RACK_FAIL]
        self._reschedule(EventKind.RACK_FAIL, now)
        rack = process.rng.randrange(self.cluster.racks)
        for node in self.cluster.nodes:
            if node.rack == rack and node.is_up:
                self._fail_and_schedule_repair(now, node.node_id)

    def _handle_rereplicate(self, node_id: int, epoch: Optional[float]) -> None:
        node = self.cluster.nodes[node_id]
        if node.is_up or self._failed_at.get(node_id) != epoch:
            # Repaired within the grace period — or this check belongs to
            # an older failure of a node that has since failed again (the
            # newer failure carries its own grace clock).
            return
        for obj_id in sorted(node.replicas):
            stored = self.cluster.objects[obj_id]
            target = choose_repair_target(
                self.cluster.loads(),
                [candidate.is_up for candidate in self.cluster.nodes],
                exclude=sorted(stored.replica_nodes),
            )
            if target is None:
                continue  # no healthy host available; stay degraded
            new_nodes = (stored.replica_nodes - {node_id}) | {target}
            self.cluster.remove_object(obj_id)
            self.cluster.add_object(obj_id, new_nodes)
            if self.config.engine_mode == "delta":
                self.mirror.replace(obj_id, tuple(sorted(new_nodes)))
            # The placement is no longer the packing the DP certified.
            self._certified = False

    # -- the adversary -------------------------------------------------------

    def _handle_strike(self, now: float) -> None:
        process = self._processes[EventKind.STRIKE]
        self._reschedule(EventKind.STRIKE, now)
        if not self._live:
            return
        if self.config.engine_mode == "delta":
            self.injector.engine = self.mirror.flush()
        else:
            self.injector.engine = None  # snapshot + fingerprint per strike
        nodes = self._select_strike(process.k)
        obs.count("sim.strikes")
        obs.count(
            "sim.strikes.delta"
            if self.config.engine_mode == "delta"
            else "sim.strikes.rebuild"
        )
        attack = self.injector.last_result
        self._warm = attack.nodes
        for node in nodes:
            if self.cluster.nodes[node].is_up:
                self._fail_and_schedule_repair(now, node)
        self._report.record_strike(
            StrikeRecord(
                time=now,
                nodes=tuple(nodes),
                damage=attack.damage,
                live_objects=len(self._live),
                lower_bound=self.adaptive.lower_bound(process.k),
                certified=self._certified,
            )
        )

    def _select_strike(self, k: int):
        """Run the adversary once, retrying injected transient faults.

        The ``sim.strike`` injection point. Selection is a pure function
        of the cluster state and warm start, so a retry recomputes the
        identical strike — a chaos-injected hiccup perturbs timing, never
        the simulated trajectory.
        """
        from repro import faults

        last = None
        for attempt in range(4):
            mark = obs.checkpoint()
            try:
                faults.inject("sim.strike", k=k, attempt=attempt)
                with obs.span("sim.strike", k=k):
                    return self.injector.select(
                        self.cluster, k, self.rule, warm_start=self._warm
                    )
            except faults.InjectedFault as exc:
                # A retried strike re-records its work; drop the failed
                # attempt's gated recordings so totals stay invariant
                # under chaos retries that succeed.
                obs.rollback(mark)
                last = exc
        raise last

    # -- measurement ---------------------------------------------------------

    def _handle_measure(self, now: float) -> None:
        loads = self.cluster.loads()
        if self.cluster.objects:
            imbalance = LoadStats.from_loads(loads).imbalance
        else:
            imbalance = 1.0
        failed = self.cluster.failed_nodes()
        self._report.record_sample(
            SimSample(
                time=now,
                events=self._handled,
                live_objects=len(self._live),
                failed_nodes=len(failed),
                availability=self.cluster.availability(self.rule),
                load_imbalance=imbalance,
                repair_backlog=sum(loads[node] for node in failed),
            )
        )


def simulate(**overrides) -> SimReport:
    """Run one lifetime experiment; keyword args override :class:`SimConfig`."""
    return LifetimeSimulator(SimConfig(**overrides)).run()
