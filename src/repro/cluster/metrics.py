"""Cluster-simulation metrics: the plane's event stream -> ClusterReport.

:class:`MetricsCollector` is the default consumer of the control plane's
:mod:`~repro.cluster.events`: its :meth:`~MetricsCollector.fold` keeps
one :class:`RequestRecord` per ``done`` event, one :class:`DropRecord`
per ``reject`` / ``shed`` / ``fail``, each request's terminal kind, and a
count of every event kind (steals, retries and requeues are counts of
their events).  :meth:`MetricsCollector.report` reduces that to the
numbers a capacity study reads off: per-SLO-class latency percentiles,
*goodput* (deadline-met completions per second — the metric a deployment
is actually provisioned for), per-class goodput shares with a Jain
fairness index, and per-worker utilisation.

Conservation — ``submitted == completed + rejected + shed + failed``,
per run and per SLO class — is a law of the stream, stated once in
:func:`repro.cluster.events.check`; the report carries the four buckets
(``failed`` is zero on every fault-free run).  All percentile and rate
computations are guarded for the degenerate edges — zero completions,
all-rejected runs, single-sample classes — mirroring ``ServingStats``.

Fault-tolerance accounting (availability, retries, requeues, per-worker
downtime and detection latency) is carried on the same report but only
*rendered* when a run actually saw fault activity, keeping fault-free
reports byte-identical to the pre-fault simulator's output.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence

import numpy as np

from .events import ARRIVE, DONE, FAIL, KINDS, REJECT, REQUEUE, RETRY, SHED, STEAL, Event

__all__ = [
    "RequestRecord",
    "DropRecord",
    "WorkerReport",
    "ClassReport",
    "MetricsCollector",
    "ClusterReport",
    "jain_index",
]


#: terminal event kind -> DropRecord.kind
_DROPPED = {REJECT: "rejected", SHED: "shed", FAIL: "failed"}


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index ``(sum x)^2 / (k * sum x^2)`` over shares.

    1.0 means perfectly even allocation, ``1/k`` means one of ``k``
    parties holds everything.  Degenerate edges: fewer than two parties
    is trivially fair (1.0); all-zero allocations (nobody got anything)
    also report 1.0 — equal misery is still equal.
    """
    xs = np.asarray(list(values), dtype=np.float64)
    if xs.size < 2:
        return 1.0
    denom = xs.size * float(np.sum(xs * xs))
    if denom == 0.0:
        return 1.0
    return float(np.sum(xs)) ** 2 / denom


def _percentile(values: Sequence[float], q: float) -> float:
    """``np.percentile`` that tolerates empty inputs (returns 0.0)."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


@dataclass
class RequestRecord:
    """Lifecycle of one simulated request (all times in simulated s)."""

    request_id: Hashable
    slo_class: str
    arrival_s: float
    dispatch_s: float
    complete_s: float
    worker: int
    batch_size: int
    deadline_s: Optional[float]  # latency budget (relative to arrival)
    stolen: bool = False  # served by a worker it was not routed to

    @property
    def queue_s(self) -> float:
        return self.dispatch_s - self.arrival_s

    @property
    def latency_s(self) -> float:
        return self.complete_s - self.arrival_s

    @property
    def deadline_met(self) -> bool:
        return self.deadline_s is None or self.latency_s <= self.deadline_s


@dataclass
class DropRecord:
    """One request that was never served: rejected, shed, or failed.

    ``kind`` is ``"rejected"`` (turned away at arrival by the admission
    policy), ``"shed"`` (admitted, then dropped once its deadline became
    unreachable: by the plane under ``ControlConfig.drop_expired``, or
    by decode's continuous batching), or
    ``"failed"`` (lost to faults: transient-error retry budget
    exhausted, or orphaned by a down worker with requeueing disabled or
    no healthy worker left to take it).
    """

    request_id: Hashable
    slo_class: str
    t_s: float  # simulated time of the drop
    kind: str
    deadline_s: Optional[float] = None


@dataclass
class WorkerReport:
    """Per-worker accounting over the simulated horizon."""

    wid: int
    utilization: float  # busy_s / makespan
    busy_s: float
    batches: int
    served: int
    mean_batch_size: float
    stolen_in: int
    cold_compiles: int
    plan_cache: dict  # SALO.cache_info() of the worker's engine
    # Fault-tolerance accounting (all zero on fault-free runs):
    crashes: int = 0
    rejoins: int = 0
    downtime_s: float = 0.0  # marked-down time, incl. still down at end
    detect_s: float = 0.0  # mean crash -> marked-down latency
    breaker_trips: int = 0  # circuit-breaker opens (grey failures)

    def to_dict(self) -> dict:
        """JSON-ready view (plan-cache counters flattened alongside)."""
        return asdict(self)


@dataclass
class ClassReport:
    """Latency/goodput statistics of one SLO class.

    A class can appear with zero completions (every member rejected or
    shed under overload control); its percentiles are then 0.0 and its
    rates are defined as 0.0 rather than dividing by zero.
    """

    name: str
    completed: int
    deadline_s: Optional[float]
    latency_p50_ms: float
    latency_p99_ms: float
    queue_p50_ms: float
    deadline_met_rate: float
    goodput_rps: float  # deadline-met completions per simulated second
    rejected: int = 0  # turned away at admission
    shed: int = 0  # dropped past its deadline (the plane's drop_expired, or decode)
    goodput_share: float = 0.0  # this class's slice of cluster goodput
    failed: int = 0  # lost to faults (terminal)

    @property
    def submitted(self) -> int:
        """Arrivals of this class: completed + rejected + shed + failed."""
        return self.completed + self.rejected + self.shed + self.failed

    def to_dict(self) -> dict:
        """JSON-ready view; the derived ``submitted`` rides along so
        consumers can check per-class conservation without re-deriving."""
        out = asdict(self)
        out["submitted"] = self.submitted
        return out


@dataclass
class ClusterReport:
    """Everything a capacity decision needs from one simulation run.

    Conservation: ``submitted == completed + rejected + shed + failed``
    for every drained run (nothing left queued, nothing lost in flight),
    and the same identity holds per SLO class.  ``failed``, ``retries``,
    ``requeues`` and ``availability`` are the fault-tolerance view; on a
    fault-free run they are 0 / 0 / 0 / 1.0 and stay out of
    :meth:`render` entirely.
    """

    completed: int
    makespan_s: float
    throughput_rps: float
    goodput_rps: float
    deadline_met_rate: float
    mean_batch_size: float
    latency_p50_ms: float
    latency_p99_ms: float
    classes: List[ClassReport]
    workers: List[WorkerReport]
    steals: int
    submitted: int = 0
    rejected: int = 0
    shed: int = 0
    fairness_index: float = 1.0  # Jain index over per-class goodput
    failed: int = 0  # terminal fault losses
    retries: int = 0  # transient-error redispatches scheduled
    requeues: int = 0  # orphans re-routed off down workers
    availability: float = 1.0  # 1 - downtime / (workers x makespan)

    def class_report(self, name: str) -> ClassReport:
        for cls in self.classes:
            if cls.name == name:
                return cls
        raise KeyError(f"no SLO class {name!r} in report")

    def to_dict(self) -> dict:
        """JSON-ready view of the whole report.

        The machine-readable twin of :meth:`render` — what the CLI's
        ``--json`` mode prints and the provisioning advisor consumes.
        Per-class and per-worker sub-blocks are nested dicts (see
        :meth:`ClassReport.to_dict` / :meth:`WorkerReport.to_dict`);
        every value is a plain int/float/str/bool, so the result
        round-trips through ``json`` without custom encoders.
        """
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "shed": self.shed,
            "failed": self.failed,
            "makespan_s": self.makespan_s,
            "throughput_rps": self.throughput_rps,
            "goodput_rps": self.goodput_rps,
            "deadline_met_rate": self.deadline_met_rate,
            "mean_batch_size": self.mean_batch_size,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p99_ms": self.latency_p99_ms,
            "fairness_index": self.fairness_index,
            "steals": self.steals,
            "retries": self.retries,
            "requeues": self.requeues,
            "availability": self.availability,
            "fault_activity": self.fault_activity,
            "classes": [cls.to_dict() for cls in self.classes],
            "workers": [w.to_dict() for w in self.workers],
        }

    def render(self) -> str:
        lines = [
            f"requests submitted   {self.submitted} "
            f"(rejected {self.rejected}, shed {self.shed})",
            f"requests completed   {self.completed}",
            f"makespan             {self.makespan_s * 1e3:.2f} ms (simulated)",
            f"throughput           {self.throughput_rps:.0f} req/s",
            f"goodput              {self.goodput_rps:.0f} req/s "
            f"(deadline-met rate {self.deadline_met_rate:.1%})",
            f"mean batch size      {self.mean_batch_size:.2f}",
            f"latency p50/p99      {self.latency_p50_ms:.3f} / {self.latency_p99_ms:.3f} ms",
            f"work steals          {self.steals}",
            f"fairness (Jain)      {self.fairness_index:.3f} over per-class goodput",
        ]
        for cls in self.classes:
            budget = "none" if cls.deadline_s is None else f"{cls.deadline_s * 1e3:.0f} ms"
            lines.append(
                f"  class {cls.name:<12} n={cls.completed:<5} deadline {budget:>7}  "
                f"p50 {cls.latency_p50_ms:.3f} ms  p99 {cls.latency_p99_ms:.3f} ms  "
                f"met {cls.deadline_met_rate:.1%}  rej {cls.rejected}  shed {cls.shed}  "
                f"share {cls.goodput_share:.1%}"
            )
        for w in self.workers:
            lines.append(
                f"  worker {w.wid}: util {w.utilization:.1%}  "
                f"batches {w.batches} (mean size {w.mean_batch_size:.2f})  "
                f"stolen-in {w.stolen_in}  cold compiles {w.cold_compiles}  "
                f"plan cache {w.plan_cache['hits']}h/{w.plan_cache['misses']}m"
            )
        # Fault-tolerance block: appended only when the run actually saw
        # fault activity, so fault-free renders stay byte-identical to
        # the pre-fault simulator's output.
        if self.fault_activity:
            lines.append(
                f"fault tolerance      failed {self.failed}  "
                f"retries {self.retries}  requeues {self.requeues}"
            )
            lines.append(f"availability         {self.availability:.1%}")
            for w in self.workers:
                if not (w.crashes or w.rejoins or w.downtime_s > 0 or w.breaker_trips):
                    continue
                lines.append(
                    f"  worker {w.wid}: crashes {w.crashes}  rejoins {w.rejoins}  "
                    f"down {w.downtime_s * 1e3:.2f} ms  "
                    f"detect {w.detect_s * 1e3:.2f} ms  "
                    f"breaker trips {w.breaker_trips}"
                )
        return "\n".join(lines)

    @property
    def fault_activity(self) -> bool:
        """Did anything fault-related happen this run?"""
        return bool(
            self.failed
            or self.retries
            or self.requeues
            or any(
                w.crashes or w.rejoins or w.downtime_s > 0 or w.breaker_trips
                for w in self.workers
            )
        )


class MetricsCollector:
    """Folds the control plane's events into records and counters."""

    def __init__(self) -> None:
        self.records: List[RequestRecord] = []
        self.drops: List[DropRecord] = []
        self.counts: Dict[str, int] = dict.fromkeys(KINDS, 0)  # event kind -> events folded
        self.fate: Dict[Hashable, str] = {}  # request id -> its terminal event kind
        self.stolen_in: Counter = Counter()  # worker id -> requests stolen into it
        self.first_arrival_s: Optional[float] = None
        self.last_complete_s: float = 0.0

    def fold(self, event: Event) -> None:
        """Take one :class:`Event` into the records and counters."""
        kind, t, request, worker, _, payload = event
        self.counts[kind] += 1
        if kind == ARRIVE:
            if self.first_arrival_s is None or t < self.first_arrival_s:
                self.first_arrival_s = t
        elif kind == DONE:
            self.records.append(payload)
            self.fate[request] = kind
            self.last_complete_s = max(self.last_complete_s, payload.complete_s)
        elif kind in _DROPPED:
            self.fate[request] = kind
            self.drops.append(
                DropRecord(request, payload.slo_class, t, _DROPPED[kind], payload.deadline_s)
            )
        elif kind == STEAL:
            self.stolen_in[worker] += len(payload[1])

    # ------------------------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Submitted requests without a terminal outcome yet."""
        return self.counts[ARRIVE] - len(self.records) - len(self.drops)

    def report(
        self,
        workers,
        cache_info: Callable[[object], dict] = lambda w: w.salo.cache_info(),
    ) -> ClusterReport:
        """Reduce to a :class:`ClusterReport` (safe on empty runs).

        ``cache_info`` maps a worker to its engine's plan-cache counters
        (the control plane passes its executor's).
        """
        records, counts = self.records, self.counts
        completed = len(records)
        start = self.first_arrival_s if self.first_arrival_s is not None else 0.0
        makespan = max(self.last_complete_s - start, 0.0)
        latencies = [r.latency_s for r in records]
        met = [r for r in records if r.deadline_met]
        throughput = completed / makespan if makespan > 0 else 0.0
        goodput = len(met) / makespan if makespan > 0 else 0.0

        by_class: Dict[str, List[RequestRecord]] = {}
        for r in records:
            by_class.setdefault(r.slo_class, []).append(r)
        drops_by_class: Dict[str, List[DropRecord]] = {}
        for d in self.drops:
            drops_by_class.setdefault(d.slo_class, []).append(d)
        classes = []
        total_met = len(met)
        for name in sorted(set(by_class) | set(drops_by_class)):
            recs = by_class.get(name, [])
            cls_drops = drops_by_class.get(name, [])
            cls_met = [r for r in recs if r.deadline_met]
            # Every guard below covers a real overload-control outcome:
            # a class can end a run with zero completions (all rejected
            # or shed), and the report must still render finite numbers.
            deadline_s = (
                recs[0].deadline_s if recs else cls_drops[0].deadline_s
            )
            classes.append(
                ClassReport(
                    name=name,
                    completed=len(recs),
                    deadline_s=deadline_s,
                    latency_p50_ms=_percentile([r.latency_s for r in recs], 50) * 1e3,
                    latency_p99_ms=_percentile([r.latency_s for r in recs], 99) * 1e3,
                    queue_p50_ms=_percentile([r.queue_s for r in recs], 50) * 1e3,
                    deadline_met_rate=len(cls_met) / len(recs) if recs else 0.0,
                    goodput_rps=len(cls_met) / makespan if makespan > 0 else 0.0,
                    rejected=sum(1 for d in cls_drops if d.kind == "rejected"),
                    shed=sum(1 for d in cls_drops if d.kind == "shed"),
                    goodput_share=len(cls_met) / total_met if total_met else 0.0,
                    failed=sum(1 for d in cls_drops if d.kind == "failed"),
                )
            )

        worker_reports = []
        total_downtime = 0.0
        for w in workers:
            # A worker still marked down when the run drains has an open
            # downtime window: close it at the measurement horizon.
            downtime = w.downtime_s
            if w.down_since_s is not None:
                downtime += max(self.last_complete_s - w.down_since_s, 0.0)
            total_downtime += downtime
            delays = w.detect_delays
            worker_reports.append(
                WorkerReport(
                    wid=w.wid,
                    utilization=w.busy_s / makespan if makespan > 0 else 0.0,
                    busy_s=w.busy_s,
                    batches=w.batches,
                    served=w.served,
                    mean_batch_size=w.served / w.batches if w.batches else 0.0,
                    stolen_in=self.stolen_in[w.wid],
                    cold_compiles=w.cold_compiles,
                    plan_cache=cache_info(w),
                    crashes=w.crashes,
                    rejoins=w.rejoins,
                    breaker_trips=w.breaker.trips if w.breaker is not None else 0,
                    downtime_s=downtime,
                    detect_s=float(np.mean(delays)) if delays else 0.0,
                )
            )
        horizon = makespan * max(len(worker_reports), 1)
        availability = 1.0 - total_downtime / horizon if horizon > 0 else 1.0

        batch_sizes = [r.batch_size for r in records]
        return ClusterReport(
            completed=completed,
            makespan_s=makespan,
            throughput_rps=throughput,
            goodput_rps=goodput,
            deadline_met_rate=len(met) / completed if completed else 0.0,
            mean_batch_size=float(np.mean(batch_sizes)) if batch_sizes else 0.0,
            latency_p50_ms=_percentile(latencies, 50) * 1e3,
            latency_p99_ms=_percentile(latencies, 99) * 1e3,
            classes=classes,
            workers=worker_reports,
            steals=counts[STEAL],
            submitted=counts[ARRIVE],
            rejected=counts[REJECT],
            shed=counts[SHED],
            fairness_index=jain_index([c.goodput_rps for c in classes]),
            failed=counts[FAIL],
            retries=counts[RETRY],
            requeues=counts[REQUEUE],
            availability=max(availability, 0.0),
        )
