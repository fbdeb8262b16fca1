"""One control plane over the engine pool, driven by an executor.

:class:`ControlPlane` makes every serving decision, as handlers of five
event kinds:

* **arrival** — the pool routes the request (plan affinity), the
  admission policy accepts it or records a rejection (the overload
  valve), and the worker is marked: each handler only marks the workers
  it touched, and the plane consults each marked worker's batch policy
  once per instant, after every arrival due by then (so a burst is
  batched whole on every executor).  With ``drop_expired`` the plane
  *sheds* the worker's queued requests already past their deadline
  before each consultation: no policy sees a doomed request.  Rejected,
  shed and failed requests are terminal outcomes fed back to closed-loop
  sources exactly like completions, so ``submitted == completed +
  rejected + shed + failed`` holds on every drained run.
* **service-complete** — completions are recorded (on a transient error
  each member instead retries after capped exponential backoff, against
  its budget) and the worker is marked.  After each instant's
  consultations, idle workers with dry queues steal from busy peers.
* **batch-close timer** — a holding policy (max-wait / size-latency)
  named a future instant at which an open queue must be re-examined.
* **expiry timer** — with ``drop_expired``, one timer waits at the
  earliest deadline of any queued request; already-doomed queued
  requests are shed then, *between* policy consultations too, and it is
  re-armed at the next earliest deadline.
* **heartbeat probe** — where workers can die, a periodic sweep asks the
  executor about each (``up -> suspect -> down`` on silence); a down
  worker's orphans — the batches it held plus its queue — are requeued
  oldest-deadline-first or failed.

How a batch runs and how time passes is the :class:`Executor` seam —
"launch this batch on this worker; what happened next; is this worker
alive" — with exactly two implementations.  :class:`SimulatedExecutor`
is virtual time: a launch is charged what the
:class:`~repro.cluster.pool.ServiceModel` says it costs, the clock jumps
to the earliest event on the heap, and worker **crash** / **rejoin**
instants, stragglers and transient errors come from the
:class:`~repro.cluster.faults.FaultInjector`.  On the default
:class:`~repro.cluster.pool.CostModelClock` every duration derives from
the paper's cycle model (``SALO.estimate``): same seed, same report, no
wall-clock reads, ties broken by insertion order; without an (active)
injector there are no probes, RNG draws or extra events.  On
:class:`~repro.cluster.pool.MeasuredClock` a launch runs the batch on
the worker's engine and is charged its measured time — how in-process
serving runs: a session's timeline is virtual time advanced by engine
time.  :class:`~repro.transport.cluster.TransportExecutor` is the wall
clock: a launch ships the batch to a real worker (possibly a process
that can genuinely be ``kill -9``'d) and timers fire when due.  Either
way a completion carries each member's own output.

:class:`ClusterSimulator`, :class:`~repro.transport.cluster.
TransportCluster`, :class:`~repro.serving.session.ServingSession` and
:class:`~repro.decode.DecodeScheduler` are thin fronts that pick the
executor and feed the plane arrivals (as events at their offsets through
:meth:`ControlPlane._play`, or on ``submit``); routing, admission, batching,
retry and recovery exist once, here, and every outcome they decide is
one :mod:`~repro.cluster.events` event: the report is the collector's
fold over them, and :func:`~repro.cluster.events.check` states the laws
(conservation among them).  Each worker's queue comes from the
configured policy (:meth:`~repro.cluster.policy.BatchPolicy.queue`).
Traffic whose requests *stay* — a decode sequence holds a lane for one
launch per token — is the same plane under
:class:`~repro.cluster.decode.ContinuousBatching`:
:class:`~repro.cluster.decode.DecodeClusterSimulator` is a
:class:`ClusterSimulator` that overrides one seam,
:meth:`ControlPlane._complete` (what a served launch means for a
member), beside the retry and admission-estimate methods; the two
in-process fronts override it to keep the output the completion hands
each member by position, and their ``step()`` spends a launch budget so
it stops at a batch (session) or a round (decode) boundary.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from ..api import engine_factory
from ..core.salo import SALO
from ..serving.batching import Batch
from ..serving.request import AttentionRequest
from ..serving.admission import (
    AdmissionContext,
    AdmissionPolicy,
    AdmitAll,
    queue_drain_estimate,
)
from .arrivals import RequestSource
from .events import ARRIVE, DONE, FAIL, LAUNCH, LAUNCH_COMPLETE, REJECT, REQUEUE, RETRY, SHED
from .events import STEAL, Event
from .faults import FaultInjector, RecoveryConfig, WORKER_SUSPECT, WORKER_UP
from .metrics import MetricsCollector, ClusterReport, RequestRecord
from .policy import BatchPolicy, GreedyFIFOPolicy, recovery_order
from .pool import CircuitBreaker, CostModelClock, EnginePool, ServiceModel, Worker

__all__ = ["ControlConfig", "SimConfig", "Executor", "SimulatedExecutor", "ControlPlane",
           "ClusterSimulator", "simulate"]

_ARRIVE, _COMPLETE, _TIMER = 0, 1, 2
_EXPIRE, _CRASH, _REJOIN, _PROBE, _RETRY, _GIVE_UP = 3, 4, 5, 6, 7, 8
_MIN_TIMER_STEP = 1e-9  # forward progress guard for degenerate timers

# What one heartbeat probe can establish about a worker.
PROBE_ANSWERED, PROBE_SILENT, PROBE_DEAD = "answered", "silent", "dead"


@dataclass
class ControlConfig:
    """Knobs of the control plane, whatever executes the batches.

    ``drop_expired`` sheds a request once its deadline passes: queued
    ones at each consultation and when the expiry timer fires, retried
    and requeued ones when placed.  Serving them is pure waste —
    completion comes strictly after dispatch, so a request expired at
    dispatch cannot meet its deadline.
    ``backend`` names the registered execution backend every worker
    engine is built from (see :func:`repro.api.list_backends`), unless
    the front hands the plane an engine factory of its own.
    ``recovery`` holds the heartbeat / retry / requeue / breaker knobs,
    in the executor's own seconds (simulated or wall-clock).
    """

    workers: int = 2
    max_batch_size: int = 8
    bucket_floor: int = 16
    pad_to_bucket: bool = False
    steal: bool = True
    affinity_miss_prob: float = 0.1
    policy: BatchPolicy = field(default_factory=GreedyFIFOPolicy)
    admission: AdmissionPolicy = field(default_factory=AdmitAll)
    drop_expired: bool = False
    backend: str = "functional"
    recovery: RecoveryConfig = field(default_factory=RecoveryConfig)


@dataclass
class SimConfig(ControlConfig):
    """Knobs of one cluster simulation.

    ``service`` is the clock a batch is charged on.  ``salo_factory``
    builds each worker's engine in place of ``backend``'s (``None``:
    the backend's), so the two are refused together unless ``backend``
    is the default.  ``faults`` is an optional
    :class:`~repro.cluster.faults.FaultInjector`; with no injector (or
    an empty one) the run is byte-identical to the fault-free simulator
    — no probes, no RNG draws, no extra events.
    """

    service: ServiceModel = field(default_factory=CostModelClock)
    salo_factory: Optional[Callable[[], SALO]] = None
    faults: Optional[FaultInjector] = None

    def __post_init__(self) -> None:
        if self.salo_factory is not None and self.backend != "functional":
            raise ValueError(
                f"salo_factory: a custom engine factory replaces backend {self.backend!r}; "
                "name the engine one way"
            )


class Executor:
    """How batches run and time passes under a :class:`ControlPlane`.

    Owns the event heap (the plane's timers go through :meth:`schedule`)
    and decides what "the next event" means.
    """

    slots = 1  # batches a worker may hold at once
    heartbeats = False  # workers can die, so the plane probes them
    batch_overhead_s = 0.0  # host cost one launch amortises (admission estimate)

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, object]] = []
        self._seq = 0

    def schedule(self, t: float, kind: int, payload: object) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (t, self._seq, kind, payload))

    @property
    def scheduled(self) -> int:
        return len(self._heap)

    def arrival_due(self, t: float) -> bool:
        """Is the next event an arrival due by ``t``?  The plane consults
        each marked worker once per instant, after every due arrival."""
        return bool(self._heap) and self._heap[0][2] == _ARRIVE and self._heap[0][0] <= t

    def completed(
        self, t: float, worker: Worker, launch_id: int, failed: bool, service_s: float, served
    ) -> None:
        """A launched batch finished at ``t`` (``failed``: transient error);
        ``service_s`` is service time not already charged at launch, and
        ``served`` one ``(output, result)`` per member or ``None``."""
        self.schedule(t, _COMPLETE, (worker, launch_id, failed, service_s, served))

    def schedule_faults(self) -> None:
        """Put the fault model's crash and rejoin instants on the heap."""

    def cancel_all(self) -> List[Tuple[float, int, int, object]]:
        """Empty the heap; returns what was on it."""
        events, self._heap = self._heap, []
        return events

    def next_event(self) -> Optional[Tuple[float, int, object]]:
        """Block until something happens: ``(time, kind, payload)``;
        ``None`` ends the run."""
        raise NotImplementedError

    def launch(
        self, worker: Worker, launch_id: int, batch: Batch, cold: bool, now: float
    ) -> Optional[float]:
        """Start ``batch``; :meth:`completed` follows unless the worker
        dies first.  Returns the service time known now (the rest rides
        on the completion), or ``None``: the worker is dead, took nothing."""
        raise NotImplementedError

    def probe(self, worker: Worker, now: float) -> str:
        """One heartbeat: ``PROBE_ANSWERED`` / ``_SILENT`` / ``_DEAD``."""
        raise NotImplementedError

    def jitter(self, delay_s: float, jitter_frac: float) -> float:
        """Extra retry delay decorrelating a backoff of ``delay_s``."""
        return 0.0

    def cache_info(self, worker: Worker) -> dict:
        """Plan-cache counters of the engine that serves ``worker``."""
        return worker.salo.cache_info()


class SimulatedExecutor(Executor):
    """Virtual time: service from a clock model, faults from an injector."""

    def __init__(
        self, service: ServiceModel, faults: Optional[FaultInjector], workers: int
    ) -> None:
        super().__init__()
        if faults is not None:
            faults.validate_workers(workers)
        self.service = service
        self.injector = faults if faults is not None and faults.active else None
        self.heartbeats = self.injector is not None
        self.batch_overhead_s = getattr(service, "batch_overhead_s", 0.0)

    def schedule_faults(self) -> None:
        if self.injector is not None:
            for t, wid in self.injector.crash_events():
                self.schedule(t, _CRASH, wid)
            for t, wid in self.injector.rejoin_events():
                self.schedule(t, _REJOIN, wid)

    def next_event(self):
        if not self._heap:
            return None
        t, _, kind, payload = heapq.heappop(self._heap)
        return t, kind, payload

    def launch(self, worker, launch_id, batch, cold, now):
        service, served = self.service.launch(worker, batch, cold)
        failed = False
        if self.injector is not None:
            service *= self.injector.service_factor(worker.wid, now)
            failed = self.injector.dispatch_fails(worker.wid, now)
        self.completed(now + service, worker, launch_id, failed, 0.0, served)
        return service

    def probe(self, worker: Worker, now: float) -> str:
        # no ground truth in the model: dead is silent until the timeout
        return PROBE_ANSWERED if worker.alive else PROBE_SILENT

    def jitter(self, delay_s: float, jitter_frac: float) -> float:
        return self.injector.jitter(delay_s, jitter_frac) if self.injector else 0.0


class ControlPlane:
    """Routing, batching, retry, recovery and accounting over a pool.

    Subclasses build ``self.executor`` and feed arrivals (:meth:`_play`).
    Each worker's engine comes from ``salo_factory`` when a front owns
    one, else from ``config.backend``: the one place a backend name
    becomes an engine factory.
    """

    def __init__(
        self, config: ControlConfig, salo_factory: Optional[Callable[[], SALO]] = None
    ) -> None:
        self.config = cfg = config
        self.pool = EnginePool(
            workers=cfg.workers,
            salo_factory=salo_factory or engine_factory(cfg.backend),
            affinity_miss_prob=cfg.affinity_miss_prob,
            queue_factory=lambda: cfg.policy.queue(cfg),
        )
        self.metrics = MetricsCollector()
        self._listeners: List[Callable[[Event], None]] = []
        self._source = RequestSource()  # closed-loop feedback; none by default
        self._routed: Dict[Hashable, int] = {}  # request id -> routed worker id
        self._timer_armed: Dict[int, float] = {}  # worker id -> armed time
        self._consult: Dict[int, Worker] = {}  # worker id -> worker to consult this instant
        self._expiry_at = math.inf  # when the armed expiry timer fires (drop_expired)
        self._recovery = cfg.recovery
        rec = cfg.recovery
        if rec.breaker_threshold is not None:
            # Grey-failure valve: one breaker per worker, watching its
            # own dispatch outcomes (see CircuitBreaker in pool.py).
            for w in self.pool.workers:
                w.breaker = CircuitBreaker(
                    rec.breaker_threshold, rec.breaker_window,
                    rec.breaker_min_samples, rec.breaker_cooldown_s,
                )
        self._attempts: Dict[Hashable, int] = {}  # request id -> transient failures so far
        self._launches = 0
        # launches _dispatch may still start: a synchronous front's step()
        # spends a budget; everything else runs unbounded
        self._launches_left = math.inf
        self._probing = False  # a heartbeat sweep is on the heap
        self._handlers = (  # indexed by event kind
            self._on_arrive, self._on_complete, self._on_timer, self._on_expire,
            self._on_crash, self._on_rejoin, self._on_probe, self._place, self._fail_outstanding,
        )

    # ------------------------------------------------------------------
    def listen(self, listener: Callable[[Event], None]) -> None:
        """Hand ``listener`` every event the plane emits from now on."""
        self._listeners.append(listener)

    def _emit(self, *fields) -> None:
        """Book one :class:`Event`: fold it, then hand it to each listener."""
        event = Event(*fields)
        self.metrics.fold(event)
        for listener in self._listeners:
            listener(event)

    def _arm_timer(self, worker: Worker, t: float, now: float) -> None:
        t = max(t, now + _MIN_TIMER_STEP)
        armed = self._timer_armed.get(worker.wid)
        if armed is not None and armed <= t:
            return  # an earlier (or equal) consultation is already scheduled
        self._timer_armed[worker.wid] = t
        self.executor.schedule(t, _TIMER, worker)

    def _arm_expiry(self, deadline: float) -> None:
        """Move the expiry timer up to ``deadline`` if that is earlier (``inf`` never is)."""
        if deadline < self._expiry_at:
            self._expiry_at = deadline
            self.executor.schedule(deadline, _EXPIRE, deadline)

    def _dispatch(self, worker: Worker, now: float) -> None:
        """Consult the policy while the worker has a free slot; launch
        the batches it closes or arm its re-check timer.  With
        ``drop_expired`` each consultation first sheds the queued
        requests past their deadline.

        A dead worker never dispatches: a crashed-but-undetected one
        silently sits on its queue (that is what detection latency
        means), a marked-down one has no queue left to consult.
        """
        if not worker.alive or not worker.healthy:
            return
        while len(worker.launched) < self.executor.slots and self._launches_left > 0:
            if self.config.drop_expired:
                for req in worker.queue.expire(now):
                    self._drop(SHED, req, now)
            decision = self.config.policy.next_batch(worker.queue, now)
            for req in decision.shed:
                self._drop(SHED, req, now)
            batch = decision.batch
            if batch is None:
                if decision.next_check_s is not None:
                    self._arm_timer(worker, decision.next_check_s, now)
                return
            cold = worker.is_cold_plan(batch)
            self._launches += 1
            service = self.executor.launch(worker, self._launches, batch, cold, now)
            if service is None:
                # Died between the last health check and the launch: the
                # batch goes back to its queue and shares the queue's fate.
                worker.queue.requeue(batch.requests)
                self._mark_down(worker, now)
                return
            worker.note_dispatch(self._launches, batch, now, service, cold)
            self._emit(LAUNCH, now, None, worker.wid, self._launches, batch)
            self._launches_left -= 1

    def _feedback(self, request: AttentionRequest, now: float) -> None:
        """Tell the source a request reached a terminal outcome.

        Closed-loop clients must learn of a rejection, shed or failure
        the same way they learn of a completion — otherwise their
        request budget would deadlock waiting on work that will never
        finish.
        """
        for req in self._source.on_complete(request, now):
            self.executor.schedule(max(req.arrival_s, now), _ARRIVE, req)

    def _admission_context(self, worker: Worker, request: AttentionRequest, now: float) -> AdmissionContext:
        """Admission view of the routed worker at ``now``.

        The wait estimate is the batch-amortisation-aware queue-drain
        model (:func:`repro.serving.admission.queue_drain_estimate`):
        the backlog drains in batches of ``max_batch_size``, each
        charging one batch overhead — deterministic, cheap (the worker's
        SALO stats cache absorbs repeats), and *lazy*: policies that
        never read it never pay for it.
        """

        def estimate() -> Tuple[float, float]:
            unit = worker.salo.estimate(
                request.pattern, heads=request.heads, head_dim=request.head_dim
            ).latency_s
            overhead = self.executor.batch_overhead_s
            wait = queue_drain_estimate(
                worker.depth(), unit, overhead, self.config.max_batch_size
            )
            return (wait, unit + overhead)

        return AdmissionContext(now=now, depth=worker.depth(), estimator=estimate)

    # ------------------------------------------------------------------
    def _admit(self, request: AttentionRequest, now: float) -> Optional[Worker]:
        """Route, pass the admission door, enqueue; ``None`` if rejected."""
        key = self.pool.workers[0].queue.group_key(request)
        worker = self.pool.route(request, now, key)
        self._emit(ARRIVE, now, request.request_id, worker.wid, None, request)
        ctx = self._admission_context(worker, request, now)
        if not self.config.admission.admit(request, ctx):
            self._emit(REJECT, now, request.request_id, worker.wid, None, request)
            self._feedback(request, now)
            return None
        self._routed[request.request_id] = worker.wid
        worker.queue.enqueue(request, key)
        if self.config.drop_expired:  # shed at the deadline, not at a consultation
            self._arm_expiry(request.absolute_deadline_s)
        return worker

    def _on_arrive(self, request: AttentionRequest, now: float) -> None:
        worker = self._admit(request, now)
        if worker is not None:
            self._consult[worker.wid] = worker

    def _on_timer(self, worker: Worker, now: float) -> None:
        if self._timer_armed.get(worker.wid, math.inf) <= now:
            del self._timer_armed[worker.wid]
        self._consult[worker.wid] = worker

    def _on_complete(self, payload: Tuple[Worker, int, bool, float, Optional[list]], now: float) -> None:
        worker, launch_id, failed, service_s, served = payload
        entry = worker.launched.get(launch_id)
        if entry is None or not worker.alive:
            # The worker crashed (and possibly rejoined) after launching
            # this batch: the completion never happened.  Its members
            # are recovered when the failure is detected — not here.
            return
        batch, dispatched, _ = entry
        worker.note_complete(launch_id, service_s)
        self._emit(LAUNCH_COMPLETE, now, None, worker.wid, launch_id, not failed)
        if worker.breaker is not None:
            worker.breaker.record(not failed, now)
        self._consult[worker.wid] = worker
        if failed:
            return self._retry_or_fail(batch, now)
        for req, out in zip(batch.requests, served or [None] * batch.size):
            self._complete(req, batch, worker, dispatched, now, out)

    def _complete(self, req, batch: Batch, worker: Worker, dispatched: float, now: float, served) -> None:
        """``req`` rode a served batch: record it (``served``: its ``(output, result)``)."""
        self._attempts.pop(req.request_id, None)
        self._emit(
            DONE, now, req.request_id, worker.wid, None,
            RequestRecord(
                request_id=req.request_id,
                slo_class=req.slo_class,
                arrival_s=req.arrival_s,
                dispatch_s=dispatched,
                complete_s=now,
                worker=worker.wid,
                batch_size=batch.size,
                deadline_s=req.deadline_s,
                stolen=self._routed.pop(req.request_id, worker.wid) != worker.wid,
            ),
        )
        self._feedback(req, now)

    def _balance(self, now: float) -> None:
        """Idle workers with dry queues steal from saturated peers.

        Runs once per instant, so an engine never sits idle while a
        *busy* peer has backlog (idle peers holding requests open under a
        max-wait policy are off limits — see ``EnginePool.steal_into``).
        Dead or down workers cannot steal; a crashed-but-undetected peer
        can still be stolen *from* (its queue is real work, and stealing
        it is recovery the thief does not even know it is performing).
        """
        if not self.config.steal:
            return
        for worker in self.pool.workers:
            # a breaker-open thief would drag work onto the very worker
            # the breaker is shielding traffic from
            idle = not (worker.busy or worker.queue.pending) and worker.alive and worker.healthy
            if not idle or worker.breaker_open(now):
                continue
            stolen = self.pool.steal_into(worker, now)
            if stolen is not None:
                self._emit(STEAL, now, None, worker.wid, None, stolen)
                self._dispatch(worker, now)

    # ------------------------------------------------------------------
    # Terminal outcomes other than completion, and fault handling.
    def _drop(self, kind: str, request: AttentionRequest, now: float) -> None:
        """Terminal ``SHED`` (past its deadline) or ``FAIL`` (retry budget
        exhausted, or nowhere left to requeue) of an admitted request."""
        self._routed.pop(request.request_id, None)
        self._attempts.pop(request.request_id, None)
        self._emit(kind, now, request.request_id, None, None, request)
        self._feedback(request, now)

    def _place(self, request: AttentionRequest, now: float, orphan: bool = False) -> None:
        """Give a retried or recovered (``orphan``) request its fate: shed if
        its deadline passed meanwhile, else route it onto a worker believed
        healthy, or fail it (an orphan with requeueing off, or every worker
        marked down)."""
        if self.config.drop_expired and request.absolute_deadline_s <= now:
            return self._drop(SHED, request, now)
        key = self.pool.workers[0].queue.group_key(request)
        target = self.pool.route(request, now, key)
        if (orphan and not self._recovery.requeue) or not target.healthy:
            return self._drop(FAIL, request, now)
        if orphan:
            self._emit(REQUEUE, now, request.request_id, target.wid)
        self._routed[request.request_id] = target.wid
        target.queue.enqueue(request, key)
        if self.config.drop_expired:
            self._arm_expiry(request.absolute_deadline_s)
        self._consult[target.wid] = target

    def _recover_requests(self, requests: List[AttentionRequest], now: float) -> None:
        """A down worker's orphans, oldest deadline first."""
        for req in recovery_order(requests):
            self._place(req, now, orphan=True)

    def _retry_or_fail(self, batch: Batch, now: float) -> None:
        """A dispatch came back with a transient error: back off and retry
        each member against its budget; the attempt past the budget is
        terminal."""
        rec = self._recovery
        for req in batch.requests:
            attempt = self._attempts.get(req.request_id, 0) + 1
            self._attempts[req.request_id] = attempt
            if attempt > rec.max_retries:
                self._drop(FAIL, req, now)
                continue
            self._emit(RETRY, now, req.request_id)
            delay = rec.backoff_s(attempt)
            delay += self.executor.jitter(delay, rec.backoff_jitter)
            self.executor.schedule(now + delay, _RETRY, req)  # -> _place

    def _on_expire(self, at: float, now: float) -> None:
        """The timer armed for ``at`` fired (unless since superseded): shed
        every queued request past its deadline, on every worker — stolen,
        requeued and retried ones included — and re-arm at the earliest
        deadline still queued.  The queues' index heads answer both."""
        if at != self._expiry_at:
            return  # superseded
        self._expiry_at = math.inf
        for worker in self.pool.workers:
            for req in worker.queue.expire(now):
                self._drop(SHED, req, now)
        self._arm_expiry(min(w.queue.earliest_deadline() for w in self.pool.workers))

    def _on_crash(self, wid: int, now: float) -> None:
        worker = self.pool.workers[wid]
        if not worker.alive:
            return  # overlapping crash specs: already dead
        for launch_id, (_, _, charged_until_s) in worker.launched.items():
            # The unfinished remainder of the batch never ran: the launch
            # ends unserved now, though the plane learns of it later.
            worker.busy_s -= max(0.0, charged_until_s - now)
            self._emit(LAUNCH_COMPLETE, now, None, wid, launch_id, False)
        worker.crash(now)

    def _on_rejoin(self, wid: int, now: float) -> None:
        worker = self.pool.workers[wid]
        if worker.alive:
            return  # spurious (e.g. the crash spec itself was a no-op)
        # A crash short enough to dodge detection still lost its
        # in-flight batch; the replacement process recovers it now.
        orphans = worker.forfeit()
        worker.rejoin(now)
        self._recover_requests(orphans, now)
        self._consult[worker.wid] = worker

    def _mark_down(self, worker: Worker, now: float) -> None:
        orphans = worker.forfeit()
        worker.mark_down(now)
        orphans.extend(worker.queue.prune(lambda r: True))
        self._recover_requests(orphans, now)

    def _on_probe(self, _, now: float) -> None:
        """Heartbeat sweep: refresh answering workers, time out silent ones.
        Re-armed while a sweep can still change an outcome — events are
        due, a worker awaits consultation, or work sits where only a sweep
        releases it — so a launch that never completes meets :meth:`_play`'s guard."""
        rec = self._recovery
        for worker in self.pool.workers:
            if worker.healthy:
                verdict = self.executor.probe(worker, now)
                if verdict == PROBE_ANSWERED:
                    worker.last_heartbeat_s = now
                    if worker.state == WORKER_SUSPECT:
                        worker.state = WORKER_UP
                    continue
                if worker.state == WORKER_UP:
                    worker.state = WORKER_SUSPECT
                if (
                    verdict == PROBE_DEAD
                    or now - worker.last_heartbeat_s >= rec.heartbeat_timeout_s
                ):
                    self._mark_down(worker, now)
            elif worker.queue.pending:
                # Arrivals routed while every worker was down: drain them
                # so the run cannot wedge on an unreachable queue.
                self._recover_requests(worker.queue.prune(lambda r: True), now)
        if self.executor.scheduled or self._consult or any(
            (w.busy or w.queue.pending) and not (w.alive and w.healthy) for w in self.pool.workers
        ):
            self.executor.schedule(now + rec.heartbeat_interval_s, _PROBE, None)
        else:
            self._probing = False

    def _fail_outstanding(self, _, now: float) -> None:
        """An executor's drain guard expired: fail whatever is still
        queued, launched or backing off."""
        stranded = [p for _, _, kind, p in self.executor.cancel_all() if kind == _RETRY]
        self._probing, self._expiry_at = False, math.inf
        self._timer_armed.clear()  # their timers went with the heap
        for worker in self.pool.workers:
            stranded.extend(worker.forfeit())
            stranded.extend(worker.queue.prune(lambda r: True))
        for req in stranded:
            self._drop(FAIL, req, now)

    # ------------------------------------------------------------------
    def _drive(self, now: float, tick: Optional[Callable] = None) -> None:
        """Handle events, from ``now`` until the executor has none left.

        ``tick(plane, now)`` fires before each event is handled (chaos
        tests use it to kill a worker at a chosen moment).
        """
        executor = self.executor
        if executor.heartbeats and not self._probing:
            self._probing = True
            executor.schedule(now + self._recovery.heartbeat_interval_s, _PROBE, None)
        while True:
            event = executor.next_event()
            if event is None:
                return
            t, kind, payload = event
            if tick is not None:
                tick(self, t)
            self._handlers[kind](payload, t)
            while not executor.arrival_due(t):  # consult once every arrival due by t is in
                while self._consult:
                    self._dispatch(self._consult.pop(next(iter(self._consult))), t)
                self._balance(t)  # a thief found dead marks the workers of its orphans
                if not self._consult:
                    break

    def _play(self, source: RequestSource, now: float = 0.0, tick=None) -> None:
        """Feed ``source`` to the plane, each arrival at its ``arrival_s`` stamp, and handle
        events from ``now`` until none are left; every submitted request must have an outcome."""
        self._source = source
        for req in source.initial():
            self.executor.schedule(req.arrival_s, _ARRIVE, req)
        self.executor.schedule_faults()
        self._drive(now, tick)
        if self.metrics.outstanding:  # pragma: no cover - policy bug guard
            raise RuntimeError(
                f"the plane drained its event heap with {self.metrics.outstanding} "
                "requests queued, in flight or holding a lane (policy never "
                "closed a batch, or recovery never ran)"
            )

    def report(self) -> ClusterReport:
        """Everything served so far, reduced to a :class:`ClusterReport`."""
        return self.metrics.report(self.pool.workers, cache_info=self.executor.cache_info)


class ClusterSimulator(ControlPlane):
    """Runs one :class:`~repro.cluster.arrivals.RequestSource` to empty."""

    def __init__(self, config: Optional[SimConfig] = None) -> None:
        cfg = config if config is not None else SimConfig()
        super().__init__(cfg, cfg.salo_factory)
        self.executor = SimulatedExecutor(cfg.service, cfg.faults, cfg.workers)

    def run(self, source: RequestSource) -> ClusterReport:
        """Drive the event loop until every queued request completed."""
        self._play(source)
        return self.report()


def simulate(source: RequestSource, config: Optional[SimConfig] = None) -> ClusterReport:
    """One-shot convenience wrapper: build a simulator, run the source."""
    return ClusterSimulator(config).run(source)
