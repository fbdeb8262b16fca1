"""Real-time cluster driver over :class:`WorkerTransport` s.

:class:`TransportCluster` is the wall-clock sibling of
:class:`repro.cluster.simulator.ClusterSimulator`: the same routing,
batching, retry, requeue and accounting semantics, but driven by real
transports instead of a simulated event heap.  It reuses the simulator's
own bookkeeping wholesale — :class:`~repro.cluster.metrics.MetricsCollector`
for per-request records, :func:`~repro.cluster.policy.recovery_order` for
orphan requeueing, :class:`~repro.serving.batching.BatchScheduler` for
per-worker queues — so the four-way conservation law

    ``submitted == completed + rejected + shed + failed``

holds here for the same structural reasons it holds in simulation, and
the property suite can pin it against a worker that was *actually*
``kill -9``'d rather than one whose death was an event on a heap.

Failure handling mirrors the simulator's seam exactly:

* a :data:`~repro.transport.base.DISPATCH_ERROR` completion retries the
  batch's members against a per-request ``max_retries`` budget (terminal
  exhaustion -> ``failed``);
* a worker that stops answering — dead process, or silence beyond the
  heartbeat timeout — is marked down and its orphans (the lost in-flight
  members plus everything queued on it) are requeued
  oldest-deadline-first onto healthy workers, or failed when requeueing
  is off or nobody healthy remains.

The driver is single-threaded on the parent side: one loop dispatches,
polls, probes and recovers.  With multiprocess transports the *workers*
still execute concurrently — parallelism lives in the worker processes,
coordination stays sequential and deterministic-ish (wall-clock
timestamps are real; ordering logic is not racy).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..cluster.metrics import ClusterReport, MetricsCollector, RequestRecord
from ..cluster.policy import recovery_order
from ..serving.batching import Batch, BatchScheduler
from ..serving.request import AttentionRequest
from .base import TransportClosed, TransportRequest, WorkerTransport, stacked_operands
from .inprocess import InProcessTransport
from .multiprocess import MultiprocessTransport

__all__ = ["TransportClusterConfig", "TransportCluster", "make_transport", "TRANSPORTS"]

TRANSPORTS = {
    "inprocess": InProcessTransport,
    "multiprocess": MultiprocessTransport,
}


def make_transport(driver: str, **kwargs) -> WorkerTransport:
    """Build one worker transport by registered driver name."""
    try:
        cls = TRANSPORTS[driver]
    except KeyError:
        raise ValueError(
            f"unknown transport driver {driver!r}; choose from {sorted(TRANSPORTS)}"
        ) from None
    return cls(**kwargs)


@dataclass(frozen=True)
class TransportClusterConfig:
    """Knobs of one real-time cluster run (wall-clock seconds throughout).

    The heartbeat knobs are the real-time analogue of
    :class:`~repro.cluster.faults.RecoveryConfig`: ``heartbeat_interval_s``
    paces probe sweeps, ``heartbeat_timeout_s`` is the silence budget
    before an unresponsive *idle* worker is marked down, and
    ``stall_timeout_s`` is the (much larger) budget for a worker that
    holds in-flight work — a busy single-threaded worker legitimately
    cannot answer pings mid-batch, so only ground-truth death
    (``alive`` false) or a genuine stall takes it down.
    ``drain_timeout_s`` is the whole-run wall-clock guard: when it
    expires, everything still unaccounted is failed terminally so the
    conservation law survives even a wedged run.
    """

    workers: int = 2
    driver: str = "multiprocess"
    backend: str = "functional"
    max_batch_size: int = 8
    max_inflight_per_worker: int = 2
    max_retries: int = 3
    requeue: bool = True
    heartbeat_interval_s: float = 0.05
    heartbeat_timeout_s: float = 1.0
    stall_timeout_s: float = 30.0
    drain_timeout_s: float = 120.0
    poll_timeout_s: float = 0.005
    warm: Tuple = ()  # (pattern, heads[, head_dim]) specs pre-compiled by workers

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.max_inflight_per_worker < 1:
            raise ValueError(
                f"max_inflight_per_worker must be >= 1, got {self.max_inflight_per_worker}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.driver not in TRANSPORTS:
            raise ValueError(
                f"unknown transport driver {self.driver!r}; choose from {sorted(TRANSPORTS)}"
            )


class _EngineShim:
    """Duck-types the ``worker.salo.cache_info()`` hook reports expect."""

    def __init__(self, transport: WorkerTransport) -> None:
        self._transport = transport

    def cache_info(self) -> dict:
        return self._transport.cache_info()


class _WorkerState:
    """Parent-side view of one transport worker.

    Carries exactly the attributes
    :meth:`~repro.cluster.metrics.MetricsCollector.report` reads off a
    simulator :class:`~repro.cluster.pool.Worker`, so transport runs
    reduce to the same :class:`~repro.cluster.metrics.ClusterReport`.
    """

    def __init__(self, transport: WorkerTransport, max_batch_size: int = 8) -> None:
        self.transport = transport
        self.wid = transport.wid
        self.salo = _EngineShim(transport)
        self.queue = BatchScheduler(max_batch_size=max_batch_size)
        self.up = True
        self.last_seen_s = 0.0
        self.last_dispatch_s = 0.0
        # batch_id -> (Batch, dispatch_s): in-flight work, lost if the
        # worker dies before a completion comes back.
        self.inflight: Dict[int, Tuple[Batch, float]] = {}
        # Report accounting (names match simulator Worker).
        self.busy_s = 0.0
        self.batches = 0
        self.served = 0
        self.stolen_in = 0
        self.cold_compiles = 0
        self.crashes = 0
        self.rejoins = 0
        self.detect_delays: List[float] = []
        self.downtime_s = 0.0
        self.down_since_s: Optional[float] = None

    def depth(self) -> int:
        return self.queue.pending + sum(b.size for b, _ in self.inflight.values())


class TransportCluster:
    """Drive a batch of requests through real worker transports.

    Usage::

        with TransportCluster(config) as cluster:
            report = cluster.run(requests)

    ``run`` routes every request up-front (join-shortest-queue over
    healthy workers), then loops — dispatch, poll, probe, recover —
    until each submitted request is terminally accounted for.  The
    optional ``tick`` callback fires once per loop iteration with
    ``(cluster, now_s)``; chaos tests use it to ``kill_worker`` at a
    chosen moment in the run.
    """

    def __init__(
        self,
        config: TransportClusterConfig,
        transports: Optional[Sequence[WorkerTransport]] = None,
    ) -> None:
        self.config = config
        if transports is None:
            transports = [
                make_transport(
                    config.driver,
                    backend=config.backend,
                    wid=wid,
                    **({"warm": config.warm} if config.driver == "multiprocess" else {}),
                )
                for wid in range(config.workers)
            ]
        self.states = [_WorkerState(t, config.max_batch_size) for t in transports]
        self.metrics = MetricsCollector()
        self._arrival: Dict = {}  # request_id -> arrival_s
        self._attempts: Dict = {}  # request_id -> transient-error retries used
        self.retries = 0
        self.requeues = 0
        self._batch_serial = 0
        self._t0: Optional[float] = None
        self._closed = False

    # ------------------------------------------------------------------
    def _now(self) -> float:
        assert self._t0 is not None
        return time.perf_counter() - self._t0

    def _healthy(self) -> List[_WorkerState]:
        return [s for s in self.states if s.up and s.transport.alive]

    def _route(self, request: AttentionRequest) -> bool:
        """Join-shortest-queue over healthy workers; False when none left."""
        healthy = self._healthy()
        if not healthy:
            return False
        target = min(healthy, key=lambda s: (s.depth(), s.wid))
        target.queue.enqueue(request)
        return True

    # ------------------------------------------------------------------
    def run(
        self,
        requests: Sequence[AttentionRequest],
        tick: Optional[Callable[["TransportCluster", float], None]] = None,
    ) -> ClusterReport:
        """Serve ``requests`` to completion; reduce to a ClusterReport."""
        if self._closed:
            raise TransportClosed("cluster already closed")
        self._t0 = time.perf_counter()
        for request in requests:
            now = self._now()
            request.arrival_s = now
            self.metrics.note_arrival(now)
            self._arrival[request.request_id] = now
            self._attempts.setdefault(request.request_id, 0)
            if not self._route(request):
                self.metrics.note_failed(request, now)

        deadline = self.config.drain_timeout_s
        next_probe = 0.0
        while self._unaccounted() > 0:
            now = self._now()
            if now > deadline:
                self._fail_remaining(now)
                break
            if tick is not None:
                tick(self, now)
            self._dispatch_ready(now)
            self._poll_completions()
            if now >= next_probe:
                self._probe_sweep(self._now())
                next_probe = now + self.config.heartbeat_interval_s
        return self.report()

    def _unaccounted(self) -> int:
        done = len(self.metrics.records) + len(self.metrics.drops)
        return self.metrics.submitted - done

    # ------------------------------------------------------------------
    def _dispatch_ready(self, now: float) -> None:
        for state in self._healthy():
            while (
                len(state.inflight) < self.config.max_inflight_per_worker
                and state.queue.pending > 0
            ):
                batch = state.queue.next_batch()
                if batch is None:
                    break
                self._submit(state, batch, now)

    def _submit(self, state: _WorkerState, batch: Batch, now: float) -> None:
        pattern = batch.execution_pattern()
        q, k, v, valid_lens = stacked_operands(batch.requests, pattern)
        self._batch_serial += 1
        batch_id = self._batch_serial
        try:
            state.transport.submit(
                TransportRequest(
                    batch_id=batch_id,
                    pattern=pattern,
                    q=q,
                    k=k,
                    v=v,
                    heads=batch.heads,
                    valid_lens=valid_lens,
                )
            )
        except TransportClosed:
            # Worker died between the health check and the submit: its
            # members are orphans of an undetected-down worker.
            state.queue.requeue(batch.requests)
            self._mark_down(state, now)
            return
        state.inflight[batch_id] = (batch, now)
        state.last_dispatch_s = now

    # ------------------------------------------------------------------
    def _poll_completions(self) -> None:
        for state in self.states:
            if not state.inflight:
                continue
            for completion in state.transport.poll(self.config.poll_timeout_s):
                entry = state.inflight.pop(completion.batch_id, None)
                if entry is None:  # stale completion of a recovered batch
                    continue
                batch, dispatch_s = entry
                now = self._now()
                state.last_seen_s = now
                state.busy_s += completion.service_s
                state.batches += 1
                if completion.ok:
                    state.served += batch.size
                    for request in batch.requests:
                        self.metrics.note_completion(
                            RequestRecord(
                                request_id=request.request_id,
                                slo_class=request.slo_class,
                                arrival_s=self._arrival[request.request_id],
                                dispatch_s=dispatch_s,
                                complete_s=now,
                                worker=state.wid,
                                batch_size=batch.size,
                                deadline_s=request.deadline_s,
                            )
                        )
                else:
                    self._retry_members(batch, now)
            self.metrics.sample(
                self._now(),
                queued=sum(s.queue.pending for s in self.states),
                busy_workers=sum(1 for s in self.states if s.inflight),
            )

    def _retry_members(self, batch: Batch, now: float) -> None:
        """A DISPATCH_ERROR burns an attempt for every batch member."""
        for request in batch.requests:
            self._attempts[request.request_id] += 1
            if self._attempts[request.request_id] <= self.config.max_retries:
                self.retries += 1
                if not self._route(request):
                    self.metrics.note_failed(request, now)
            else:
                self.metrics.note_failed(request, now)

    # ------------------------------------------------------------------
    def _probe_sweep(self, now: float) -> None:
        for state in self.states:
            if not state.up:
                continue
            if not state.transport.alive:
                self._mark_down(state, now)
                continue
            if state.inflight:
                # Busy single-threaded worker: can't pong mid-batch.
                # Only a genuine stall (no completion for far longer
                # than any batch takes) counts as silence.
                if now - state.last_dispatch_s > self.config.stall_timeout_s:
                    self._mark_down(state, now)
                continue
            if state.transport.probe(timeout_s=self.config.poll_timeout_s):
                state.last_seen_s = now
            elif now - state.last_seen_s > self.config.heartbeat_timeout_s:
                self._mark_down(state, now)

    def _mark_down(self, state: _WorkerState, now: float) -> None:
        """Down transition + recovery of the worker's orphaned requests."""
        state.up = False
        state.crashes += 1
        state.down_since_s = now
        state.detect_delays.append(max(now - state.last_seen_s, 0.0))
        orphans: List[AttentionRequest] = []
        for batch, _ in state.inflight.values():
            orphans.extend(batch.requests)
        state.inflight.clear()
        orphans.extend(state.queue.prune(lambda _r: True))
        for request in recovery_order(orphans):
            if self.config.requeue and self._route(request):
                self.requeues += 1
            else:
                self.metrics.note_failed(request, now)

    def _fail_remaining(self, now: float) -> None:
        """Drain-timeout escape hatch: terminally fail whatever is left."""
        leftovers: List[AttentionRequest] = []
        for state in self.states:
            for batch, _ in state.inflight.values():
                leftovers.extend(batch.requests)
            state.inflight.clear()
            leftovers.extend(state.queue.prune(lambda _r: True))
        for request in leftovers:
            self.metrics.note_failed(request, now)

    # ------------------------------------------------------------------
    def kill_worker(self, wid: int) -> None:
        """SIGKILL (or simulate killing) worker ``wid`` — chaos hook."""
        self.states[wid].transport.kill()

    def report(self) -> ClusterReport:
        return self.metrics.report(
            self.states, steals=0, retries=self.retries, requeues=self.requeues
        )

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for state in self.states:
            state.transport.close()

    def __enter__(self) -> "TransportCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
