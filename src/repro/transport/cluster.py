"""The control plane's wall-clock executor, over real worker transports.

:class:`~repro.cluster.simulator.ControlPlane` makes every serving
decision — routing, admission, batch policy, shedding, retry, heartbeat
detection and orphan requeueing, breaker, stealing, metrics — against an
executor seam.  The simulator plugs in virtual time; this module plugs
in real workers: :class:`TransportExecutor` launches a batch by shipping
it over a :class:`~repro.transport.base.WorkerTransport`, lets timers
fire when due, and reports each completion with every member's row of
the output the worker sent back.  Nothing here routes, retries or
recovers, so what ``salo-repro advise`` ranks on the simulator is what
these workers run, and ``submitted == completed + rejected + shed +
failed`` is the same code whether the dead worker was an event on a
heap or a process that was *actually* ``kill -9``'d.

Two things hold for real workers by construction, not by option:

* a worker holds up to ``max_inflight_per_worker`` batches, so the
  parent packs batch k+1 while the worker runs batch k;
* a busy single-threaded worker cannot answer pings mid-batch, so only
  ground-truth death or ``STALL_TIMEOUT_S`` without a launch takes it
  down; the heartbeat timeout applies to idle workers.

The parent side is one single-threaded loop; parallelism lives in the
worker processes.
"""

from __future__ import annotations

import copy
import heapq
import math
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..api import CapabilityError, backend_spec
from ..cluster.arrivals import OpenLoopSource
from ..cluster.faults import RecoveryConfig
from ..cluster.metrics import ClusterReport, MetricsCollector
from ..cluster.pool import Worker
from ..cluster.simulator import (
    PROBE_ANSWERED,
    PROBE_DEAD,
    PROBE_SILENT,
    _ARRIVE,
    _GIVE_UP,
    ControlConfig,
    ControlPlane,
    Executor,
)
from ..serving.request import AttentionRequest
from .base import TransportClosed, WorkerTransport
from .inprocess import InProcessTransport
from .multiprocess import MultiprocessTransport

__all__ = [
    "TransportClusterConfig",
    "TransportExecutor",
    "TransportCluster",
    "make_transport",
    "TRANSPORTS",
]

TRANSPORTS = {
    "inprocess": InProcessTransport,
    "multiprocess": MultiprocessTransport,
}

#: Longest a completion poll or an idle worker's ping blocks the loop.
POLL_TIMEOUT_S = 0.005
#: Silence a *busy* worker may keep since its newest launch before it is down.
STALL_TIMEOUT_S = 30.0


def _driver_class(driver: str):
    try:
        return TRANSPORTS[driver]
    except KeyError:
        raise ValueError(
            f"unknown transport driver {driver!r}; choose from {sorted(TRANSPORTS)}"
        ) from None


def make_transport(driver: str, **kwargs) -> WorkerTransport:
    """Build one worker transport by registered driver name."""
    return _driver_class(driver)(**kwargs)


@dataclass
class TransportClusterConfig(ControlConfig):
    """The control-plane knobs plus what only real workers need.

    Durations are wall-clock seconds, so ``recovery`` defaults to 50 ms
    sweeps and 1 s of silence from an *idle* worker; ``STALL_TIMEOUT_S``
    is the much larger budget for a busy one.  When ``drain_timeout_s``
    expires, whatever is still unaccounted is failed terminally, so the
    conservation law survives a wedged run.  ``warm`` lists ``(pattern,
    heads[, head_dim])`` specs workers pre-compile at start-up.

    Transports always ship a batch stacked — even a singleton reaches the
    worker's ``Runtime.attend`` as ``(1, n, hidden)`` — so a backend
    without ``supports_batch`` is refused here, as is ``pad_to_bucket``
    on one without ``supports_valid_lens``: their workers could not run
    the batches the plane forms.
    """

    # heartbeat interval / timeout, the rest as simulated
    recovery: RecoveryConfig = field(default_factory=lambda: RecoveryConfig(0.05, 1.0))
    driver: str = "multiprocess"
    max_inflight_per_worker: int = 2
    drain_timeout_s: float = 120.0
    warm: Tuple = ()

    def __post_init__(self) -> None:
        for name in ("workers", "max_batch_size", "max_inflight_per_worker"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        _driver_class(self.driver)
        caps = backend_spec(self.backend).capabilities
        if not caps.supports_batch:
            raise CapabilityError(
                f"backend {self.backend!r} lacks supports_batch; transport workers "
                "receive every batch stacked, singletons included"
            )
        if self.pad_to_bucket and not caps.supports_valid_lens:
            raise CapabilityError(
                f"backend {self.backend!r} lacks supports_valid_lens, which "
                "pad_to_bucket batches need on a transport worker"
            )


class TransportExecutor(Executor):
    """Wall clock: launches go over transports, timers fire when due."""

    heartbeats = True

    def __init__(self, config, workers, metrics: MetricsCollector, transports) -> None:
        super().__init__()
        self.slots = config.max_inflight_per_worker
        self._workers = workers
        self._metrics = metrics
        self._t0 = time.perf_counter()
        self.give_up_at = math.inf  # set per run by the front
        for worker, transport in zip(workers, transports):
            worker.transport = transport

    def now(self) -> float:
        return time.perf_counter() - self._t0

    @property
    def scheduled(self) -> int:
        # a launched batch's completion is still to come, off the wire
        return super().scheduled + sum(len(w.launched) for w in self._workers)

    def next_event(self):
        """The next due event or harvested completion; ``None`` once nothing is outstanding
        and no arrival is scheduled (stale timers are not worth real time).  Past
        ``give_up_at``, what fell due before it comes first, then one give-up event."""
        while self._metrics.outstanding or any(e[2] == _ARRIVE for e in self._heap):
            now = self.now()
            wait = POLL_TIMEOUT_S
            if self._heap:
                if self._heap[0][0] <= min(now, self.give_up_at):
                    _, _, kind, payload = heapq.heappop(self._heap)
                    return now, kind, payload
                wait = min(wait, self._heap[0][0] - now)
            if now > self.give_up_at:
                return now, _GIVE_UP, None
            busy = [w for w in self._workers if w.launched]
            for worker in busy:
                for done in worker.transport.poll(wait):
                    # each member's row; the worker's result object stays in the worker
                    booked = worker.launched.get(done.batch_id) if done.ok else None
                    served = booked and [(row, None) for row in booked[0].rows(done.output)]
                    t = self.now()
                    self.completed(t, worker, done.batch_id, not done.ok, done.service_s, served)
            if not busy:
                time.sleep(wait)
        return None

    def launch(self, worker, launch_id, batch, cold, now):
        try:
            worker.transport.submit_members(
                launch_id, batch.execution_pattern(), batch.requests, batch.heads
            )
        except TransportClosed:
            worker.crash(worker.last_heartbeat_s)
            return None
        return 0.0  # the worker measures its own service time

    def probe(self, worker: Worker, now: float) -> str:
        transport = worker.transport
        if worker.launched:
            # Busy single-threaded worker: can't pong mid-batch.  Only a
            # dead process, or no completion for far longer than any
            # batch takes, counts against it.
            newest = max(t0 for _, t0, _ in worker.launched.values())
            if transport.alive and now - newest <= STALL_TIMEOUT_S:
                return PROBE_ANSWERED
        elif transport.alive:
            if transport.probe(timeout_s=POLL_TIMEOUT_S):
                return PROBE_ANSWERED
            return PROBE_SILENT
        worker.crash(worker.last_heartbeat_s)  # some time after the last proof of life
        return PROBE_DEAD

    def cache_info(self, worker: Worker) -> dict:
        return worker.transport.cache_info()


class TransportCluster(ControlPlane):
    """Serve bursts of requests on real worker transports.

    A context manager; ``run`` may be called repeatedly and
    :meth:`report` is cumulative.
    ``states[i].transport`` is worker ``i``'s transport (injected
    ``transports`` must have honoured ``config.warm`` themselves).  The
    optional ``tick(cluster, now_s)`` fires before every handled event —
    at least once per heartbeat interval; chaos tests use it to
    ``kill_worker`` at a chosen moment in the run.
    """

    def __init__(
        self, config: TransportClusterConfig, transports: Optional[Sequence[WorkerTransport]] = None
    ) -> None:
        super().__init__(config)
        if transports is None:
            transports = [
                make_transport(config.driver, backend=config.backend, wid=wid, warm=config.warm)
                for wid in range(config.workers)
            ]
        self.states: List[Worker] = self.pool.workers
        self.executor = TransportExecutor(config, self.states, self.metrics, transports)
        for worker in self.states:
            for spec in config.warm:  # pre-compiled plans are warm plans
                worker.note_warm(*spec)
        self._closed = False

    def run(
        self,
        requests: Sequence[AttentionRequest],
        tick: Optional[Callable[["TransportCluster", float], None]] = None,
    ) -> ClusterReport:
        """Serve ``requests``, each ``arrival_s`` into the call; reduce to a ClusterReport.
        Refuses up front a repeated or live id, or an offset outside [0, drain_timeout_s)."""
        if self._closed:
            raise TransportClosed("cluster already closed")
        seen, drain = set(), self.config.drain_timeout_s
        for rid, offset in ((r.request_id, r.arrival_s) for r in requests):
            if rid in seen or rid in self._routed:
                why = "repeats within the burst" if rid in seen else "is still live on the plane"
                raise ValueError(f"request id {rid!r} {why}")
            if not 0.0 <= offset < drain:
                raise ValueError(f"request id {rid!r} arrives at offset {offset!r} s, "
                                 f"outside [0, drain_timeout_s={drain!r})")
            seen.add(rid)
        now = self.executor.now()
        self.executor.give_up_at = now + drain
        stamped = [copy.copy(r) for r in requests]  # the caller's requests keep their offsets
        for r in stamped:
            r.arrival_s += now
        self._play(OpenLoopSource(stamped), now, tick)
        return self.report()

    def kill_worker(self, wid: int) -> None:
        """SIGKILL (or simulate killing) worker ``wid`` — chaos hook."""
        self.states[wid].transport.kill()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for worker in self.states:
            worker.transport.close()

    def __enter__(self) -> "TransportCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
