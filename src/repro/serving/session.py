"""Serving session: an in-process front on the cluster control plane.

:class:`ServingSession` is a :class:`~repro.cluster.simulator.ControlPlane`
with one worker, no stealing and greedy FIFO batching: admission, batch
formation and accounting are the plane's.  Each batch is charged on
:class:`~repro.cluster.pool.MeasuredClock` over the session clock — one
:func:`~repro.serving.batching.execute_batch` on the session's engine,
outputs bit-identical to per-request calls (up to partial-softmax
regrouping in ``pad_to_bucket`` mode).  A batch is dispatched at a clock
reading (inside :meth:`~ServingSession.drain`, at the instant the batch
before it completed) and completes its measured engine time later.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from typing import Callable, Dict, Hashable, Optional

from ..cluster.events import REJECT
from ..cluster.metrics import _percentile
from ..cluster.pool import MeasuredClock
from ..cluster.simulator import ControlConfig, ControlPlane, SimulatedExecutor
from ..core.salo import pattern_structure_key
from .admission import AdmissionPolicy, AdmitAll
from .batching import Batch, execute_batch, stack_batch_operands  # noqa: F401 (re-exported)
from .request import AttentionRequest, RequestResult, ServingStats

__all__ = ["ServingSession", "ServingStats", "execute_batch", "stack_batch_operands"]


class ServingSession(ControlPlane):
    """Submit requests, then :meth:`step` or :meth:`drain` them.

    ``salo`` is the engine: a SALO or any AttentionBackend (a registered
    backend's is ``repro.api.engine_factory(name)()``); a Table 1 SALO
    by default.  The batch knobs are
    :class:`~repro.serving.batching.BatchScheduler`'s.
    """

    def __init__(self, salo=None, max_batch_size: int = 8, bucket_floor: int = 16,
                 pad_to_bucket: bool = False, admission: Optional[AdmissionPolicy] = None,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        super().__init__(
            ControlConfig(workers=1, max_batch_size=max_batch_size, bucket_floor=bucket_floor,
                          pad_to_bucket=pad_to_bucket, steal=False,
                          admission=admission if admission is not None else AdmitAll()),
            None if salo is None else lambda: salo,
        )
        self.executor = SimulatedExecutor(MeasuredClock(clock), None, 1)
        self.worker = self.pool.workers[0]
        self.salo, self.scheduler = self.worker.salo, self.worker.queue
        self.admission, self.clock = admission, clock
        self.results: Dict[Hashable, RequestResult] = {}
        self._serial = 0

    def submit(self, pattern, q, k, v, heads: int = 1, request_id: Optional[Hashable] = None,
               arrival_s: Optional[float] = None, deadline_s: Optional[float] = None,
               slo_class: str = "default",
               client_id: Optional[Hashable] = None) -> Optional[Hashable]:
        """Queue one request; returns its id, or ``None`` when admission
        refuses it.  ``arrival_s`` overrides the arrival stamp (a trace
        replay measures queueing from trace time)."""
        if pattern_structure_key(pattern) is None and getattr(self.salo, "needs_structure", True):
            raise ValueError(  # here, not inside a batch with other requests in it
                "pattern does not expose band structure; only oracle backends "
                "(needs_structure=False) serve mask-only patterns")
        if request_id is None:
            self._serial += 1
            while self._taken(self._serial):  # skip user-taken ints
                self._serial += 1
            request_id = self._serial
        elif self._taken(request_id):
            raise ValueError(f"request id {request_id!r} already in use")
        now = self.clock()
        request = AttentionRequest(request_id, pattern, q, k, v, heads=heads,
                                   arrival_s=now if arrival_s is None else arrival_s,
                                   deadline_s=deadline_s, slo_class=slo_class, client_id=client_id)
        return None if self._admit(request, now) is None else request_id

    def _taken(self, request_id: Hashable) -> bool:
        return request_id in self._routed or request_id in self.results  # queued or served

    def step(self) -> Optional[Batch]:
        """Run the next batch to completion; returns it (``None`` if idle)."""
        return self._serve(1)

    def drain(self) -> Dict[Hashable, RequestResult]:
        """Run batches until the queue is empty; returns every result."""
        self._serve(math.inf)
        return self.results

    def _serve(self, launches: float) -> Optional[Batch]:
        if not self.pending:
            return None
        self._launches_left = launches  # step() allows one launch, drain() any
        now = self.clock()
        self._dispatch(self.worker, now)
        ((batch, _, _),) = self.worker.launched.values()
        self._drive(now)
        return batch

    def _complete(self, req, batch: Batch, worker, dispatched: float, now: float, served) -> None:
        """The plane records ``req``'s completion; the session keeps its output."""
        super()._complete(req, batch, worker, dispatched, now, served)
        self.results[req.request_id] = RequestResult(
            req.request_id, served[0], batch.size, queue_s=max(0.0, dispatched - req.arrival_s),
            service_s=now - dispatched, stats=served[1].stats,
        )

    @property
    def pending(self) -> int:
        return self.pool.pending

    @property
    def batches_executed(self) -> int:
        return self.worker.batches

    @property
    def rejected(self) -> Dict[str, int]:
        """Requests the admission policy refused, per SLO class."""
        return dict(Counter(d.slo_class for d in self.metrics.drops if d.kind == "rejected"))

    def stats(self) -> ServingStats:
        """Throughput and percentiles folded over the plane's records; finite
        when empty and on a frozen clock (throughput then falls back to the
        summed engine time, or to 0)."""
        m, w = self.metrics, self.worker
        queues = [max(r.queue_s, 0.0) for r in m.records]
        latencies = [q + (r.complete_s - r.dispatch_s) for q, r in zip(queues, m.records)]
        wall_s = max(m.last_complete_s - m.first_arrival_s, 0.0) if m.records else 0.0
        span = wall_s if wall_s > 0 else w.busy_s
        return ServingStats(
            len(m.records), w.batches, wall_s, len(m.records) / span if span > 0 else 0.0,
            w.served / w.batches if w.batches else 0.0, _percentile(queues, 50) * 1e3,
            *(_percentile(latencies, p) * 1e3 for p in (50, 90, 99)),
            self.salo.cache_info(), m.counts[REJECT],
        )
