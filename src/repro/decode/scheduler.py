"""Continuous batching of real decode sequences: a control-plane front.

:class:`DecodeScheduler` is a one-worker
:class:`~repro.cluster.simulator.ControlPlane` on
:class:`~repro.cluster.pool.MeasuredClock`.  The lane queue and
:class:`~repro.cluster.decode.ContinuousBatching` make every step
decision, as they do for the simulated decoder: which waiters join free
lanes, which lanes step together and at which step-window bucket.  A
step is one round: each group present at its start launches once, on
the engine.  What stays here is what only real decode has: KV state,
token feedback, output rows and the doors.  For banded patterns every
output is bit-identical to the sequence decoded alone in a
:class:`DecodeSession`; global rows depend on the group bucket, so with
global tokens that holds only when the bucket trajectories coincide.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..cluster.events import FAIL
from ..cluster.pool import MeasuredClock
from ..cluster.simulator import ControlConfig, ControlPlane, SimulatedExecutor
from ..core.config import HardwareConfig
from ..core.salo import SALO, pattern_structure_key
from .request import DecodeRequest, DecodeRunResult, DecodeStepReport, default_next_token
from .session import KVState

__all__ = ["DecodeRequest", "DecodeScheduler", "DecodeStepReport", "DecodeRunResult",
           "default_next_token"]


class _Lane(KVState):
    """A sequence on the plane with its KV history: waiting, then in a lane."""

    slo_class, deadline_s, client_id = "default", None, None

    def __init__(self, request: DecodeRequest, bucket_floor: int, numerics, now: float) -> None:
        super().__init__(request.prompt_q.shape[1], bucket_floor, request.heads, numerics)
        self.extend(request.prompt_q, request.prompt_k, request.prompt_v)
        self.request, self.request_id, self.arrival_s = request, request.request_id, now
        self.rng, self.outputs, self.target_tokens = request.rng(), [], request.max_new_tokens
        self.bands = pattern_structure_key(request.pattern)[1]  # (lo, hi, dilation) triples
        self.global_tokens = tuple(request.pattern.global_tokens())

    def feed(self, out_row: np.ndarray) -> bool:
        """Record one token, growing KV unless the budget is met; True when
        the lane is done.  Rows the KV state refuses raise ``ValueError``."""
        budget = self.target_tokens
        if len(self.outputs) + 1 < budget:
            self.append(*(self.request.next_token or default_next_token)(out_row, self.rng))
        self.outputs.append(out_row.copy())
        return len(self.outputs) >= budget


class DecodeScheduler(ControlPlane):
    """Each ``step`` joins waiters into free lanes, advances every lane one
    token and retires lanes that met their budget, freeing them for the
    next step: the batch never drains just to refill."""

    def __init__(self, salo: Optional[SALO] = None, max_lanes: int = 8,
                 bucket_floor: int = 16) -> None:
        from ..cluster.decode import ContinuousBatching  # imports decode.session

        self.salo = salo if salo is not None else SALO(HardwareConfig())
        # real lanes carry no ITL budget, so none is shed for lagging
        super().__init__(
            ControlConfig(workers=1, max_batch_size=max_lanes, bucket_floor=bucket_floor,
                          steal=False, policy=ContinuousBatching(itl_shed_factor=None)),
            salo_factory=lambda: self.salo,
        )
        self.executor = SimulatedExecutor(MeasuredClock(), None, 1)
        self.worker = self.pool.workers[0]
        self.completed: Dict[str, np.ndarray] = {}
        self.failed: Dict[str, str] = {}  # request_id -> why its lane was dropped
        self.steps = self.peak_lanes = 0

    @property
    def queued(self) -> int:
        return self.worker.queue.pending

    @property
    def active(self) -> int:
        return len(self.worker.queue.lanes)

    @property
    def dispatches(self) -> int:
        return self.worker.batches

    @property
    def lane_steps(self) -> int:
        return self.worker.served

    @property
    def tokens(self) -> int:
        """Every lane-step yields a token or fails its lane."""
        return self.worker.served - len(self.failed)

    def submit(self, request: DecodeRequest) -> None:
        rid = request.request_id
        if rid in self._routed or rid in self.completed or rid in self.failed:
            raise ValueError(f"request id {rid!r} already in use")
        now = self.executor.service.clock()
        self._admit(_Lane(request, self.config.bucket_floor, self.salo.config.numerics, now), now)

    def step(self) -> DecodeStepReport:
        """Join, advance every lane one token, retire: one round of launches."""
        queue, report = self.worker.queue, DecodeStepReport()
        waiting, retired, failed = queue.pending, len(self.completed), len(self.failed)
        now = self.executor.service.clock()
        try:
            self._launches_left = 1
            self._dispatch(self.worker, now)  # the round's start: joins, groups, first launch
            report.admitted = waiting - queue.pending
            if not self.worker.launched:
                return report
            ((first, _, _),) = self.worker.launched.values()
            report.lanes, report.dispatches = len(queue.lanes), 1 + len(queue.round)
            report.bucket = max(batch.bucket for batch in (first, *queue.round))
            self.steps += 1
            self.peak_lanes = max(self.peak_lanes, report.lanes)
            self._launches_left = len(queue.round)  # the rest of the round
            self._drive(now)
        except BaseException:
            queue.round.clear()  # a launch raised: the next step regroups from scratch
            raise
        report.retired, report.failed = len(self.completed) - retired, len(self.failed) - failed
        report.tokens = report.lanes - report.failed
        return report

    def _complete(self, lane: _Lane, batch, worker, dispatched: float, now: float, served) -> None:
        """Feed the lane its row: the token that meets the budget retires
        it; rows the KV state refuses fail it alone, not the batch."""
        try:
            done = lane.feed(served[0])
        except ValueError as err:
            worker.queue.lanes.remove(lane)
            self.failed[lane.request_id] = str(err)
            return self._drop(FAIL, lane, now)
        if done:
            worker.queue.lanes.remove(lane)
            self.completed[lane.request_id] = np.stack(lane.outputs)
            super()._complete(lane, batch, worker, lane.first_dispatch_s, now, served)

    def run(self) -> DecodeRunResult:
        """Drain queue and lanes; returns per-sequence step outputs."""
        while self.queued or self.active:
            self.step()
        return DecodeRunResult(dict(self.completed), self.steps, self.dispatches, self.tokens,
                               self.peak_lanes, self.lane_steps, self.salo.cache_info())
