"""Attention requests: the unit of work the serving layer queues.

An :class:`AttentionRequest` is one sequence's sparse-attention call —
pattern, Q/K/V operands and head layout — plus the arrival timestamp the
latency accounting is anchored to.  The serving layer batches requests
that share an execution plan (same pattern structure, head layout and
hardware config) into a single engine dispatch; see
:mod:`repro.serving.batching`.  :class:`RequestResult` is one served
request's outcome and :class:`ServingStats` a session's aggregate.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Hashable, Optional

import numpy as np

from ..patterns.base import AttentionPattern

__all__ = ["AttentionRequest", "RequestResult", "ServingStats"]


@dataclass
class AttentionRequest:
    """One queued sparse-attention call.

    ``q``, ``k``, ``v`` have shape ``(n, hidden)`` with ``n`` equal to
    the pattern's sequence length and ``hidden`` divisible by ``heads``;
    all three must be finite (checked at construction).
    ``arrival_s`` is the submission timestamp (session clock) queueing
    delay is measured from.  ``deadline_s`` is a latency budget relative
    to arrival (the request meets its SLO when it completes by
    ``arrival_s + deadline_s``); ``slo_class`` labels the request for
    per-class latency accounting and deadline-aware batch policies.
    ``client_id`` optionally identifies the submitting tenant within its
    SLO class — per-client admission quotas (composite token-bucket
    keys) are keyed on ``(slo_class, client_id)``.
    """

    request_id: Hashable
    pattern: AttentionPattern
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    heads: int = 1
    arrival_s: float = 0.0
    deadline_s: Optional[float] = None
    slo_class: str = "default"
    client_id: Optional[Hashable] = None

    def __post_init__(self) -> None:
        self.q = np.asarray(self.q, dtype=np.float64)
        self.k = np.asarray(self.k, dtype=np.float64)
        self.v = np.asarray(self.v, dtype=np.float64)
        if self.q.ndim != 2:
            raise ValueError(f"request q must be (n, hidden), got shape {self.q.shape}")
        if self.k.shape != self.q.shape or self.v.shape != self.q.shape:
            raise ValueError("request q, k, v must share shape (n, hidden)")
        if self.q.shape[0] != self.pattern.n:
            raise ValueError(
                f"pattern is for n={self.pattern.n}, request data has n={self.q.shape[0]}"
            )
        if self.heads < 1 or self.q.shape[1] % self.heads != 0:
            raise ValueError(
                f"hidden size {self.q.shape[1]} not divisible by heads {self.heads}"
            )
        # `not (x > 0)` and isnan: a NaN deadline or arrival would corrupt
        # the scheduler's sorted urgency index
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise ValueError(f"deadline_s must be positive, got {self.deadline_s}")
        if math.isnan(self.arrival_s):
            raise ValueError(f"request {self.request_id!r}: arrival_s is NaN")
        for name in ("q", "k", "v"):
            # The door: a NaN that reached an engine would poison every
            # neighbour sharing its batch.
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(
                    f"request {self.request_id!r}: {name} holds non-finite values"
                )

    @property
    def absolute_deadline_s(self) -> float:
        """Completion time the SLO requires (``inf`` without a deadline)."""
        if self.deadline_s is None:
            return float("inf")
        return self.arrival_s + self.deadline_s

    @property
    def n(self) -> int:
        return self.q.shape[0]

    @property
    def hidden(self) -> int:
        return self.q.shape[1]

    @property
    def head_dim(self) -> int:
        return self.hidden // self.heads


@dataclass
class RequestResult:
    """Per-request outcome and latency split recorded by the session."""

    request_id: Hashable
    output: np.ndarray  # (n, hidden)
    batch_size: int  # size of the batch this request executed in
    queue_s: float  # submit -> batch dispatch
    service_s: float  # batch dispatch -> outputs ready (shared by the batch)
    stats: object = field(default=None, repr=False)  # RunStats of the plan

    @property
    def latency_s(self) -> float:
        """End-to-end latency: queueing delay plus service time."""
        return self.queue_s + self.service_s


@dataclass
class ServingStats:
    """Aggregate queue/latency/throughput accounting of a session."""

    completed: int
    batches: int
    wall_s: float
    throughput_rps: float
    mean_batch_size: float
    queue_p50_ms: float
    latency_p50_ms: float
    latency_p90_ms: float
    latency_p99_ms: float
    plan_cache: dict
    rejected: int = 0  # turned away by the session's admission policy

    def to_dict(self) -> dict:
        """JSON-ready view (the ``serve --json`` payload core)."""
        return asdict(self)

    def render(self) -> str:
        lines = [
            f"requests completed   {self.completed} (rejected {self.rejected})",
            f"batches executed     {self.batches}",
            f"mean batch size      {self.mean_batch_size:.2f}",
            f"wall time            {self.wall_s * 1e3:.1f} ms",
            f"throughput           {self.throughput_rps:.1f} req/s",
            f"queue p50            {self.queue_p50_ms:.2f} ms",
            f"latency p50/p90/p99  {self.latency_p50_ms:.2f} / "
            f"{self.latency_p90_ms:.2f} / {self.latency_p99_ms:.2f} ms",
            f"plan cache           {self.plan_cache['hits']} hits / "
            f"{self.plan_cache['misses']} misses "
            f"(hit rate {self.plan_cache['hit_rate']:.0%})",
        ]
        return "\n".join(lines)
