"""Serving session: queue -> bucket -> batch -> batched engine dispatch.

:class:`ServingSession` is the facade a driver (the CLI ``serve``
command, a benchmark, a test) talks to: submit requests, then
:meth:`ServingSession.step` or :meth:`ServingSession.drain` them through
the :class:`~repro.serving.batching.BatchScheduler` and a shared
:class:`~repro.core.salo.SALO` instance.  Each batch becomes one
``SALO.attend`` call with a leading batch axis — same-plan sequences
share scheduling, compilation and the engine's per-job dispatch cost,
while outputs stay bit-identical to per-request calls.  In
``pad_to_bucket`` mode, same-structure requests of different lengths
batch under one bucket-length plan with masked tails (outputs are sliced
back to each request's true length; see :mod:`repro.serving.batching`).

Accounting: every request's queueing delay (submit -> batch dispatch)
and service time (its batch's engine wall time) are recorded, and
:meth:`ServingSession.stats` reduces them to throughput plus latency
percentiles — the numbers a capacity study of the "heavy traffic"
scenario needs.

Backend threading
-----------------
The engine behind a session is selected by registered backend name
(``ServingSession(backend="functional-legacy")``): SALO engine backends
get a warm :class:`~repro.core.salo.SALO` instance, oracle backends get
their :class:`~repro.api.protocol.AttentionBackend` adapter.  The
execution path adapts to the engine's capabilities — backends without a
batch axis are served by a per-request loop inside
:func:`execute_batch` (batching still amortises queueing and policy
work, just not the dispatch), and backends that serve mask-only
patterns (``needs_structure=False``) accept opaque submissions the
SALO-backed sessions must reject.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..core.salo import SALO, pattern_structure_key
from ..patterns.base import AttentionPattern
from .admission import AdmissionContext, AdmissionPolicy, queue_drain_estimate
from .batching import Batch, BatchScheduler
from .request import AttentionRequest, RequestResult

__all__ = ["ServingSession", "ServingStats", "execute_batch", "stack_batch_operands"]


def stack_batch_operands(
    requests, pattern: AttentionPattern, out=None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Stack member operands into one ``(b, n, hidden)`` dispatch shape.

    Uniform-length members stack directly (``valid_lens`` is ``None``);
    mixed-length members are zero-padded to ``pattern.n`` (the batch's
    execution length) with their true lengths returned as ``valid_lens``
    for tail masking.  This is the *single* packing used by both the
    local dispatch path (:func:`execute_batch`) and the transport wire
    format (:func:`repro.transport.base.stacked_operands` re-exports
    it; a multiprocess transport stacks straight into its shared-memory
    slot), so what ships over shared memory cannot drift from what a
    same-process engine would see.

    ``out`` is an optional ``(q, k, v)`` triple of float64 ``(b,
    pattern.n, hidden)`` arrays to stack into instead of fresh ones;
    every cell is written, so stale contents do not matter.  Every member
    is checked before anything is written: one whose ``hidden`` differs
    from the first member's, or whose length exceeds ``pattern.n``,
    raises ``ValueError`` naming its ``request_id``.
    """
    n_pad, hidden = pattern.n, requests[0].hidden
    for r in requests:
        if r.hidden != hidden or r.n > n_pad:
            raise ValueError(
                f"request {r.request_id!r}: operands of shape {r.q.shape} do not "
                f"fit the batch's (n, hidden) = ({n_pad}, {hidden})"
            )
    lens = [r.n for r in requests]
    if out is None:
        out = tuple(np.empty((len(requests), n_pad, hidden)) for _ in range(3))
    for i, r in enumerate(requests):
        for dst, src in zip(out, (r.q, r.k, r.v)):
            dst[i, : r.n] = src
            if r.n < n_pad:
                dst[i, r.n :] = 0.0
    padded = any(n != n_pad for n in lens)
    return (*out, np.asarray(lens, dtype=np.int64) if padded else None)


def execute_batch(engine, batch: Batch) -> Tuple[List[np.ndarray], List[object]]:
    """One engine dispatch for a batch; returns per-request outputs.

    ``engine`` is anything with the attend contract — a
    :class:`~repro.core.salo.SALO` instance or a
    :class:`~repro.api.protocol.AttentionBackend` adapter.  Uniform-length
    batches stack members on a leading batch axis (bit-identical to
    per-request calls); mixed-length padded batches zero-pad members to
    the bucket length, mask the tails via ``valid_lens`` and slice
    outputs back.  Engines without a batch axis (``supports_batch``
    False, e.g. the systolic micro-simulator) fall back to a per-request
    loop — arithmetic identical to the stacked dispatch, minus the
    amortisation.  This is the single execution path shared by
    :class:`ServingSession` and the cluster simulator's measured-clock
    workers.

    Returns ``(outputs, results)``, one entry per request.  A single
    batched dispatch repeats its one result object for every member
    (they genuinely share plan and stats); the serial fallback keeps
    each request's own result, whose stats describe that request's
    exact-length plan.
    """
    requests = batch.requests
    supports_batch = getattr(engine, "supports_batch", True)
    supports_lens = getattr(engine, "supports_valid_lens", True)
    serial = (
        batch.size == 1
        or not supports_batch
        or (batch.mixed_lengths and not supports_lens)
    )
    if serial:
        # Per-request loop: each member runs its own exact-length
        # pattern, so no padding (and no valid_lens support) is needed.
        results = [
            engine.attend(r.pattern, r.q, r.k, r.v, heads=r.heads) for r in requests
        ]
        return [res.output for res in results], results
    pattern = batch.execution_pattern()
    q, k, v, lens = stack_batch_operands(requests, pattern)
    if lens is None:
        result = engine.attend(pattern, q, k, v, heads=batch.heads)
        return [result.output[i] for i in range(batch.size)], [result] * batch.size
    # Padded cross-length batch: one bucket-length plan, masked tails.
    result = engine.attend(pattern, q, k, v, heads=batch.heads, valid_lens=lens)
    outputs = [result.output[i, : requests[i].n] for i in range(batch.size)]
    return outputs, [result] * batch.size


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
        from dataclasses import asdict

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


class ServingSession:
    """Multi-request serving facade over one :class:`SALO` instance.

    Parameters
    ----------
    salo:
        The serving engine (shared plan cache): a
        :class:`~repro.core.salo.SALO` instance or any
        :class:`~repro.api.protocol.AttentionBackend`; defaults to a
        fresh Table 1 SALO.  Mutually exclusive with ``backend``.
    backend:
        Registered backend name (see :func:`repro.api.list_backends`);
        the session builds a fresh engine for it via
        :func:`repro.api.engine_factory`.  Non-executing backends
        (``sanger``) are rejected at construction.
    max_batch_size:
        Upper bound on requests per engine dispatch.
    pad_to_bucket:
        Batch same-structure requests of different lengths under one
        bucket-length plan with masked tails (higher occupancy, outputs
        equivalent up to partial-softmax regrouping — no longer
        guaranteed bit-identical to per-request calls).
    admission:
        Optional :class:`~repro.serving.admission.AdmissionPolicy`
        consulted at :meth:`submit`; a rejected submission returns
        ``None`` instead of a request id and is tallied per SLO class in
        :attr:`rejected` (overload back-pressure at the session door).
    clock:
        Monotonic time source; injectable for deterministic tests.
    """

    def __init__(
        self,
        salo=None,
        max_batch_size: int = 8,
        bucket_floor: int = 16,
        pad_to_bucket: bool = False,
        admission: Optional[AdmissionPolicy] = None,
        clock: Callable[[], float] = time.perf_counter,
        backend: Optional[str] = None,
    ) -> None:
        if salo is not None and backend is not None:
            raise ValueError("pass either a salo/engine instance or a backend name, not both")
        if backend is not None:
            from ..api import engine_factory

            salo = engine_factory(backend)()
        self.salo = salo if salo is not None else SALO()
        self.scheduler = BatchScheduler(
            max_batch_size=max_batch_size,
            bucket_floor=bucket_floor,
            pad_to_bucket=pad_to_bucket,
        )
        self.admission = admission
        self.rejected: Dict[str, int] = {}  # slo_class -> rejection count
        self.clock = clock
        self.results: Dict[Hashable, RequestResult] = {}
        self.batches_executed = 0
        self._batch_sizes: List[int] = []
        self._service_s_total = 0.0  # summed per-batch engine time
        self._serial = 0
        self._known_ids: set = set()  # pending + completed (collision guard)
        self._first_submit_s: Optional[float] = None
        self._last_complete_s: Optional[float] = None

    # ------------------------------------------------------------------
    def submit(
        self,
        pattern: AttentionPattern,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        heads: int = 1,
        request_id: Optional[Hashable] = None,
        arrival_s: Optional[float] = None,
        deadline_s: Optional[float] = None,
        slo_class: str = "default",
        client_id: Optional[Hashable] = None,
    ) -> Optional[Hashable]:
        """Queue one attention request; returns its id.

        ``arrival_s`` overrides the arrival timestamp (trace replay with
        recorded arrivals — queueing delay is then measured from trace
        time, not the submit call).  ``deadline_s``/``slo_class`` ride
        along for deadline-aware schedulers and per-class accounting;
        ``client_id`` identifies the submitting tenant for per-client
        admission quotas (composite token-bucket keys).

        With an ``admission`` policy configured, an over-capacity
        submission is turned away: it returns ``None``, counts in
        :attr:`rejected` under its SLO class, and nothing is queued.

        For engines that schedule band structure (every SALO backend),
        patterns without it are rejected up front — failing at submit
        keeps one bad request from crashing a drain with other requests
        queued.  Oracle backends (``needs_structure`` False) accept
        mask-only patterns; they queue as singleton batches.
        """
        if pattern_structure_key(pattern) is None and getattr(
            self.salo, "needs_structure", True
        ):
            raise ValueError(
                "pattern does not expose band structure; SALO serves hybrid "
                "sparse patterns (bands + global tokens) only (oracle "
                "backends with needs_structure=False accept mask-only "
                "patterns)"
            )
        if request_id is None:
            self._serial += 1
            while self._serial in self._known_ids:  # skip user-taken ints
                self._serial += 1
            request_id = self._serial
        elif request_id in self._known_ids:
            raise ValueError(f"request id {request_id!r} already in use")
        self._known_ids.add(request_id)
        now = self.clock()
        if self._first_submit_s is None:
            self._first_submit_s = now
        request = AttentionRequest(
            request_id=request_id,
            pattern=pattern,
            q=q,
            k=k,
            v=v,
            heads=heads,
            arrival_s=now if arrival_s is None else arrival_s,
            deadline_s=deadline_s,
            slo_class=slo_class,
            client_id=client_id,
        )
        if self.admission is not None:
            ctx = self._admission_context(request, now)
            if not self.admission.admit(request, ctx):
                self.rejected[slo_class] = self.rejected.get(slo_class, 0) + 1
                self._known_ids.discard(request_id)  # the id stays usable
                return None
        self.scheduler.enqueue(request)
        return request_id

    def _admission_context(self, request: AttentionRequest, now: float) -> AdmissionContext:
        """Session-door admission view: queue depth + cost-model wait.

        ``now`` is the *session clock* reading, not the request's
        (possibly replayed) ``arrival_s``: stateful admission policies
        like the token bucket need one monotone clock domain, and a
        trace replay that mixes recorded arrivals with live submissions
        would otherwise run the bucket arithmetic backwards.  The wait
        estimate is the queue-drain model over the pending backlog with
        the request's own cost-model latency as the unit (the session
        door has no batch-overhead clock, so the drain reduces to
        depth x unit here) — deterministic, cheap (the SALO stats cache
        absorbs repeat structures), and lazy so depth-only policies
        never trigger an estimate.
        """

        def estimate() -> Tuple[float, float]:
            unit = self.salo.estimate(
                request.pattern, heads=request.heads, head_dim=request.head_dim
            ).latency_s
            wait = queue_drain_estimate(
                self.scheduler.pending,
                unit,
                max_batch_size=self.scheduler.max_batch_size,
            )
            return (wait, unit)

        return AdmissionContext(
            now=now, depth=self.scheduler.pending, estimator=estimate
        )

    # ------------------------------------------------------------------
    def step(self) -> Optional[Batch]:
        """Execute the next batch; returns it (or ``None`` if idle).

        The batch's sequences are stacked on a leading axis and run as a
        single ``SALO.attend`` dispatch; outputs are bit-identical to
        per-request calls (equivalent up to partial-softmax regrouping
        for padded cross-length batches), so batching is a throughput
        decision.
        """
        batch = self.scheduler.next_batch()
        if batch is None:
            return None
        start = self.clock()
        outputs, results = execute_batch(self.salo, batch)
        end = self.clock()
        service_s = end - start
        for i, req in enumerate(batch.requests):
            self.results[req.request_id] = RequestResult(
                request_id=req.request_id,
                output=outputs[i],
                batch_size=batch.size,
                queue_s=max(0.0, start - req.arrival_s),
                service_s=service_s,
                stats=results[i].stats,
            )
        self.batches_executed += 1
        self._batch_sizes.append(batch.size)
        self._service_s_total += service_s
        self._last_complete_s = end
        return batch

    def drain(self) -> Dict[Hashable, RequestResult]:
        """Execute batches until the queue is empty; returns all results."""
        while self.step() is not None:
            pass
        return self.results

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        return self.scheduler.pending

    def stats(self) -> ServingStats:
        """Reduce per-request accounting to throughput and percentiles.

        Safe on the edge cases a capacity script hits first: an empty
        session (no requests yet) and a single-request session with an
        arbitrarily coarse clock both return finite, renderable numbers
        — never a division by zero or an ``inf`` throughput.
        """
        completed = len(self.results)
        rejected = sum(self.rejected.values())
        if completed == 0:
            return ServingStats(
                completed=0,
                batches=0,
                wall_s=0.0,
                throughput_rps=0.0,
                mean_batch_size=0.0,
                queue_p50_ms=0.0,
                latency_p50_ms=0.0,
                latency_p90_ms=0.0,
                latency_p99_ms=0.0,
                plan_cache=self.salo.cache_info(),
                rejected=rejected,
            )
        latencies = np.asarray([r.latency_s for r in self.results.values()])
        queues = np.asarray([r.queue_s for r in self.results.values()])
        wall_s = max(self._last_complete_s - self._first_submit_s, 0.0)
        if wall_s <= 0.0:
            # Degenerate clock (frozen test clock, sub-resolution run):
            # fall back to the summed per-batch engine time — counted
            # once per batch, not once per member — so throughput stays
            # finite; 0.0 when even that is zero.
            throughput = (
                completed / self._service_s_total if self._service_s_total > 0 else 0.0
            )
        else:
            throughput = completed / wall_s
        p50, p90, p99 = np.percentile(latencies, [50, 90, 99])
        return ServingStats(
            completed=completed,
            batches=self.batches_executed,
            wall_s=wall_s,
            throughput_rps=throughput,
            mean_batch_size=float(np.mean(self._batch_sizes)) if self._batch_sizes else 0.0,
            queue_p50_ms=float(np.percentile(queues, 50)) * 1e3,
            latency_p50_ms=float(p50) * 1e3,
            latency_p90_ms=float(p90) * 1e3,
            latency_p99_ms=float(p99) * 1e3,
            plan_cache=self.salo.cache_info(),
            rejected=rejected,
        )
