"""Request streams: the one description of synthetic attention traffic.

A :class:`TraceSpec` is the shape of a stream: how many requests, over
which pattern families (window, window+global, dilated) at a few
sequence-length buckets, with what head layout, which SLO classes and
which seed.  :class:`RequestFactory` is the only code that draws
requests from one: one stream drives family and class; operands are
keyed by (seed, request id).  The serve CLI's traces
(:func:`synthetic_trace`, all at t=0, operands drawn) and the cluster
simulator's arrival-timed sources (:mod:`repro.cluster.arrivals`,
operands drawn on first read) come from it.  :func:`replay` pushes a
trace through a :class:`ServingSession` (the in-process front on the
cluster control plane) and — optionally — through the sequential
one-call-per-request baseline, so the batching win is measured on
identical work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..api import engine_factory
from ..patterns.base import AttentionPattern, Band
from ..patterns.hybrid import HybridSparsePattern
from ..patterns.library import longformer_pattern
from .request import AttentionRequest, OperandDraw, ServingStats

if TYPE_CHECKING:  # pragma: no cover - repro.cluster imports this module
    from ..cluster.arrivals import SLOClass

__all__ = [
    "TraceSpec",
    "RequestFactory",
    "pattern_families",
    "synthetic_trace",
    "replay",
    "ReplayReport",
]


@dataclass(frozen=True)
class TraceSpec:
    """Shape of a synthetic request stream.

    ``slo_classes`` (:class:`~repro.cluster.arrivals.SLOClass` values)
    are drawn per request by share; empty means best effort, and then no
    class is drawn at all.
    """

    num_requests: int = 64
    n: int = 512
    window: int = 64
    heads: int = 4
    head_dim: int = 16
    global_tokens: Tuple[int, ...] = (0,)
    mixed: bool = True  # draw from several pattern families / lengths
    slo_classes: Tuple[SLOClass, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("num_requests", "n", "window", "heads", "head_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.window > self.n:
            raise ValueError(f"window must be <= n={self.n}, got {self.window}")
        if self.mixed and self.n < 16:
            # the half-length family attends a window of at least 8
            raise ValueError(f"mixed traffic needs n >= 16, got n={self.n}")


def pattern_families(spec: TraceSpec) -> List[AttentionPattern]:
    """The pattern families a stream samples from (one unless ``mixed``)."""
    families: List[AttentionPattern] = [
        longformer_pattern(spec.n, spec.window, spec.global_tokens)
    ]
    if spec.mixed:
        half = spec.n // 2
        families.append(longformer_pattern(half, max(8, spec.window // 2), spec.global_tokens))
        dil = max(2, spec.window // 8)
        families.append(
            HybridSparsePattern(
                spec.n, [Band(-spec.window * dil // 2, spec.window * dil // 2, dil)], ()
            )
        )
    return families


class RequestFactory:
    """Draws a spec's requests, one per :meth:`make`, ids 1, 2, ...

    One stream drives family and class; operands are keyed by (seed,
    request id).  The spec's seeded stream draws each request's family,
    then its SLO class if the spec has classes, so a stream is
    reproducible independent of the arrival times layered on top.  The
    q/k/v are drawn from ``(spec.seed, request_id)`` on first read
    (:meth:`AttentionRequest.drawn
    <repro.serving.request.AttentionRequest.drawn>`), so building a source
    costs descriptors and a cost-model simulation draws no operands.
    """

    def __init__(self, spec: TraceSpec) -> None:
        self.spec = spec
        self.families: List[AttentionPattern] = pattern_families(spec)
        self.rng = np.random.default_rng(spec.seed)
        self._serial = 0
        self._class_cdf = None
        if spec.slo_classes:
            # `rng.choice(len(classes), p=shares / shares.sum())`'s own CDF:
            # one `rng.random()` searched in it picks the same class.
            shares = np.asarray([c.share for c in spec.slo_classes], dtype=np.float64)
            cdf = (shares / shares.sum()).cumsum()
            self._class_cdf = cdf / cdf[-1]

    def make(self, arrival_s: float) -> AttentionRequest:
        spec = self.spec
        rng = self.rng
        pattern = self.families[int(rng.integers(len(self.families)))]
        self._serial += 1
        slo = {}
        if self._class_cdf is not None:
            cls = spec.slo_classes[int(self._class_cdf.searchsorted(rng.random(), side="right"))]
            slo = {"deadline_s": cls.deadline_s, "slo_class": cls.name}
        return AttentionRequest.drawn(
            OperandDraw((spec.seed, self._serial), (pattern.n, spec.heads * spec.head_dim)),
            request_id=self._serial,
            pattern=pattern,
            heads=spec.heads,
            arrival_s=arrival_s,
            **slo,
        )


def synthetic_trace(spec: TraceSpec) -> List[AttentionRequest]:
    """``num_requests`` requests, all arriving at t=0, operands drawn."""
    factory = RequestFactory(spec)
    requests = [factory.make(0.0) for _ in range(spec.num_requests)]
    for request in requests:
        request.operands()
    return requests


@dataclass
class ReplayReport:
    """Outcome of replaying one trace through the serving layer."""

    stats: ServingStats
    sequential_s: Optional[float]  # baseline wall time (None if skipped)
    batched_s: float

    @property
    def speedup(self) -> Optional[float]:
        if self.sequential_s is None or self.batched_s <= 0:
            return None
        return self.sequential_s / self.batched_s

    def to_dict(self) -> dict:
        """JSON-ready view: serving stats plus the baseline comparison."""
        return {
            "stats": self.stats.to_dict(),
            "sequential_s": self.sequential_s,
            "batched_s": self.batched_s,
            "speedup": self.speedup,
        }

    def render(self) -> str:
        lines = [self.stats.render()]
        if self.sequential_s is not None:
            lines.append(f"sequential baseline  {self.sequential_s * 1e3:.1f} ms")
            lines.append(f"batched speedup      {self.speedup:.2f}x")
        return "\n".join(lines)


def replay(
    requests: Sequence[AttentionRequest],
    max_batch_size: int = 8,
    compare_sequential: bool = True,
    backend: str = "functional",
) -> ReplayReport:
    """Serve a trace on an engine of registered ``backend`` (the
    ``serve --backend`` CLI path); optionally time the sequential
    baseline on a fresh engine of the same backend.  Both sides warm
    their plan caches at the scheduling level and then pay one plan
    compile + engine build per pattern family inside their timed region
    — symmetric costs, so the comparison isolates batching.  Operands a
    request draws on first read (an :func:`~repro.cluster.arrivals.open_loop`
    trace) are drawn before either timed region.  Backends without a
    plan-level ``schedule`` (the float oracles) skip the warm step on
    both sides — still symmetric.
    """
    # The session is a cluster front, and repro.cluster imports this module.
    from .session import ServingSession

    make_engine = engine_factory(backend)
    salo = make_engine()
    sequential_s: Optional[float] = None
    outputs_seq: Dict[object, np.ndarray] = {}

    def warm(target) -> None:
        # Operands drawn on first read are drawn here, on neither clock.
        schedule = getattr(target, "schedule", None)
        for req in requests:
            req.operands()
            if schedule is not None:
                schedule(req.pattern, heads=req.heads, head_dim=req.head_dim)

    # built first, so a bad max_batch_size is refused before the baseline runs
    session = ServingSession(salo=salo, max_batch_size=max_batch_size)
    if compare_sequential:
        baseline = make_engine()
        warm(baseline)  # schedule-level warm (compile stays timed, as for the session)
        t0 = time.perf_counter()
        for req in requests:
            res = baseline.attend(req.pattern, req.q, req.k, req.v, heads=req.heads)
            outputs_seq[req.request_id] = res.output
        sequential_s = time.perf_counter() - t0

    warm(salo)  # schedule-level warm, symmetric with the baseline
    # A trace recorded with synthetic arrival timestamps replays them:
    # queueing delay is then measured from trace time (rebased onto the
    # session clock), not from the submit call.
    has_arrivals = any(req.arrival_s > 0 for req in requests)
    t0 = time.perf_counter()
    for req in requests:
        session.submit(
            req.pattern,
            req.q,
            req.k,
            req.v,
            heads=req.heads,
            request_id=req.request_id,
            arrival_s=t0 + req.arrival_s if has_arrivals else None,
            deadline_s=req.deadline_s,
            slo_class=req.slo_class,
        )
    session.drain()
    batched_s = time.perf_counter() - t0

    if compare_sequential:
        for req in requests:
            if not np.array_equal(session.results[req.request_id].output, outputs_seq[req.request_id]):
                raise AssertionError(
                    f"batched output diverged from sequential for request {req.request_id}"
                )
    return ReplayReport(stats=session.stats(), sequential_s=sequential_s, batched_s=batched_s)
