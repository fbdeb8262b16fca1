"""Request streams: the one description of synthetic attention traffic.

A :class:`TraceSpec` is the shape of a stream: how many requests, over
which pattern families (window, window+global, dilated) at a few
sequence-length buckets, with what head layout, which SLO classes and
which seed.  :class:`RequestFactory` is the only code that draws
requests from one: the serve CLI's traces (:func:`synthetic_trace`, all
at t=0, operands drawn) and the cluster simulator's arrival-timed
sources (:mod:`repro.cluster.arrivals`, operands drawn on first read)
come from it.  :func:`replay` pushes a trace through a
:class:`ServingSession` (the in-process front on the cluster control
plane) and — optionally — through the sequential one-call-per-request
baseline, so the batching win is measured on identical work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.salo import SALO
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
        for name in ("num_requests", "heads", "head_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


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

    One RNG stream (seeded by the spec) drives family choice, data and
    SLO class, in that order per request, so a stream is reproducible
    independent of the arrival times layered on top.  The data draws
    advance that stream at :meth:`make` (into one reused scratch buffer
    per shape, where they are checked finite), but a request keeps only
    the generator state they started from: its q/k/v are materialised,
    bit-identically, on first read (:meth:`AttentionRequest.drawn
    <repro.serving.request.AttentionRequest.drawn>`).  A simulation on a
    cost-model clock therefore holds no operands at all.
    """

    def __init__(self, spec: TraceSpec) -> None:
        self.spec = spec
        self.families: List[AttentionPattern] = pattern_families(spec)
        self.rng = np.random.default_rng(spec.seed)
        self._serial = 0
        shares = np.asarray([c.share for c in spec.slo_classes], dtype=np.float64)
        self._class_p = shares / shares.sum() if spec.slo_classes else None
        self._scratch: Dict[Tuple[int, int], np.ndarray] = {}

    def make(self, arrival_s: float) -> AttentionRequest:
        spec = self.spec
        rng = self.rng
        pattern = self.families[int(rng.integers(len(self.families)))]
        shape = (pattern.n, spec.heads * spec.head_dim)
        scratch = self._scratch.get(shape)
        if scratch is None:
            scratch = self._scratch[shape] = np.empty(shape)
        self._serial += 1
        operands = OperandDraw.take(rng, scratch, self._serial)
        slo = {}
        if spec.slo_classes:
            cls = spec.slo_classes[int(rng.choice(len(spec.slo_classes), p=self._class_p))]
            slo = {"deadline_s": cls.deadline_s, "slo_class": cls.name}
        return AttentionRequest.drawn(
            operands,
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
    salo: Optional[SALO] = None,
    max_batch_size: int = 8,
    compare_sequential: bool = True,
    backend: Optional[str] = None,
) -> ReplayReport:
    """Serve a trace; optionally time the sequential baseline on a
    fresh engine with the same configuration.  Both sides warm their
    plan caches at the scheduling level and then pay one plan compile +
    engine build per pattern family inside their timed region —
    symmetric costs, so the comparison isolates batching.  Operands a
    request draws on first read (an :func:`~repro.cluster.arrivals.open_loop`
    trace) are drawn before either timed region.

    ``backend`` selects a registered execution backend by name (the
    ``serve --backend`` CLI path); mutually exclusive with ``salo``.
    Backends without a plan-level ``schedule`` (the float oracles) skip
    the warm step on both sides — still symmetric.
    """
    # The session is a cluster front, and repro.cluster imports this module.
    from .session import ServingSession

    if salo is not None and backend is not None:
        raise ValueError("pass either a salo/engine instance or a backend name, not both")
    if backend is not None:
        from ..api import engine_factory

        make_engine = engine_factory(backend)
        salo = make_engine()
    elif salo is None:
        salo = SALO()
        make_engine = SALO
    else:
        engine = salo

        def make_engine():
            inner = engine.salo if hasattr(engine, "salo") else engine
            if isinstance(inner, SALO):
                fresh = SALO(
                    config=inner.config,
                    energy_table=inner.energy_table,
                    strict_global_bound=inner.scheduler.strict_global_bound,
                    plan_cache_size=inner.plan_cache_size,
                    backend=inner.backend,
                )
                if inner is engine:
                    return fresh
                clone = type(engine)(engine.name, engine.capabilities, fresh)
                clone._check_buffers = engine._check_buffers
                return clone
            return type(engine)()  # fresh oracle adapters are stateless

    sequential_s: Optional[float] = None
    outputs_seq: Dict[object, np.ndarray] = {}

    def warm(target) -> None:
        # Operands drawn on first read are drawn here, on neither clock.
        schedule = getattr(target, "schedule", None)
        for req in requests:
            req.operands()
            if schedule is not None:
                schedule(req.pattern, heads=req.heads, head_dim=req.head_dim)

    if compare_sequential:
        baseline = make_engine()
        warm(baseline)  # schedule-level warm (compile stays timed, as for the session)
        t0 = time.perf_counter()
        for req in requests:
            res = baseline.attend(req.pattern, req.q, req.k, req.v, heads=req.heads)
            outputs_seq[req.request_id] = res.output
        sequential_s = time.perf_counter() - t0

    session = ServingSession(salo=salo, max_batch_size=max_batch_size)
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
