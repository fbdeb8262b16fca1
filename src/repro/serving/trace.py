"""Synthetic request traces for serving experiments and the CLI.

A trace models the repeated-structure traffic a deployed accelerator
serves: a small set of pattern families (window, window+global, dilated)
at a few sequence-length buckets, hit by many requests with fresh data.
:func:`replay` pushes a trace through a :class:`ServingSession` (the
in-process front on the cluster control plane) and — optionally —
through the sequential one-call-per-request baseline, so the batching
win is measured on identical work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.salo import SALO
from ..patterns.base import AttentionPattern, Band
from ..patterns.hybrid import HybridSparsePattern
from ..patterns.library import longformer_pattern
from .request import AttentionRequest, ServingStats

__all__ = ["ArrivalSpec", "TraceSpec", "synthetic_trace", "replay", "ReplayReport"]


@dataclass(frozen=True)
class ArrivalSpec:
    """How a synthetic trace's arrival timestamps are drawn.

    Either a Poisson ``rate_rps`` (exponential inter-arrivals) or a
    custom ``sampler`` drawing one inter-arrival gap per call from the
    trace RNG.  Timestamps start at 0 and accumulate, so a recorded
    trace carries realistic relative arrival times instead of the
    submit-time wall clock — the bridge the cluster simulator replays.
    """

    rate_rps: Optional[float] = None
    sampler: Optional[Callable[[np.random.Generator], float]] = None

    def __post_init__(self) -> None:
        if (self.rate_rps is None) == (self.sampler is None):
            raise ValueError("specify exactly one of rate_rps or sampler")
        if self.rate_rps is not None and self.rate_rps <= 0:
            raise ValueError(f"rate_rps must be positive, got {self.rate_rps}")

    def inter_arrival(self, rng: np.random.Generator) -> float:
        if self.sampler is not None:
            gap = float(self.sampler(rng))
        else:
            gap = float(rng.exponential(1.0 / self.rate_rps))
        if gap < 0:
            raise ValueError(f"inter-arrival gap must be >= 0, got {gap}")
        return gap


@dataclass(frozen=True)
class TraceSpec:
    """Shape of a synthetic trace."""

    num_requests: int = 64
    n: int = 512
    window: int = 64
    heads: int = 4
    head_dim: int = 16
    global_tokens: Tuple[int, ...] = (0,)
    mixed: bool = True  # draw from several pattern families / lengths
    seed: int = 0
    arrival: Optional[ArrivalSpec] = None  # None: all requests at t=0


def pattern_families(spec: TraceSpec) -> List[AttentionPattern]:
    """The pattern families a mixed trace samples from.

    Shared with the cluster workload generator
    (:mod:`repro.cluster.arrivals`), so simulated traffic and the serve
    CLI's traces draw from the same structural mix.
    """
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


def synthetic_trace(spec: TraceSpec) -> List[AttentionRequest]:
    """Generate ``num_requests`` requests over the spec's families.

    With ``spec.arrival`` set, requests carry accumulated synthetic
    arrival timestamps (starting at 0) instead of the default 0.0 —
    :func:`replay` forwards them into the session and the cluster
    simulator replays them as its arrival events.
    """
    rng = np.random.default_rng(spec.seed)
    families = pattern_families(spec)
    hidden = spec.heads * spec.head_dim
    requests: List[AttentionRequest] = []
    t = 0.0
    for i in range(spec.num_requests):
        pattern = families[int(rng.integers(len(families)))]
        q, k, v = (rng.standard_normal((pattern.n, hidden)) for _ in range(3))
        if spec.arrival is not None:
            t += spec.arrival.inter_arrival(rng)
        requests.append(
            AttentionRequest(
                request_id=i, pattern=pattern, q=q, k=k, v=v, heads=spec.heads,
                arrival_s=t,
            )
        )
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
    symmetric costs, so the comparison isolates batching.

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
        schedule = getattr(target, "schedule", None)
        if schedule is None:
            return
        for req in requests:
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
