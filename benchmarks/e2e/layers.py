"""Layer replays shared by more than one workload.

Each function calls one layer's public entry points directly, one span
per call, so a traced op can be set against the cost of the layers under
it.  Span names are ``<package>.<what>``; the workloads map them onto
the per-layer metric names of ``registry.py``.
"""

from __future__ import annotations

import time
import tracemalloc
from typing import Callable, Dict, Optional

from harness import Tracer, interleaved_minima

__all__ = [
    "COLD_CHAIN_SPANS",
    "cold_chain",
    "cold_chain_metrics",
    "plan_cache_metrics",
    "thin_overheads_us",
    "timed_loop_us",
    "traced_alloc_kb",
]


#: Span names :func:`cold_chain` records, in call order.
COLD_CHAIN_SPANS = (
    "patterns.build",
    "patterns.structure_key",
    "scheduler.schedule",
    "scheduler.compile",
    "accelerator.engine_build",
    "accelerator.first_run",
    "accelerator.estimate",
)


def cold_chain(
    tracer: Tracer,
    make_pattern: Callable[[], object],
    heads: int,
    q,
    k,
    v,
    kind: object,
    parent: Optional[int] = None,
    op: Optional[int] = None,
):
    """Everything a first ``attend`` of a structure does, layer by layer.

    pattern build -> structure key -> ``DataScheduler.schedule`` ->
    ``ExecutionPlan.compiled()`` -> ``FunctionalEngine(plan)`` -> first
    ``run`` -> ``plan_timing``.  Returns ``(pattern, plan, engine)``;
    the engine is warm afterwards and is what the warm replays reuse.
    """
    from repro.accelerator.functional import FunctionalEngine
    from repro.accelerator.timing import plan_timing
    from repro.core.config import HardwareConfig
    from repro.core.salo import pattern_structure_key
    from repro.scheduler import DataScheduler

    head_dim = q.shape[-1] // heads
    tags = {"parent": parent, "op": op, "kind": kind}
    pattern, _ = tracer.call("patterns.build", make_pattern, **tags)
    tracer.call("patterns.structure_key", pattern_structure_key, pattern, **tags)
    scheduler = DataScheduler(HardwareConfig())
    plan, _ = tracer.call(
        "scheduler.schedule", scheduler.schedule, pattern, heads=heads, head_dim=head_dim, **tags
    )
    tracer.call("scheduler.compile", plan.compiled, **tags)
    engine, _ = tracer.call("accelerator.engine_build", FunctionalEngine, plan, **tags)
    tracer.call("accelerator.first_run", engine.run, q, k, v, **tags)
    tracer.call("accelerator.estimate", plan_timing, plan, **tags)
    return pattern, plan, engine


def cold_chain_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics the spans of :func:`cold_chain` reduce to."""
    return {
        "patterns.build_ms": tracer.reduce("patterns.build", scale=1e3),
        "patterns.structure_key_us": tracer.reduce("patterns.structure_key", scale=1e6),
        "scheduler.schedule_user_ms": tracer.reduce("scheduler.schedule", "user", scale=1e3),
        "scheduler.compile_user_ms": tracer.reduce("scheduler.compile", "user", scale=1e3),
        "accelerator.engine_build_user_ms": tracer.reduce(
            "accelerator.engine_build", "user", scale=1e3
        ),
        "accelerator.first_run_user_ms": tracer.reduce("accelerator.first_run", "user", scale=1e3),
        "accelerator.first_run_sys_ms": tracer.reduce("accelerator.first_run", "sys", scale=1e3),
        "accelerator.first_run_minor_faults": tracer.reduce("accelerator.first_run", "minflt"),
        "accelerator.estimate_us": tracer.reduce("accelerator.estimate", scale=1e6),
    }


def plan_cache_metrics(hits: int, misses: int) -> Dict[str, float]:
    """Plan-cache counters of the measured rounds, and the hit share."""
    return {
        "core.plan_cache_hits": float(hits),
        "core.plan_cache_misses": float(misses),
        "core.plan_cache_hit_share": hits / (hits + misses) if hits + misses else 0.0,
    }


def thin_overheads_us(pattern, q, k, v, heads: int, valid_lens=None, calls: int = 60):
    """``(facade, plan-cache hit)`` overheads in microseconds.

    facade: ``Runtime.attend - SALO.attend`` on the same engine, gap of
    interleaved minima; the caller passes operands small enough (an
    attend of 1-2 ms) for a gap of tens of microseconds to be readable.

    hit: a warm ``SALO.schedule`` — structure key plus cache lookup, the
    part of a warm attend that is not the engine.  (The direct reading,
    ``SALO.attend - FunctionalEngine.run``, needs a second engine
    instance; where its scratch lands in the cache biases the gap by
    +-50 us, more than the quantity itself.)
    """
    from repro import Runtime

    rt = Runtime()
    salo = rt.backend.salo
    head_dim = q.shape[-1] // heads

    def facade():
        return rt.attend(pattern, q, k, v, heads=heads, valid_lens=valid_lens)

    def core():
        return salo.attend(pattern, q, k, v, heads=heads, valid_lens=valid_lens)

    facade()
    outer, inner = interleaved_minima(calls, facade, core)
    hit_us = timed_loop_us(lambda: salo.schedule(pattern, heads=heads, head_dim=head_dim), 500)
    return 1e6 * (outer - inner), hit_us


def timed_loop_us(fn: Callable[[], object], calls: int) -> float:
    """Mean microseconds per call over a tight loop of ``calls`` calls."""
    t0 = time.perf_counter()
    for _ in range(calls):
        fn()
    return 1e6 * (time.perf_counter() - t0) / calls


def traced_alloc_kb(fn: Callable[[], object]) -> float:
    """``tracemalloc`` peak of one call, in kB (numpy reports to it)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - base) / 1024.0
