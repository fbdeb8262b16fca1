"""Decode scaling sweep: tokens/s vs lane width x worker count.

The decode-phase provisioning question is different from prefill's:
throughput comes from *continuous-batching concurrency* (how many
sequences share each engine's lane axis), while the latency SLOs are
per-token pacing (ITL) and first-token wait (TTFT).  Widening lanes
amortises the per-step batch overhead across more sequences but
stretches every step (service is ``latency x lanes``), so tokens/s
climbs with lane width while ITL degrades — the sweep exposes that
frontier over identical traffic (same seed, same sequences; only the
worker/lane shape changes).

Committed expectations (asserted at the fixed seed in
``tests/experiments/test_decode_scaling.py``): the laws of
:func:`repro.cluster.events.check` (sequence and token conservation
among them) hold on every row; tokens/s at the widest lane setting beats
lanes=1
for the same worker count; adding a worker never lowers tokens/s at
fixed lane width; and cold compiles stay bounded by
``workers x buckets`` (plan-cache reuse across steps at cluster scale;
with the step window a global-free workload compiles one step plan per
worker).
"""

from __future__ import annotations

from typing import List

from ..cluster import DecodeClusterSimulator, DecodeSimConfig, DecodeWorkloadSpec
from ..cluster.events import check
from .base import ExperimentResult, register

#: Every (workers, lanes) point the sweep visits.
GRID = ((1, 1), (1, 4), (1, 8), (2, 1), (2, 4), (2, 8))
FAST_GRID = ((1, 1), (1, 4), (2, 4))


def decode_spec(sequences: int, seed: int = 17) -> DecodeWorkloadSpec:
    """The workload the sweep (and its regression test) runs."""
    return DecodeWorkloadSpec(
        sequences=sequences,
        rate_rps=3000.0,
        prompt_min=4,
        prompt_max=40,
        mean_new_tokens=12.0,
        max_new_tokens=48,
        window=8,
        heads=2,
        head_dim=8,
        seed=seed,
    )


@register("decode_scaling")
def run(fast: bool = False) -> ExperimentResult:
    sequences = 24 if fast else 64
    spec = decode_spec(sequences)
    rows: List[dict] = []
    for workers, lanes in FAST_GRID if fast else GRID:
        sim, events = DecodeClusterSimulator(DecodeSimConfig(workers=workers,
                                                             max_batch_size=lanes)), []
        sim.listen(events.append)
        report = sim.run(spec)
        cold = sum(w["cold_compiles"] for w in report.workers)
        rows.append(
            {
                "workers": workers,
                "lanes": lanes,
                "completed": report.completed,
                "shed": report.shed,
                "tokens": report.tokens_completed,
                "tokens_per_s": round(report.tokens_per_s),
                "concurrency": round(report.mean_concurrency, 2),
                "ttft_p99_us": round(report.ttft_p99_s * 1e6, 1),
                "itl_p99_us": round(report.itl_p99_s * 1e6, 1),
                "cold": cold,
                "conserved": not check(events),
            }
        )

    base = {(r["workers"], r["lanes"]): r for r in rows}
    widest = max(lanes for _, lanes in (FAST_GRID if fast else GRID))
    notes = [
        f"{sequences} sequences, Poisson arrivals at {spec.rate_rps:.0f} seq/s, "
        f"window {spec.window}, output budget geometric(mean "
        f"{spec.mean_new_tokens:.0f}) capped at {spec.max_new_tokens}",
        "service: cost-model clock, latency(step bucket) x lanes + batch overhead "
        "per step; first step per (worker, step plan) pays the cold-compile penalty",
        "conservation: sequences submitted == completed + rejected + shed + failed; "
        "admitted tokens target == completed + shed + failed, on every row",
        f"lanes 1 -> {widest} at 1 worker: "
        f"{base[(1, 1)]['tokens_per_s']} -> {base[(1, widest)]['tokens_per_s']} tokens/s "
        f"(concurrency {base[(1, 1)]['concurrency']} -> {base[(1, widest)]['concurrency']})",
    ]
    return ExperimentResult(
        experiment="decode_scaling",
        title="Decode continuous batching: tokens/s vs lanes x workers",
        rows=rows,
        notes=notes,
        config={
            "fast": fast,
            "sequences": sequences,
            "grid": [list(cell) for cell in (FAST_GRID if fast else GRID)],
            "seed": spec.seed,
        },
    )
