"""Library-level performance benchmarks: scheduler, engines, micro-sim.

Not a paper artefact — these track the simulator's own throughput so
regressions in the reproduction infrastructure are visible.  The
compiled/legacy pairs measure the batched execution path introduced with
``CompiledPlan`` against the per-pass reference it must stay bit
identical to; the ``attend_sequential_8`` / ``attend_batch_8`` pair
measures the cross-request batching win of the serving layer (one
batched dispatch vs 8 cache-hit calls on the same data); the
``cluster_simulate`` pair tracks the discrete-event cluster simulator
(and asserts the EDF-vs-FIFO policy comparison it exists for);
``run_benchmarks.py`` snapshots this module's timings into
``BENCH_engines.json`` so subsequent changes have a trajectory to
regress against.
"""

import os
import time

import numpy as np
import pytest

from repro.accelerator.functional import FunctionalEngine
from repro.accelerator.systolic import SystolicSimulator
from repro.accelerator.timing import plan_timing
from repro.core.config import HardwareConfig
from repro.core.salo import SALO
from repro.patterns.base import Band
from repro.patterns.hybrid import HybridSparsePattern
from repro.patterns.library import longformer_pattern, vil_pattern
from repro.scheduler.scheduler import DataScheduler
from repro.cluster import (
    PoissonProcess,
    SimConfig,
    WorkloadSpec,
    make_policy,
    open_loop,
    simulate,
)
from repro.experiments.overload import mode_config, overload_spec
from repro.serving import TraceSpec, ServingSession, synthetic_trace


def test_scheduler_longformer_4096(benchmark):
    scheduler = DataScheduler(HardwareConfig())
    pattern = longformer_pattern(4096, 512, (0,))
    plan = benchmark.pedantic(
        lambda: scheduler.schedule(pattern, heads=12, head_dim=64), rounds=3, iterations=1
    )
    assert len(plan.passes) > 1000


def test_plan_compile_longformer_4096(benchmark):
    """Compiling a large plan whose index memo is gone (a hand-built plan).

    ``schedule`` leaves its :class:`PassIndex` on the plan and the first
    ``compiled()`` consumes it, so every round here re-derives the index
    on demand through the same function before building the tensors.
    The whole cold start is ``test_cold_plan_longformer_4096``.
    """
    scheduler = DataScheduler(HardwareConfig())
    plan = scheduler.schedule(longformer_pattern(4096, 512, (0,)), heads=12, head_dim=64)

    def compile_fresh():
        plan._compiled = None  # drop the memos so each round compiles
        plan._schedule = None
        return plan.compiled()

    compiled = benchmark.pedantic(compile_fresh, rounds=3, iterations=1)
    assert compiled.num_passes == len(plan.passes)


def test_cold_plan_longformer_4096(benchmark):
    """Everything a plan-cache miss derives before the engine can run.

    fresh pattern -> ``schedule`` -> ``compiled()`` -> ``window_jobs``
    -> ``job_chains``; ``CostModelClock`` calibrates its per-pass cold
    rate from this row.  Asserts the cost *relative to the same
    machine*: the whole chain must beat the seed's derivation alone —
    the per-pass ``valid_cell_count`` filter, the per-pass
    ``query_ids``/``key_ids`` index walk and the sequential global-row
    walk, all still in the tree as references — so regressing to
    per-pass Python construction trips the gate without an absolute
    wall-clock bound.
    """
    scheduler = DataScheduler(HardwareConfig())

    def cold_plan():
        plan = scheduler.schedule(longformer_pattern(4096, 512, (0,)), heads=12, head_dim=64)
        compiled = plan.compiled()
        compiled.window_jobs
        compiled.job_chains
        return plan

    plan = benchmark.pedantic(cold_plan, rounds=3, iterations=1)
    assert plan.compiled().num_passes == len(plan.passes) > 1000
    num = len(plan.passes)
    pad_r = max(tp.rows_used for tp in plan.passes)
    pad_c = max(tp.cols_used for tp in plan.passes)
    exclude = frozenset(plan.global_tokens)

    def seed_walk() -> float:
        t0 = time.perf_counter()
        kept = [tp for tp in plan.passes if tp.valid_cell_count(plan.n, exclude) > 0]
        q_ids = np.full((num, pad_r), -1, dtype=np.int64)
        key_ids = np.full((num, pad_r, pad_c), -1, dtype=np.int64)
        for i, tp in enumerate(kept):
            q = tp.query_ids()
            ids = tp.key_ids(plan.n)
            q_ids[i, : len(q)] = q
            key_ids[i, : ids.shape[0], : ids.shape[1]] = ids
        plan._schedule = None
        plan.global_row_schedule()  # reference Python walk (memo was cleared)
        return time.perf_counter() - t0

    def chain() -> float:
        t0 = time.perf_counter()
        cold_plan()
        return time.perf_counter() - t0

    # Min-of-3 on both sides: single perf_counter shots swing enough on
    # noisy hosts to flip the comparison without any code change.
    walk_s = min(seed_walk() for _ in range(3))
    chain_s = min(chain() for _ in range(3))
    assert chain_s < walk_s, (
        f"cold plan chain ({chain_s * 1e3:.0f} ms) no longer beats the "
        f"seed's per-pass derivation ({walk_s * 1e3:.0f} ms)"
    )


def test_timing_model_longformer(benchmark):
    plan = DataScheduler(HardwareConfig()).schedule(
        longformer_pattern(4096, 512, (0,)), heads=12, head_dim=64
    )
    plan.compiled()  # steady-state: the serving cache holds compiled plans
    t = benchmark.pedantic(lambda: plan_timing(plan), rounds=3, iterations=1)
    assert t.cycles > 0


def test_functional_engine_medium(benchmark):
    """Functional simulation of a 512-token Longformer layer (1 head).

    Runs the default compiled/batched engine; the seed's per-pass engine
    is tracked by ``test_functional_engine_legacy_medium`` below.
    """
    config = HardwareConfig()
    plan = DataScheduler(config).schedule(longformer_pattern(512, 64, (0,)), heads=1, head_dim=64)
    rng = np.random.default_rng(0)
    q, k, v = (rng.standard_normal((512, 64)) for _ in range(3))
    engine = FunctionalEngine(plan)  # compiles eagerly, outside the timer
    res = benchmark.pedantic(lambda: engine.run(q, k, v), rounds=3, iterations=1)
    assert res.output.shape == (512, 64)


def test_functional_engine_legacy_medium(benchmark):
    """Reference per-pass engine on the same workload (bit-identical)."""
    config = HardwareConfig()
    plan = DataScheduler(config).schedule(longformer_pattern(512, 64, (0,)), heads=1, head_dim=64)
    rng = np.random.default_rng(0)
    q, k, v = (rng.standard_normal((512, 64)) for _ in range(3))
    engine = FunctionalEngine(plan, mode="legacy")
    res = benchmark.pedantic(lambda: engine.run(q, k, v), rounds=2, iterations=1)
    assert res.output.shape == (512, 64)


def test_functional_engine_multihead(benchmark):
    """Batched multi-head execution: 12 heads of a 1024-token layer."""
    config = HardwareConfig()
    plan = DataScheduler(config).schedule(
        longformer_pattern(1024, 128, (0,)), heads=12, head_dim=64
    )
    rng = np.random.default_rng(3)
    q, k, v = (rng.standard_normal((1024, 768)) for _ in range(3))
    engine = FunctionalEngine(plan)
    res = benchmark.pedantic(lambda: engine.run(q, k, v), rounds=2, iterations=1)
    assert res.output.shape == (1024, 768)


def _assert_tiled_beats_untiled(tiled, untiled, q, k, v, rounds=3, attempts=3):
    """Interleaved min-of-``rounds``: the budget-derived lane tiling must
    not lose to the same plan forced into one whole-lane-axis tile (the
    pre-tiling layout).  Up to ``attempts`` remeasures: on a noisy host a
    miss usually means one side's samples caught a stall."""
    for attempt in range(attempts):
        tiled_s = untiled_s = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            tiled.run(q, k, v)
            tiled_s = min(tiled_s, time.perf_counter() - t0)
            t0 = time.perf_counter()
            untiled.run(q, k, v)
            untiled_s = min(untiled_s, time.perf_counter() - t0)
        if tiled_s <= untiled_s:
            break
    assert tiled_s <= untiled_s, (
        f"lane tiling regressed: tiled {tiled_s * 1e3:.1f} ms > "
        f"untiled {untiled_s * 1e3:.1f} ms"
    )


def test_functional_engine_multihead_tiled(benchmark):
    """The multihead workload, tiled vs whole-lane-axis untiled.

    Same pattern/data as ``functional_engine_multihead``; the benchmark
    times the default (budget-derived) tiling, then a machine-relative
    comparison asserts it beats ``lane_tile=heads`` — one tile spanning
    all 12 lanes, the layout the hot path had before lane tiling — on
    the same bits (tiling is layout only; outputs stay identical).
    """
    pattern = longformer_pattern(1024, 128, (0,))
    tiled_plan = DataScheduler(HardwareConfig()).schedule(
        pattern, heads=12, head_dim=64
    )
    untiled_plan = DataScheduler(HardwareConfig(lane_tile=12)).schedule(
        pattern, heads=12, head_dim=64
    )
    rng = np.random.default_rng(3)
    q, k, v = (rng.standard_normal((1024, 768)) for _ in range(3))
    tiled, untiled = FunctionalEngine(tiled_plan), FunctionalEngine(untiled_plan)
    ref = untiled.run(q, k, v)  # warm both; tiling must not move a bit
    res = tiled.run(q, k, v)
    assert np.array_equal(res.output, ref.output)

    benchmark.pedantic(lambda: tiled.run(q, k, v), rounds=2, iterations=1)
    _assert_tiled_beats_untiled(tiled, untiled, q, k, v)


def test_functional_engine_window_memory_bound(benchmark):
    """Large windowed layer whose per-lane working set dwarfs the cache.

    2048 tokens x 256-wide window x 8 heads of 64: the K/V slabs and
    band rectangles for one lane already exceed the L2 budget, so this
    is the bench where lane tiling pays — the untiled layout streams
    8x the working set through cache per job.  Gated tiled <= untiled.
    """
    pattern = longformer_pattern(2048, 256, ())
    tiled_plan = DataScheduler(HardwareConfig()).schedule(
        pattern, heads=8, head_dim=64
    )
    untiled_plan = DataScheduler(HardwareConfig(lane_tile=8)).schedule(
        pattern, heads=8, head_dim=64
    )
    rng = np.random.default_rng(4)
    q, k, v = (rng.standard_normal((2048, 512)) for _ in range(3))
    tiled, untiled = FunctionalEngine(tiled_plan), FunctionalEngine(untiled_plan)
    ref = untiled.run(q, k, v)
    res = tiled.run(q, k, v)
    assert np.array_equal(res.output, ref.output)

    benchmark.pedantic(lambda: tiled.run(q, k, v), rounds=2, iterations=1)
    _assert_tiled_beats_untiled(tiled, untiled, q, k, v)


def test_runtime_dispatch_overhead(benchmark):
    """The ``repro.api.Runtime`` facade vs direct ``SALO.attend``.

    Both sides drive the *same* warm SALO instance (shared plan cache),
    so the measured difference is purely the facade: capability checks
    plus one ``AttendResult`` construction.  The committed contract is
    <5% overhead on a serving-scale cache-hit attend; interleaved
    min-of-9 keeps a noisy host from flipping the comparison.
    """
    from repro.api import Runtime

    runtime = Runtime()
    salo = runtime.backend.salo
    pattern = HybridSparsePattern(4096, [Band(-192, 192, 64)], ())
    rng = np.random.default_rng(9)
    q, k, v = (rng.standard_normal((4096, 8)) for _ in range(3))
    salo.attend(pattern, q, k, v)  # warm the shared plan cache

    res = benchmark.pedantic(lambda: runtime.attend(pattern, q, k, v), rounds=5, iterations=1)
    assert res.output.shape == (4096, 8)
    assert res.backend == "functional"

    # Up to 3 measurement attempts: the facade's true overhead is
    # microseconds against a multi-ms attend, so a miss only means the
    # host stalled one side's samples — remeasure rather than flake.
    for attempt in range(3):
        direct_s = facade_s = float("inf")
        for _ in range(9):
            t0 = time.perf_counter()
            salo.attend(pattern, q, k, v)
            direct_s = min(direct_s, time.perf_counter() - t0)
            t0 = time.perf_counter()
            runtime.attend(pattern, q, k, v)
            facade_s = min(facade_s, time.perf_counter() - t0)
        if facade_s < direct_s * 1.05:
            break
    assert facade_s < direct_s * 1.05, (
        f"Runtime facade adds {facade_s / direct_s - 1:.1%} over direct "
        f"SALO.attend (contract: <5%)"
    )


def test_attend_cache_hit(benchmark):
    """Serving fast path: repeated attend() on a cached compiled plan."""
    salo = SALO()
    pattern = HybridSparsePattern(4096, [Band(-192, 192, 64)], ())
    rng = np.random.default_rng(4)
    q, k, v = (rng.standard_normal((4096, 8)) for _ in range(3))
    salo.attend(pattern, q, k, v)  # populate the cache
    res = benchmark.pedantic(lambda: salo.attend(pattern, q, k, v), rounds=5, iterations=1)
    assert salo.plan_cache_hits >= 5
    assert res.output.shape == (4096, 8)


def test_attend_global_merge_chain(benchmark):
    """Serving-path global-row merge chain (1 head x 1 global token).

    This shape takes the scalar fast path for the inherently sequential
    partial-softmax chain (the ROADMAP's named serving bottleneck); the
    small head_dim keeps the chain, not the einsums, dominant.
    """
    salo = SALO()
    pattern = longformer_pattern(1024, 32, (0,))
    rng = np.random.default_rng(6)
    q, k, v = (rng.standard_normal((1024, 8)) for _ in range(3))
    salo.attend(pattern, q, k, v)  # populate the cache
    res = benchmark.pedantic(lambda: salo.attend(pattern, q, k, v), rounds=5, iterations=1)
    assert res.output.shape == (1024, 8)


_BATCH8_PATTERN = HybridSparsePattern(192, [Band(-48, 48, 24)], (0,))


def _batch8_data():
    rng = np.random.default_rng(5)
    return tuple(rng.standard_normal((8, 192, 16)) for _ in range(3))


def test_attend_sequential_8(benchmark):
    """Baseline for the batching win: 8 same-pattern attend() calls."""
    salo = SALO()
    q, k, v = _batch8_data()
    salo.attend(_BATCH8_PATTERN, q[0], k[0], v[0])  # warm the plan cache

    def run():
        for b in range(8):
            salo.attend(_BATCH8_PATTERN, q[b], k[b], v[b])

    benchmark.pedantic(run, rounds=5, iterations=1)
    assert salo.plan_cache_hits >= 8


def test_attend_batch_8(benchmark):
    """One batched attend() over the same 8 sequences (>= 2x the
    sequential baseline above: scheduling, cache lookups and per-job
    dispatch amortise across the batch's lanes)."""
    salo = SALO()
    q, k, v = _batch8_data()
    salo.attend(_BATCH8_PATTERN, q, k, v)  # warm the plan cache
    res = benchmark.pedantic(lambda: salo.attend(_BATCH8_PATTERN, q, k, v), rounds=5, iterations=1)
    assert res.output.shape == (8, 192, 16)


def test_serving_session_trace(benchmark):
    """Serving layer end to end: bucketed batching over a mixed trace."""
    spec = TraceSpec(num_requests=32, n=256, window=32, heads=2, head_dim=8, seed=7)
    requests = synthetic_trace(spec)
    salo = SALO()
    # Steady state: one full attend per family pays scheduling, plan
    # compilation, engine construction, buffer checks and cost models
    # outside the timed region.
    for req in requests:
        salo.attend(req.pattern, req.q, req.k, req.v, heads=req.heads)

    def serve():
        session = ServingSession(salo=salo, max_batch_size=8)
        for req in requests:
            session.submit(req.pattern, req.q, req.k, req.v, heads=req.heads)
        session.drain()
        return session

    session = benchmark.pedantic(serve, rounds=3, iterations=1)
    assert len(session.results) == 32
    assert session.stats().mean_batch_size > 1.0


def test_serving_padded_batch_8(benchmark):
    """Cross-length batch via pad_to_bucket: 8 mixed-length sequences
    execute as one bucket-length dispatch with masked tails (the
    occupancy win under long-tail length distributions)."""
    salo = SALO()
    session_lengths = (192, 160, 144, 192, 176, 130, 150, 192)  # one 256-bucket
    rng = np.random.default_rng(8)
    payloads = []
    for n in session_lengths:
        pattern = HybridSparsePattern(n, [Band(-48, 48, 24)], (0,))
        q, k, v = (rng.standard_normal((n, 16)) for _ in range(3))
        payloads.append((pattern, q, k, v))
    # Warm: one padded dispatch pays scheduling/compile outside the timer.
    def serve():
        session = ServingSession(salo=salo, max_batch_size=8, pad_to_bucket=True)
        for i, (pattern, q, k, v) in enumerate(payloads):
            session.submit(pattern, q, k, v, request_id=i)
        session.drain()
        return session

    serve()
    session = benchmark.pedantic(serve, rounds=5, iterations=1)
    assert session.batches_executed == 1  # all 8 lengths rode one batch
    assert session.stats().mean_batch_size == 8.0


def _capacity_workload(num_requests=200, seed=7):
    spec = WorkloadSpec(
        num_requests=num_requests, n=256, window=32, heads=2, head_dim=8, seed=seed
    )
    return spec, 4.0e5  # offered rate (req/s): congests 2 workers


def test_cluster_simulate_fifo(benchmark):
    """Discrete-event simulator throughput: 200 Poisson requests on a
    2-worker pool under greedy FIFO (deterministic cost-model clock)."""
    spec, rate = _capacity_workload()

    def run():
        source = open_loop(spec, PoissonProcess(rate_rps=rate))
        return simulate(source, SimConfig(workers=2, policy=make_policy("greedy-fifo")))

    report = benchmark.pedantic(run, rounds=3, iterations=1)
    assert report.completed == spec.num_requests


def test_cluster_simulate_edf(benchmark):
    """Same workload under EDF: the policy comparison the simulator
    exists for — EDF must not lose to FIFO on deadline-met rate."""
    spec, rate = _capacity_workload()

    def run_policy(name):
        source = open_loop(spec, PoissonProcess(rate_rps=rate))
        return simulate(source, SimConfig(workers=2, policy=make_policy(name)))

    report = benchmark.pedantic(lambda: run_policy("edf"), rounds=3, iterations=1)
    assert report.completed == spec.num_requests
    fifo = run_policy("greedy-fifo")
    assert report.deadline_met_rate >= fifo.deadline_met_rate, (
        f"EDF deadline-met rate {report.deadline_met_rate:.2%} fell below "
        f"greedy FIFO {fifo.deadline_met_rate:.2%}"
    )


def test_cluster_simulate_overload_shed(benchmark):
    """Overload-control path at rho 1.5: EDF + drop_expired + est-wait
    admission over the committed overload workload — and the committed
    claim that shedding beats serving doomed work on goodput."""
    from repro.cluster import CostModelClock, service_scales

    # Pinned flat clock: the overload dynamic needs deadlines of the same
    # order as the queueing delay.  The bench-calibrated default charges a
    # per-batch dispatch overhead that dominates these tiny per-request
    # latencies, inflating the deadline scale until nothing is ever
    # doomed and shedding has nothing to win — a timescale artefact of
    # the probe workload, not an overload-control regression.
    spec_probe = WorkloadSpec(n=256, window=32, heads=2, head_dim=8)
    unit_s, dispatch_s = service_scales(spec_probe, CostModelClock.flat())
    spec = overload_spec(200, dispatch_s)
    rate = 1.5 * 2 / unit_s

    def run_mode(mode):
        source = open_loop(spec, PoissonProcess(rate_rps=rate))
        return simulate(
            source, mode_config(mode, workers=2, clock=CostModelClock.flat())
        )

    report = benchmark.pedantic(lambda: run_mode("admit+shed"), rounds=3, iterations=1)
    assert report.submitted == report.completed + report.rejected + report.shed
    no_control = run_mode("no-control")
    assert report.goodput_rps > no_control.goodput_rps, (
        f"shedding+admission goodput {report.goodput_rps:.0f} rps fell below "
        f"no-control {no_control.goodput_rps:.0f} rps under overload"
    )


def test_cluster_simulate_crash_recovery(benchmark):
    """Fault-tolerance path end to end: a mid-run worker crash with
    heartbeat detection, requeue + stealing recovery, and a rejoin with
    a cold plan cache — the full event-loop overhead of the fault
    machinery (probes, epoch checks, recovery sweeps) on top of the
    plain simulation the ``cluster_simulate`` pair tracks."""
    from repro.cluster import CostModelClock, service_scales
    from repro.experiments.faults import faults_spec
    from repro.experiments.faults import mode_config as faults_mode_config

    clock = CostModelClock()
    spec_probe = WorkloadSpec(n=256, window=32, heads=2, head_dim=8)
    unit_s, dispatch_s = service_scales(spec_probe, clock)
    num_requests = 400
    rate = 0.8 * 2 / unit_s
    spec = faults_spec(num_requests, dispatch_s)
    crash_at_s = 0.4 * num_requests / rate
    down_for_s = 30.0 * unit_s

    def run():
        source = open_loop(spec, PoissonProcess(rate_rps=rate))
        return simulate(
            source,
            faults_mode_config(
                "retry+steal", 2, CostModelClock(), crash_at_s, down_for_s, unit_s
            ),
        )

    report = benchmark.pedantic(run, rounds=3, iterations=1)
    assert report.submitted == (
        report.completed + report.rejected + report.shed + report.failed
    )
    assert report.failed == 0  # recovery re-routed every orphan
    assert report.requeues > 0 and report.availability < 1.0


def test_decode_step_warm(benchmark):
    """Steady-state decode: one ``DecodeSession.step()`` past the tail.

    The decode hot path's contract is that a step attends only its step
    window — the last rows of the history at the small step bucket — and
    that every such step is a plan-cache *hit*, at any length.  The
    bench times warm steps 140+ tokens into a window-32 sequence and
    the cache counters assert they ran at the step bucket with zero
    compiles anywhere while the timer ran (the acceptance criterion for
    the decode subsystem).
    """
    from repro.decode import DecodeSession, step_window
    from repro.patterns.window import SlidingWindowPattern

    salo = SALO()
    pattern = SlidingWindowPattern.causal(256, 32)
    session = DecodeSession(pattern, salo=salo, heads=2)
    rng = np.random.default_rng(10)
    hidden = 16
    q, k, v = (rng.standard_normal((140, hidden)) for _ in range(3))
    session.prefill(q, k, v)  # KV bucket 256; lengths 140..200 stay inside it
    _, step_bucket = step_window(pattern.bands(), (), session.length + 1)
    assert step_bucket < session.bucket

    def rows():
        return (rng.standard_normal(hidden) for _ in range(3))

    session.step(*rows())  # first step may compile; pay it outside the timer
    before = salo.cache_info()
    out = benchmark.pedantic(lambda: session.step(*rows()), rounds=5, iterations=1)
    assert out.shape == (hidden,)
    after = salo.cache_info()
    assert after["misses"] == before["misses"], (
        "warm decode steps recompiled: "
        f"{after['misses'] - before['misses']} extra misses"
    )
    assert (
        after["buckets"][step_bucket]["hits"]
        - before["buckets"][step_bucket]["hits"]
        >= 5
    )


def test_decode_continuous_batch_8(benchmark):
    """Continuous batching win: 8 decode sequences sharing the lane axis.

    8 same-structure sequences each produce 12 tokens; the scheduler
    folds them into one engine dispatch per step instead of 8.  Gated
    machine-relative against the same work decoded solo on the same
    warm SALO instance (shared plan cache, so the difference is the
    batching, not compiles).
    """
    from repro.decode import DecodeRequest, DecodeScheduler, DecodeSession
    from repro.patterns.window import SlidingWindowPattern

    pattern = SlidingWindowPattern.causal(64, 8)
    rng = np.random.default_rng(11)
    hidden = 16

    def requests():
        return [
            DecodeRequest(
                request_id=f"seq-{i}",
                pattern=pattern,
                prompt_q=rng_i.standard_normal((24 + 4 * i, hidden)),
                prompt_k=rng_i.standard_normal((24 + 4 * i, hidden)),
                prompt_v=rng_i.standard_normal((24 + 4 * i, hidden)),
                max_new_tokens=12,
                heads=2,
                seed=11,
            )
            for i, rng_i in (
                (j, np.random.default_rng((11, j))) for j in range(8)
            )
        ]

    salo = SALO()

    def batched():
        sched = DecodeScheduler(salo=salo, max_lanes=8)
        for r in requests():
            sched.submit(r)
        return sched.run()

    def solo():
        for r in requests():
            session = DecodeSession(r.pattern, salo=salo, heads=r.heads)
            out = session.prefill(r.prompt_q, r.prompt_k, r.prompt_v)
            cur = out[-1]
            rng_r = r.rng()
            from repro.decode import default_next_token

            for _ in range(r.max_new_tokens - 1):
                cur = session.step(*default_next_token(cur, rng_r))

    batched()  # warm every plan the comparison touches
    result = benchmark.pedantic(batched, rounds=3, iterations=1)
    assert set(result.outputs) == {f"seq-{i}" for i in range(8)}
    assert result.mean_occupancy > 4.0  # lanes genuinely shared
    # 8 sequences x 12 tokens in far fewer dispatches than solo's 8/step
    assert result.dispatches < result.tokens / 4

    for attempt in range(3):
        batched_s = solo_s = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            batched()
            batched_s = min(batched_s, time.perf_counter() - t0)
            t0 = time.perf_counter()
            solo()
            solo_s = min(solo_s, time.perf_counter() - t0)
        if batched_s < solo_s:
            break
    assert batched_s < solo_s, (
        f"continuous batching regressed: batched {batched_s * 1e3:.1f} ms > "
        f"solo {solo_s * 1e3:.1f} ms for identical work"
    )


def _transport_report(driver, workers, num_requests=24):
    """One full transport-cluster run; ``makespan_s`` on the returned
    report is the serving wall-time alone (worker fork + plan warm-up
    happen in cluster construction, before the run's clock starts)."""
    from repro.experiments.transport_multicore import run_row

    return run_row(driver, workers, num_requests)


def test_transport_inprocess_single(benchmark):
    """Measured serving baseline: the in-process transport driver on the
    transport_multicore workload — the single-process number every
    multi-core claim is relative to."""
    report = benchmark.pedantic(
        lambda: _transport_report("inprocess", 1), rounds=3, iterations=1
    )
    assert report.completed == report.submitted == 24
    assert report.failed == 0


def test_transport_multiprocess_4workers(benchmark):
    """Measured multi-core throughput: 4 worker processes over shared
    memory.  The first *measured* (not modelled) cluster numbers in the
    repo.  The multi-worker > single-process claim is hardware-relative,
    so it is only asserted when >= 4 cores are actually available; on
    smaller hosts the bench still snapshots the measured timings (they
    quantify IPC overhead, which is worth tracking too)."""
    report = benchmark.pedantic(
        lambda: _transport_report("multiprocess", 4), rounds=2, iterations=1
    )
    assert report.submitted == (
        report.completed + report.rejected + report.shed + report.failed
    )
    assert report.completed == 24

    if len(os.sched_getaffinity(0)) >= 4:
        multi_s = min(_transport_report("multiprocess", 4).makespan_s for _ in range(3))
        single_s = min(_transport_report("inprocess", 1).makespan_s for _ in range(3))
        assert multi_s < single_s, (
            f"4 worker processes served no faster than one process on a "
            f">=4-core host: {multi_s * 1e3:.1f} ms vs {single_s * 1e3:.1f} ms"
        )


def test_micro_simulator_small(benchmark):
    """Cycle-accurate simulation of a small pass sequence."""
    config = HardwareConfig(pe_rows=8, pe_cols=8)
    plan = DataScheduler(config).schedule(longformer_pattern(32, 8, (0,)), heads=1, head_dim=8)
    rng = np.random.default_rng(1)
    q, k, v = (rng.standard_normal((32, 8)) for _ in range(3))
    sim = SystolicSimulator(plan)
    res = benchmark.pedantic(lambda: sim.run(q, k, v), rounds=2, iterations=1)
    assert res.cycles == plan_timing(plan).cycles


def test_attend_end_to_end_vil(benchmark):
    """Full attend() on a reduced ViL grid with the quantised datapath."""
    salo = SALO()
    pattern = vil_pattern(12, 12, 5, (0,))
    rng = np.random.default_rng(2)
    q, k, v = (rng.standard_normal((144, 64)) for _ in range(3))
    res = benchmark.pedantic(lambda: salo.attend(pattern, q, k, v, heads=1), rounds=2, iterations=1)
    assert res.output.shape == (144, 64)


def test_advisor_search_small(benchmark):
    """The advisor pipeline end to end on a reduced search space:
    enumerate candidates, scan the load grid, rank, ablate the winner.
    Tracks the cost of a provisioning decision — dozens of cost-model
    simulations — not any single engine path."""
    from repro.advisor import SearchSpace, TrafficSpec, advise

    traffic = TrafficSpec(num_requests=60, rho=1.2)
    space = SearchSpace(workers=(2, 4), policies=("greedy-fifo", "edf"))
    advice = benchmark.pedantic(
        lambda: advise(traffic, space, ablate_top=1), rounds=2, iterations=1
    )
    assert advice.winner.feasible
    assert advice.winner.candidate.workers == 4
    assert advice.ablation_of(advice.winner), "winner ablation matrix empty"
