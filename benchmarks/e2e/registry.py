"""Names, units, clocks and bounds of everything the benchmark reports.

This module is the single source the rest of the harness reads:
``run.py`` refuses to print a result whose metric names differ from the
lists here, ``test_harness.py`` holds ``BENCHMARK.json`` to them, and
``compare.py`` takes its bounds from ``BENCHMARK.json``.  Adding a
metric or a workload means adding a row here and the matching row in
``BENCHMARK.json``; renaming an existing row breaks every stored result
set, so old names stay.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

__all__ = [
    "RUN_SECONDS",
    "WORKLOADS",
    "END_TO_END",
    "PER_LAYER",
    "Metric",
    "benchmark_json",
]


#: Measured seconds a run is sized for (BENCHMARK.json's ``run_seconds``).
RUN_SECONDS = 8


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    clock: str  # what the number was taken on (documentation, not contract)
    bound: float = 0.0  # end-to-end only: relative worsening that is a regression


#: name -> one-line reason the workload exists (BENCHMARK.json's ``why``).
WORKLOADS: Dict[str, str] = {
    "prefill_paper": (
        "warm Runtime.attend sweeps over the paper's Table-2 layers; the accelerator "
        "engine does >95% of the work, serving/transport/cluster none"
    ),
    "cold_churn": (
        "every op is the first attend of a never-seen structure: plan-cache writes, "
        "schedule, compile, engine build, first run; the warm engine path does little"
    ),
    "serve_burst": (
        "bursts of 16 requests through TransportCluster on one real worker process: "
        "group/stack, shm pack, queue hop, worker attend, copy-out, control loop"
    ),
    "decode_stream": (
        "8 closed-loop clients on a DecodeScheduler: many short dispatches, valid_lens "
        "masking, bucket crossings, KV stacking; per-token latency"
    ),
    "cluster_sim": (
        "three simulate() scenarios on the flat cost-model clock, no engine execution: "
        "host time per simulated request with exactly repeating simulated statistics"
    ),
}


#: Metrics every workload prints with ``--trace 0``.  All are wall or
#: resource clocks of the benchmark process; none can read 0.  A ``*``
#: marks clocks divided by the weather index (``harness.Weather``);
#: cold_churn reads its ops on the user-CPU clock instead of the wall.
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", "wall*, median of 3 fresh processes", 0.25),
    Metric("tokens_per_s", "tokens/s", "higher", "wall*, work / median round", 0.25),
    Metric("latency_p50_ms", "ms", "lower", "wall*, headline op, pooled rounds", 0.25),
    Metric("latency_tail_ms", "ms", "lower", "wall*, highest supported percentile", 0.25),
    Metric("user_cpu_ms_per_ktoken", "ms", "lower", "ru_utime* of the process, median round", 0.25),
    Metric("peak_rss_mb", "MB", "lower", "ru_maxrss, self + largest child", 0.15),
]


#: Metrics every workload prints with ``--trace 1``.  A layer a workload
#: does not exercise reads 0 there.
PER_LAYER: List[Metric] = [
    # patterns
    Metric("patterns.build_ms", "ms", "lower", "wall"),
    Metric("patterns.structure_key_us", "us", "lower", "wall"),
    # scheduler
    Metric("scheduler.schedule_user_ms", "ms", "lower", "user CPU"),
    Metric("scheduler.compile_user_ms", "ms", "lower", "user CPU"),
    Metric("scheduler.passes", "count", "lower", "exact"),
    # accelerator
    Metric("accelerator.engine_build_user_ms", "ms", "lower", "user CPU"),
    Metric("accelerator.first_run_user_ms", "ms", "lower", "user CPU"),
    Metric("accelerator.first_run_sys_ms", "ms", "lower", "system CPU"),
    Metric("accelerator.first_run_minor_faults", "count", "lower", "ru_minflt"),
    Metric("accelerator.run_longformer_ms", "ms", "lower", "wall"),
    Metric("accelerator.run_vil1_ms", "ms", "lower", "wall"),
    Metric("accelerator.run_vil2_ms", "ms", "lower", "wall"),
    Metric("accelerator.run_batch8_ms", "ms", "lower", "wall"),
    Metric("accelerator.run_decode_lanes8_ms", "ms", "lower", "wall"),
    Metric("accelerator.warm_alloc_kb", "kB", "lower", "tracemalloc peak"),
    Metric("accelerator.model_cycles", "cycles", "lower", "simulated accelerator"),
    Metric("accelerator.model_utilization", "ratio", "higher", "simulated accelerator"),
    Metric("accelerator.model_latency_ms", "sim_ms", "lower", "simulated accelerator"),
    Metric("accelerator.model_energy_mj", "mJ", "lower", "simulated accelerator"),
    Metric("accelerator.estimate_us", "us", "lower", "wall"),
    Metric("accelerator.ref_max_abs_err", "abs", "lower", "exact"),
    # core
    Metric("core.attend_hit_overhead_us", "us", "lower", "wall, interleaved min-of-k"),
    Metric("core.cold_attend_wall_ms", "ms", "lower", "wall"),
    Metric("core.cold_attend_user_ms", "ms", "lower", "user CPU"),
    Metric("core.plan_cache_hits", "count", "higher", "exact"),
    Metric("core.plan_cache_misses", "count", "lower", "exact"),
    Metric("core.plan_cache_hit_share", "ratio", "higher", "exact"),
    # api
    Metric("api.facade_overhead_us", "us", "lower", "wall, interleaved min-of-k"),
    Metric("api.estimate_us", "us", "lower", "wall"),
    # serving
    Metric("serving.enqueue_us", "us", "lower", "wall"),
    Metric("serving.next_batch_us", "us", "lower", "wall"),
    Metric("serving.stack_ms", "ms", "lower", "wall"),
    Metric("serving.execute_batch_ms", "ms", "lower", "wall"),
    Metric("serving.session_burst_ms", "ms", "lower", "wall"),
    Metric("serving.mean_batch_size", "count", "higher", "exact"),
    # transport
    Metric("transport.spawn_s", "s", "lower", "wall"),
    Metric("transport.pack_ms", "ms", "lower", "wall"),
    Metric("transport.read_output_ms", "ms", "lower", "wall"),
    Metric("transport.destroy_ms", "ms", "lower", "wall"),
    Metric("transport.probe_rtt_ms", "ms", "lower", "wall"),
    Metric("transport.submit_to_completion_ms", "ms", "lower", "wall"),
    Metric("transport.wire_overhead_ms", "ms", "lower", "wall"),
    Metric("transport.burst_inprocess_ms", "ms", "lower", "wall"),
    Metric("transport.batches", "count", "lower", "exact"),
    Metric("transport.retries", "count", "lower", "exact"),
    Metric("transport.requeues", "count", "lower", "exact"),
    # decode
    Metric("decode.ttft_p50_ms", "ms", "lower", "wall, untraced pass"),
    Metric("decode.prefill_ms", "ms", "lower", "wall"),
    Metric("decode.step_warm_ms", "ms", "lower", "wall"),
    Metric("decode.step_cross_warm_ms", "ms", "lower", "wall"),
    Metric("decode.step_cross_cold_user_ms", "ms", "lower", "user CPU"),
    Metric("decode.sched_overhead_ms", "ms", "lower", "wall, interleaved min-of-k"),
    Metric("decode.mean_occupancy", "lanes", "higher", "exact"),
    Metric("decode.dispatches_per_token", "ratio", "lower", "exact"),
    Metric("decode.bucket_crossings", "count", "lower", "exact"),
    Metric("decode.attended_rows_per_token", "rows", "lower", "exact"),
    # cluster
    Metric("cluster.source_build_ms", "ms", "lower", "wall"),
    Metric("cluster.simulate_steady_ms", "ms", "lower", "wall"),
    Metric("cluster.simulate_overload_ms", "ms", "lower", "wall"),
    Metric("cluster.simulate_faults_ms", "ms", "lower", "wall"),
    Metric("cluster.host_us_per_request", "us", "lower", "wall"),
    Metric("cluster.sim_goodput_rps", "req/sim_s", "higher", "simulated flat clock"),
    Metric("cluster.sim_deadline_met_share", "ratio", "higher", "simulated"),
    Metric("cluster.sim_completed", "count", "higher", "simulated"),
    Metric("cluster.sim_rejected", "count", "lower", "simulated"),
    Metric("cluster.sim_shed", "count", "lower", "simulated"),
    Metric("cluster.sim_failed", "count", "lower", "simulated"),
    Metric("cluster.sim_retries", "count", "lower", "simulated"),
    Metric("cluster.sim_requeues", "count", "lower", "simulated"),
    Metric("cluster.sim_cold_compiles", "count", "lower", "simulated"),
    Metric("cluster.sim_p99_ms", "sim_ms", "lower", "simulated"),
    Metric("cluster.sim_mean_batch_size", "count", "higher", "simulated"),
    Metric("cluster.sim_utilization", "ratio", "higher", "simulated"),
    # advisor
    Metric("advisor.advise_ms", "ms", "lower", "wall"),
    Metric("advisor.evaluations", "count", "lower", "exact"),
    Metric("advisor.ms_per_evaluation", "ms", "lower", "wall"),
    # harness
    Metric("harness.setup_user_s", "s", "lower", "user CPU"),
    Metric("harness.setup_sys_s", "s", "lower", "system CPU"),
    Metric("harness.setup_minor_faults", "count", "lower", "ru_minflt"),
    Metric("harness.failed_share", "ratio", "lower", "exact"),
    Metric("harness.weather_index", "ratio", "lower", "calibration kernel / reference"),
    Metric("harness.trace_overhead_share", "ratio", "lower", "wall, traced vs untraced pass"),
    Metric("harness.decomposition_residual_share", "ratio", "lower", "wall or user CPU"),
]


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` this registry corresponds to."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
