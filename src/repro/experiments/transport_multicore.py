"""Measured multi-core throughput of the out-of-process worker transport.

Every other cluster number in this repo is *modelled* — the
discrete-event simulator charges service from a cost model and never
leaves one process.  This experiment is the measured counterpart: the
same workload runs wall-clock through :class:`~repro.transport.cluster.
TransportCluster` under each driver, so the rows are real seconds on
real cores:

* ``inprocess x1`` — today's single-process behaviour (the baseline all
  speedups are against);
* ``multiprocess xN`` for N on a small worker ladder — each worker is a
  forked process owning a warm :class:`~repro.api.Runtime`, operands
  ship via ``multiprocessing.shared_memory``;
* ``multiprocess x2 + kill`` — a chaos row: worker 1 is ``SIGKILL``'d
  mid-run and the heartbeat/requeue machinery recovers its orphans.
  The event checker's laws (:func:`repro.cluster.events.check`,
  conservation among them) must hold on every row, *including* this
  one: a row that breaks one raises.
* ``inprocess x2 edf+shed`` — an overload-control row: the transports
  run the simulator's own control plane, so EDF with ``drop_expired``
  is served by real workers; half the trace carries a deadline no
  worker can meet and must come back ``shed``, not served late.

Scaling expectations are hardware-relative: on a single-core container
the multiprocess drivers measure IPC overhead, not speedup, so
"multi-worker beats single-process" is only to be expected when
``len(os.sched_getaffinity(0)) >= 4``.  The rows always report the
measured numbers either way — that is the point.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

from ..cluster import EDFPolicy, RecoveryConfig
from ..cluster.events import check
from ..serving import TraceSpec, synthetic_trace
from ..serving.trace import pattern_families
from ..transport import TransportCluster, TransportClusterConfig
from .base import ExperimentResult, register

#: Worker-count ladder for the multiprocess driver.
LADDER: Tuple[int, ...] = (1, 2, 4)

#: Fraction of the workload completed before the chaos row's SIGKILL.
KILL_AFTER_FRAC = 0.25

#: Latency budget of the doomed half of the edf+shed row's trace: less
#: than admitting one request costs, so it has expired before the first
#: policy consultation of the burst it arrived in.
DOOMED_DEADLINE_S = 1e-6


def transport_trace(num_requests: int, seed: int = 13) -> list:
    """The workload every row serves: one pattern family (so worker
    warm-up is a single pre-compile), compute-heavy enough per batch
    that shared-memory shipping is amortised."""
    return synthetic_trace(transport_trace_spec(num_requests, seed))


def transport_trace_spec(num_requests: int, seed: int = 13) -> TraceSpec:
    return TraceSpec(
        num_requests=num_requests,
        n=512,
        window=64,
        heads=4,
        head_dim=16,
        mixed=False,
        seed=seed,
    )


def transport_config(
    driver: str, workers: int, num_requests: int, seed: int = 13, shed: bool = False
) -> TransportClusterConfig:
    """One row's cluster config; multiprocess workers pre-warm the
    trace's single pattern family (at the trace's own head_dim — plans
    are keyed on it) so compiles stay out of the timings.  ``shed`` sets
    the edf+shed row's policy and shedding."""
    spec = transport_trace_spec(num_requests, seed)
    warm = tuple((p, spec.heads, spec.head_dim) for p in pattern_families(spec))
    return TransportClusterConfig(
        workers=workers,
        driver=driver,
        max_batch_size=8,
        recovery=RecoveryConfig(heartbeat_interval_s=0.02, heartbeat_timeout_s=2.0),
        warm=warm if driver == "multiprocess" else (),
        **({"policy": EDFPolicy(), "drop_expired": True} if shed else {}),
    )


def run_row(
    driver: str,
    workers: int,
    num_requests: int,
    seed: int = 13,
    kill_worker: Optional[int] = None,
    shed: bool = False,
):
    """Serve the trace through one cluster configuration; return the report
    once the run's events kept the plane's laws."""
    requests = transport_trace(num_requests, seed)
    if shed:
        for request in requests[1::2]:
            request.deadline_s = DOOMED_DEADLINE_S
    config = transport_config(driver, workers, num_requests, seed, shed=shed)
    tick = None
    if kill_worker is not None:
        fired = {"done": False}

        def tick(cluster: TransportCluster, now: float) -> None:
            done = len(cluster.metrics.records)
            if not fired["done"] and done >= KILL_AFTER_FRAC * num_requests:
                cluster.kill_worker(kill_worker)
                fired["done"] = True

    events: list = []
    with TransportCluster(config) as cluster:
        cluster.listen(events.append)
        report = cluster.run(requests, tick=tick)
    if broken := check(events, config.drop_expired):
        raise RuntimeError(f"{driver} x{workers} broke the plane's laws: {broken}")
    return report


@register("transport_multicore")
def run(fast: bool = False, backend: str = "functional") -> ExperimentResult:
    num_requests = 24 if fast else 48
    cores = len(os.sched_getaffinity(0))
    configs: List[Tuple[str, int, Optional[int], bool]] = [("inprocess", 1, None, False)]
    configs += [("multiprocess", w, None, False) for w in LADDER]
    configs.append(("multiprocess", 2, 1, False))  # chaos row: SIGKILL worker 1
    configs.append(("inprocess", 2, None, True))  # overload row: EDF + drop_expired

    rows: List[dict] = []
    baseline_rps: Optional[float] = None
    for driver, workers, kill, shed in configs:
        report = run_row(driver, workers, num_requests, kill_worker=kill, shed=shed)
        if baseline_rps is None:
            baseline_rps = report.throughput_rps
        rows.append(
            {
                "driver": driver
                + (" +kill" if kill is not None else "")
                + (" edf+shed" if shed else ""),
                "workers": workers,
                "submitted": report.submitted,
                "completed": report.completed,
                "shed": report.shed,
                "failed": report.failed,
                "requeues": report.requeues,
                "crashes": sum(w.crashes for w in report.workers),
                "wall_ms": round(report.makespan_s * 1e3, 2),
                "throughput_rps": round(report.throughput_rps, 1),
                "speedup": round(report.throughput_rps / baseline_rps, 3),
            }
        )

    notes = [
        f"{cores} core(s) visible to this process; wall-clock (measured), "
        "not the simulator's cost model",
        "the event checker's laws (conservation, one terminal outcome per "
        "request, ...) held on every row, including the SIGKILL chaos row",
        "multi-worker > single-process is only expected with >= 4 cores; "
        "on fewer cores the multiprocess rows measure IPC overhead",
    ]
    kill_row, shed_row = rows[-2], rows[-1]
    notes.append(
        f"edf+shed row: {shed_row['shed']} of {shed_row['submitted']} requests "
        f"shed by the shared control plane on real transports (deadline "
        f"{DOOMED_DEADLINE_S * 1e6:g} us)"
    )
    notes.append(
        f"chaos row: worker 1 SIGKILL'd after ~{KILL_AFTER_FRAC:.0%} of the "
        f"trace; {kill_row['requeues']} orphan(s) requeued, "
        f"failed {kill_row['failed']} of {kill_row['submitted']}"
    )
    return ExperimentResult(
        experiment="transport_multicore",
        title="Out-of-process transport: measured multi-core throughput + chaos",
        rows=rows,
        notes=notes,
        config={
            "fast": fast,
            "backend": backend,
            "num_requests": num_requests,
            "ladder": list(LADDER),
        },
    )
