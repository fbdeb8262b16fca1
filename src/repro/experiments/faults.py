"""Chaos sweep: crash-at-peak x recovery mode at fixed load (rho 0.8).

The fault-tolerance question the cluster layer now answers: *when a
worker dies mid-run, how much goodput does each recovery mechanism buy
back?*  One of two workers crashes at the traffic peak (mid-run, almost
certainly mid-batch) and rejoins later with a cold plan cache; four
modes see byte-identical traffic (same workload seed, same arrival
process) and differ only in what the cluster does about the crash:

* ``no-fault`` — the same configuration with no injector at all: the
  goodput ceiling every recovery mode is measured against.
* ``no-retry`` — crash with recovery disabled (no requeue, no work
  stealing): the crashed worker's lost in-flight batch and stranded
  queue land in the terminal ``failed`` bucket.  The conservation law
  still holds — nothing is *silently* lost — but everything the worker
  held is gone.
* ``retry`` — heartbeat detection plus requeue: the down worker's
  orphans re-route (oldest deadline first) onto the survivor; still no
  stealing.
* ``retry+steal`` — requeue plus work stealing, the full recovery
  stack: the survivor also steals the backlog the down worker accrued
  between crash and detection, and the rejoined worker wins work back
  afterwards.

Committed expectations (asserted at the fixed seed in
``tests/experiments/test_faults.py``): four-way conservation
(``submitted == completed + rejected + shed + failed``) on every row
with zero requests silently lost; ``retry+steal`` goodput recovers at
least ``RECOVERY_GOODPUT_FLOOR`` (90%) of the no-fault baseline at
rho 0.8; ``no-retry`` genuinely strands work (``failed > 0``) while both
recovery modes fail nothing and complete strictly more requests;
availability dips below 1.0 exactly in the crash modes.

(Goodput — completions per second of makespan — is deliberately *not*
the axis that separates ``no-retry`` from the recovery modes: dropping
the stranded queue also shortens the work, so at rho 0.8 the goodput
gap is small.  What recovery buys is the zero-``failed`` guarantee.)
"""

from __future__ import annotations

from typing import List, Tuple

from ..cluster import (
    CostModelClock,
    CrashSpec,
    EDFPolicy,
    FaultInjector,
    PoissonProcess,
    RecoveryConfig,
    SimConfig,
    WorkloadSpec,
    open_loop,
    service_scales,
    simulate,
)
from .base import ExperimentResult, register
from .overload import overload_spec

#: Offered load of the sweep: comfortably under capacity, so lost
#: goodput is attributable to the crash, not to overload.
RHO = 0.8

#: The committed claim: retry+steal recovers at least this fraction of
#: the fault-free goodput despite losing a worker mid-run.
RECOVERY_GOODPUT_FLOOR = 0.9

#: Crash instant as a fraction of the nominal horizon
#: (``num_requests / rate``): the crash lands at the traffic peak, with
#: enough run left for the rejoined worker to re-warm its plan cache.
CRASH_AT_FRAC = 0.4

#: Down window in amortised service units (absolute, not a horizon
#: fraction): a replacement worker takes a fixed provisioning time, it
#: does not conveniently scale with how long the experiment runs.
DOWN_FOR_UNITS = 30.0

#: Heartbeat cadence in amortised service units.  The defaults in
#: :class:`RecoveryConfig` are sized for millisecond-scale serving; this
#: sweep's cost-model clock runs in microseconds, so probes must scale
#: with the workload or detection would outlast the whole run.
HEARTBEAT_INTERVAL_UNITS = 2.0
HEARTBEAT_TIMEOUT_UNITS = 4.0

MODES: Tuple[str, ...] = ("no-fault", "no-retry", "retry", "retry+steal")


#: The workload the sweep (and its regression test) runs: the overload
#: sweep's (60 / 400 dispatch-unit budgets, seed 11).  The run is *not*
#: overloaded, so those budgets are feasible here.
faults_spec = overload_spec


def mode_config(
    mode: str,
    workers: int,
    clock: CostModelClock,
    crash_at_s: float,
    down_for_s: float,
    unit_s: float,
    backend: str = "functional",
) -> SimConfig:
    """The (injector, recovery, steal) triple each chaos mode names."""
    if mode not in MODES:  # pragma: no cover - registry guard
        raise KeyError(f"unknown faults mode {mode!r}; known: {MODES}")
    injector = None
    steal = True
    requeue = True
    if mode != "no-fault":
        # Fresh injector per run: its RNG stream is stateful.
        injector = FaultInjector(
            [CrashSpec(worker=1, at_s=crash_at_s, down_for_s=down_for_s)], seed=7
        )
    if mode == "no-retry":
        requeue = False
        steal = False
    elif mode == "retry":
        steal = False
    recovery = RecoveryConfig(
        heartbeat_interval_s=HEARTBEAT_INTERVAL_UNITS * unit_s,
        heartbeat_timeout_s=HEARTBEAT_TIMEOUT_UNITS * unit_s,
        requeue=requeue,
    )
    return SimConfig(
        workers=workers,
        policy=EDFPolicy(drop_expired=True),
        service=clock,
        steal=steal,
        faults=injector,
        recovery=recovery,
        backend=backend,
    )


@register("faults")
def run(fast: bool = False, backend: str = "functional") -> ExperimentResult:
    workers = 2
    # Long enough that the startup cold-compile transient (~0.5 ms per
    # plan family per worker — half the steady-state work of a 600
    # request run!) amortises away and rho 0.8 is the *effective* load;
    # otherwise every mode is secretly overloaded and the crash merely
    # reshuffles an already-collapsing queue.
    num_requests = 2400 if fast else 4800
    clock = CostModelClock()
    probe = WorkloadSpec(n=256, window=32, heads=2, head_dim=8)
    unit_s, dispatch_s = service_scales(probe, clock, backend=backend)
    rate = RHO * workers / unit_s
    horizon_s = num_requests / rate
    crash_at_s = CRASH_AT_FRAC * horizon_s
    down_for_s = DOWN_FOR_UNITS * unit_s

    rows: List[dict] = []
    for mode in MODES:
        spec = faults_spec(num_requests, dispatch_s)
        source = open_loop(spec, PoissonProcess(rate_rps=rate))
        report = simulate(
            source,
            mode_config(
                mode, workers, clock, crash_at_s, down_for_s, unit_s, backend=backend
            ),
        )
        accounted = report.completed + report.rejected + report.shed + report.failed
        rows.append(
            {
                "mode": mode,
                "submitted": report.submitted,
                "completed": report.completed,
                "rejected": report.rejected,
                "shed": report.shed,
                "failed": report.failed,
                "accounted": accounted,
                "goodput_rps": round(report.goodput_rps),
                "met_rate": round(report.deadline_met_rate, 4),
                "retries": report.retries,
                "requeues": report.requeues,
                "steals": report.steals,
                "availability": round(report.availability, 4),
                "p99_ms": round(report.latency_p99_ms, 3),
            }
        )

    baseline = rows[0]["goodput_rps"]
    notes = [
        f"{workers} workers, {num_requests} requests at rho {RHO} "
        f"(amortised unit {unit_s * 1e6:.1f} us); worker 1 crashes at "
        f"{crash_at_s * 1e3:.2f} ms (~{CRASH_AT_FRAC:.0%} of the horizon) and "
        f"rejoins {down_for_s * 1e3:.2f} ms later with a cold plan cache",
        "conservation: submitted == completed + rejected + shed + failed on "
        "every row — a crash may *fail* requests but never silently loses one",
        f"recovery claim: retry+steal goodput >= {RECOVERY_GOODPUT_FLOOR:.0%} "
        "of the no-fault baseline",
    ]
    by_mode = {row["mode"]: row for row in rows}
    notes.append(
        f"goodput: no-fault {baseline} rps; no-retry "
        f"{by_mode['no-retry']['goodput_rps']} "
        f"(failed {by_mode['no-retry']['failed']}); retry "
        f"{by_mode['retry']['goodput_rps']}; retry+steal "
        f"{by_mode['retry+steal']['goodput_rps']} rps "
        f"({by_mode['retry+steal']['goodput_rps'] / baseline:.0%} recovered)"
    )
    return ExperimentResult(
        experiment="faults",
        title="Fault tolerance: crash-at-peak recovery vs retry/requeue/steal mode",
        rows=rows,
        notes=notes,
        config={
            "fast": fast,
            "backend": backend,
            "workers": workers,
            "num_requests": num_requests,
            "rho": RHO,
            "modes": list(MODES),
            "crash_at_frac": CRASH_AT_FRAC,
            "down_for_units": DOWN_FOR_UNITS,
            "seed": 11,
            "fault_seed": 7,
        },
    )
