"""Overload sweep: offered load rho 0.8 -> 2.0 x overload-control mode.

The provisioning question the cluster simulator exists for ("how many
engines meet the SLO?") degenerates without overload control: at rho > 1
queues grow without bound, every request waits past its deadline, and
goodput collapses even though utilisation reads 100%.  This sweep pins
the repair, comparing five control modes over identical traffic (same
seed, same request mix; only the arrival *rate* scales with rho):

* ``no-control`` — EDF, admit everything, serve everything (the PR-3
  behaviour; the degenerate baseline).
* ``fifo-shed`` — class-blind greedy FIFO with ``drop_expired``: the
  foil for the fairness story.  Shedding alone is not enough — FIFO
  serves whatever is oldest, tight-deadline interactive requests expire
  while bulk rides the queue order, and the interactive class starves.
* ``shed`` — EDF with ``drop_expired``: requests whose deadline already
  passed are dropped instead of served late, so scarce batch slots go to
  work that can still count.
* ``admit+shed`` — shedding plus an estimated-wait admission cap
  (slack 1.0): requests whose projected wait alone already exhausts
  their budget are refused at the door, before any queueing capacity is
  spent.
  At moderate overload the refusals cost a sliver of goodput (the wait
  estimate is conservative), but they bound the backlog: by rho 2.0 the
  mode beats shed-only on both met rate and goodput.
* ``weighted-fair`` — shedding under deficit round-robin with
  interactive weighted 3:1 over bulk: explicit per-class service shares
  instead of deadline-implied priority.

Deadline budgets: interactive gets ``OVERLOAD_INTERACTIVE_BUDGET`` (60)
dispatch units here, 2x the capacity sweep's ``INTERACTIVE_BUDGET`` —
under sustained overload a 30-unit budget is infeasible no matter which
policy runs (every interactive request dies in the queue and neither
shedding nor fairness has anything left to allocate), while 60 units is
*binding but feasible when prioritised*, which is exactly the regime
overload control exists for.

Committed expectations (asserted at the fixed seed in
``tests/experiments/test_overload.py``): shedding strictly improves
goodput over no-control at rho >= 1.5; weighted-fair keeps the
interactive class's completed share inside its weight band while
class-blind fifo-shed starves it; the admission cap genuinely fires
(rejected > 0) while staying within 10% of shed-only goodput; and
conservation (``submitted == completed + rejected + shed``) holds on
every row.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..cluster import (
    AdmitAll,
    CostModelClock,
    EDFPolicy,
    EstimatedWaitCap,
    GreedyFIFOPolicy,
    PoissonProcess,
    SimConfig,
    SLOClass,
    WeightedFairPolicy,
    WorkloadSpec,
    open_loop,
    service_scales,
    simulate,
)
from .base import ExperimentResult, register

#: Deficit-round-robin weights of the weighted-fair mode: interactive
#: holds 3 of every 4 service credits.
FAIR_WEIGHTS: Dict[str, float] = {"interactive": 3.0, "bulk": 1.0}

#: Deadline budgets in dispatch units (see module docstring for why the
#: interactive budget is 2x the serving_capacity sweep's).
OVERLOAD_INTERACTIVE_BUDGET = 60.0
OVERLOAD_BULK_BUDGET = 400.0

#: Estimated-wait admission slack: refuse once the projected wait alone
#: would burn this fraction of the request's latency budget.  Tuned to
#: the batch-aware queue-drain estimate: the drain model projects the
#: true (larger) wait at deep backlogs, so the near-parity operating
#: point sits at a higher slack than the retired shallow depth x unit
#: shorthand needed.
ADMIT_SLACK = 1.0

#: Interactive completed-share band the weighted-fair mode must hold
#: under overload.  With weights 3:1 the DRR slot share is 0.75, but the
#: completed share is capped by the class's arrival share (0.5): the
#: band demands at least 60% of that arrival share survive (>= 0.30)
#: and no more than the arrival share plus noise (<= 0.55).
FAIR_SHARE_BAND: Tuple[float, float] = (0.30, 0.55)

MODES: Tuple[str, ...] = ("no-control", "fifo-shed", "shed", "admit+shed", "weighted-fair")


def mode_config(
    mode: str, workers: int, clock: CostModelClock, backend: str = "functional"
) -> SimConfig:
    """The (policy, admission, shedding) each overload-control mode names."""
    if mode in ("no-control", "shed"):
        policy, admission = EDFPolicy(), AdmitAll()
    elif mode == "fifo-shed":
        policy, admission = GreedyFIFOPolicy(), AdmitAll()
    elif mode == "admit+shed":
        policy, admission = EDFPolicy(), EstimatedWaitCap(slack=ADMIT_SLACK)
    elif mode == "weighted-fair":
        policy, admission = WeightedFairPolicy(weights=FAIR_WEIGHTS), AdmitAll()
    else:  # pragma: no cover - registry guard
        raise KeyError(f"unknown overload mode {mode!r}; known: {MODES}")
    return SimConfig(
        workers=workers, policy=policy, admission=admission,
        drop_expired=mode != "no-control", service=clock, backend=backend,
    )


def overload_spec(num_requests: int, dispatch_s: float, seed: int = 11) -> WorkloadSpec:
    """The workload the sweep (and its regression test) runs."""
    return WorkloadSpec(
        num_requests=num_requests,
        n=256,
        window=32,
        heads=2,
        head_dim=8,
        seed=seed,
        slo_classes=(
            SLOClass(
                "interactive",
                deadline_s=OVERLOAD_INTERACTIVE_BUDGET * dispatch_s,
                share=0.5,
            ),
            SLOClass("bulk", deadline_s=OVERLOAD_BULK_BUDGET * dispatch_s, share=0.5),
        ),
    )


@register("overload")
def run(fast: bool = False, backend: str = "functional") -> ExperimentResult:
    workers = 2
    num_requests = 600  # long enough that steady-state overload, not the
    # cold-compile transient, dominates the numbers
    # Flat clock: the sweep's committed claims (shedding beats no-control
    # at rho 1.5, admission near-parity) are about control dynamics at a
    # designed service scale.  The default clock's host-measured dispatch
    # overhead dwarfs this probe workload's per-request latency, which
    # inflates the deadline unit until nothing is ever doomed.
    clock = CostModelClock.flat()
    probe = WorkloadSpec(n=256, window=32, heads=2, head_dim=8)
    unit_s, dispatch_s = service_scales(probe, clock, backend=backend)
    capacity = workers / unit_s
    rho_grid = (0.8, 1.5) if fast else (0.8, 1.2, 1.5, 2.0)

    rows: List[dict] = []
    for rho in rho_grid:
        for mode in MODES:
            spec = overload_spec(num_requests, dispatch_s)
            source = open_loop(spec, PoissonProcess(rate_rps=rho * capacity))
            report = simulate(source, mode_config(mode, workers, clock, backend=backend))
            interactive = report.class_report("interactive")
            rows.append(
                {
                    "rho": rho,
                    "mode": mode,
                    "submitted": report.submitted,
                    "completed": report.completed,
                    "rejected": report.rejected,
                    "shed": report.shed,
                    "goodput_rps": round(report.goodput_rps),
                    "met_rate": round(report.deadline_met_rate, 4),
                    "iact_share": round(interactive.completed / report.completed, 4)
                    if report.completed
                    else 0.0,
                    "iact_met": round(interactive.deadline_met_rate, 4),
                    "jain": round(report.fairness_index, 4),
                    "p99_ms": round(report.latency_p99_ms, 3),
                }
            )

    notes = [
        f"{workers} workers, {num_requests} requests; service-time oracle SALO.estimate "
        f"(amortised unit {unit_s * 1e6:.1f} us); rho = offered load / full-batch capacity",
        "deadlines: interactive 60x dispatch unit (2x the capacity sweep's budget — "
        "binding under overload yet feasible when prioritised), bulk 400x",
        "conservation: submitted == completed + rejected + shed on every row",
        f"weighted-fair: DRR {FAIR_WEIGHTS['interactive']:.0f}:"
        f"{FAIR_WEIGHTS['bulk']:.0f} interactive:bulk, completed-share band "
        f"[{FAIR_SHARE_BAND[0]}, {FAIR_SHARE_BAND[1]}]",
    ]
    # Headline: goodput under sustained overload, shed vs no-control,
    # and the fairness contrast at the same point.
    worst_rho = rho_grid[-1]
    at_worst = {row["mode"]: row for row in rows if row["rho"] == worst_rho}
    notes.append(
        f"rho {worst_rho}: goodput no-control {at_worst['no-control']['goodput_rps']} "
        f"vs shed {at_worst['shed']['goodput_rps']} rps; interactive share "
        f"fifo-shed {at_worst['fifo-shed']['iact_share']:.2f} vs weighted-fair "
        f"{at_worst['weighted-fair']['iact_share']:.2f}"
    )
    return ExperimentResult(
        experiment="overload",
        title="Overload control: admission, shedding and weighted fairness vs rho",
        rows=rows,
        notes=notes,
        config={
            "fast": fast,
            "backend": backend,
            "workers": workers,
            "num_requests": num_requests,
            "rho_grid": list(rho_grid),
            "modes": list(MODES),
            "seed": 11,
        },
    )
