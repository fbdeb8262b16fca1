"""Design-space exploration over SALO hardware configurations.

The paper picks one operating point (32 x 32 at 1 GHz, Table 1) without
showing the surrounding design space.  This explorer sweeps PE-array
geometry (and optionally frequency), evaluates each candidate with the
same scheduler + timing + synthesis + energy models used everywhere else,
and reports latency/area/power/energy-delay trade-offs with a Pareto
filter — the analysis an architect would run before freezing Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Sequence, Tuple

from ..accelerator.energy import plan_energy
from ..accelerator.synthesis import synthesize
from ..accelerator.timing import plan_timing
from ..core.config import HardwareConfig
from ..scheduler.scheduler import DataScheduler, SchedulerError
from ..workloads.configs import AttentionWorkload

__all__ = ["DesignPoint", "sweep_designs", "pareto_front", "best_design"]


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated hardware candidate."""

    config: HardwareConfig
    latency_s: float
    area_mm2: float
    power_w: float
    energy_j: float
    utilization: float

    @property
    def pe_geometry(self) -> str:
        return f"{self.config.pe_rows}x{self.config.pe_cols}"

    @property
    def edp(self) -> float:
        """Energy-delay product (J·s)."""
        return self.energy_j * self.latency_s

    @property
    def area_delay(self) -> float:
        """Area-delay product (mm²·s)."""
        return self.area_mm2 * self.latency_s

    def metric(self, name: str) -> float:
        if name == "edp":
            return self.edp
        if name == "area_delay":
            return self.area_delay
        return float(getattr(self, name))


def sweep_designs(
    workload: AttentionWorkload,
    pe_rows_options: Sequence[int] = (16, 32, 64),
    pe_cols_options: Sequence[int] = (16, 32, 64),
    frequencies_hz: Sequence[float] = (1.0e9,),
    base: Optional[HardwareConfig] = None,
) -> List[DesignPoint]:
    """Evaluate every (rows, cols, frequency) candidate on a workload.

    Candidates whose global-token bound cannot host the workload are
    skipped (they are simply infeasible designs for it).
    """
    if base is None:
        base = HardwareConfig()
    pattern = workload.pattern()
    points: List[DesignPoint] = []
    for rows in pe_rows_options:
        for cols in pe_cols_options:
            for freq in frequencies_hz:
                config = replace(base, pe_rows=rows, pe_cols=cols, frequency_hz=freq)
                scheduler = DataScheduler(config)
                try:
                    plan = scheduler.schedule(
                        pattern, heads=workload.heads, head_dim=workload.head_dim
                    )
                except SchedulerError:
                    continue
                timing = plan_timing(plan)
                report = synthesize(config)
                energy = plan_energy(plan, area_mm2=report.area_mm2)
                points.append(
                    DesignPoint(
                        config=config,
                        latency_s=timing.seconds,
                        area_mm2=report.area_mm2,
                        power_w=report.power_w,
                        energy_j=energy.total_j,
                        utilization=timing.utilization,
                    )
                )
    return points


def pareto_front(
    points: Iterable[DesignPoint],
    objectives: Tuple[str, str] = ("latency_s", "area_mm2"),
) -> List[DesignPoint]:
    """Non-dominated points under two minimisation objectives."""
    pts = list(points)
    front = []
    for p in pts:
        dominated = any(
            (q.metric(objectives[0]) <= p.metric(objectives[0])
             and q.metric(objectives[1]) <= p.metric(objectives[1])
             and (q.metric(objectives[0]) < p.metric(objectives[0])
                  or q.metric(objectives[1]) < p.metric(objectives[1])))
            for q in pts
        )
        if not dominated:
            front.append(p)
    return sorted(front, key=lambda p: p.metric(objectives[0]))


def best_design(
    points: Iterable[DesignPoint], metric: str = "edp"
) -> DesignPoint:
    """The candidate minimising a scalar figure of merit."""
    pts = list(points)
    if not pts:
        raise ValueError("no design points to choose from")
    return min(pts, key=lambda p: p.metric(metric))
