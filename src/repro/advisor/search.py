"""Configuration search over the deterministic cluster simulator.

The advisor's core loop: enumerate a :class:`SearchSpace` of candidate
configurations (workers x batch policy x admission x backend x batch
cap), replay the *same* :class:`~repro.advisor.spec.TrafficSpec` against
each on the cost-model clock, and score every candidate with

* per-constraint **margins** at nominal load — ``slo:<class>`` is the
  class's deadline-met rate minus its floor, ``loss`` is the loss-budget
  headroom ``max_loss_frac - (rejected + shed + failed) / submitted``;
* a **feasibility headroom**: the largest load multiple on a fixed scale
  grid the candidate still clears every constraint at; and
* the **binding constraint**: the constraint that fails first as load
  scales past the headroom — the answer to "what breaks first if
  traffic grows?", which is what distinguishes a provisioning decision
  from a leaderboard entry.

Every simulation is identified by a stable content-hashed run id
(:func:`repro.experiments.base.stable_run_id` over traffic + candidate
+ scale) and memoised in a :class:`RunCache`, optionally persisted to
disk as one JSON file per run — re-running a search or an ablation
matrix reuses every simulation whose configuration is unchanged, which
is what makes the advisor's run matrix resumable.

The clock is pinned to :meth:`CostModelClock.flat` for the same reason
the overload sweep pins it: candidate comparisons are claims about
control dynamics at a designed service scale, and must not move when
the default clock's host-measured constants are re-measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import json

from ..cluster import (
    ADMISSIONS,
    POLICIES,
    ClusterReport,
    CostModelClock,
    SimConfig,
    make_admission,
    make_policy,
    simulate,
)
from ..experiments.base import stable_run_id
from .spec import TrafficSpec

__all__ = [
    "Candidate",
    "SearchSpace",
    "Constraint",
    "Evaluation",
    "CandidateResult",
    "RunCache",
    "evaluate",
    "DEFAULT_SCALE_GRID",
]

# Load multiples the feasibility scan probes, ascending from nominal.
DEFAULT_SCALE_GRID: Tuple[float, ...] = (1.0, 1.25, 1.5, 2.0, 3.0)


@dataclass(frozen=True)
class Candidate:
    """One deployable configuration: what the advisor ranks."""

    workers: int = 2
    policy: str = "edf"
    admission: str = "admit-all"
    backend: str = "functional"
    max_batch_size: int = 8
    drop_expired: bool = True
    steal: bool = True
    admission_slack: float = 1.0  # est-wait only
    queue_depth: int = 64  # queue-depth only

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}; known: {sorted(POLICIES)}")
        if self.admission not in ADMISSIONS:
            raise ValueError(
                f"unknown admission {self.admission!r}; known: {sorted(ADMISSIONS)}"
            )

    def to_dict(self) -> dict:
        return {
            "workers": self.workers,
            "policy": self.policy,
            "admission": self.admission,
            "backend": self.backend,
            "max_batch_size": self.max_batch_size,
            "drop_expired": self.drop_expired,
            "steal": self.steal,
            "admission_slack": self.admission_slack,
            "queue_depth": self.queue_depth,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Candidate":
        return cls(**dict(payload))

    @property
    def label(self) -> str:
        bits = [f"{self.workers}w", self.policy, self.admission, f"b{self.max_batch_size}"]
        if not self.drop_expired:
            bits.append("no-shed")
        if not self.steal:
            bits.append("no-steal")
        if self.backend != "functional":
            bits.append(self.backend)
        return "/".join(bits)

    def run_id(self, traffic: TrafficSpec) -> str:
        """Stable id of (traffic, candidate) — the row key of the matrix."""
        return stable_run_id(
            "advise", {"traffic": traffic.to_dict(), "candidate": self.to_dict()}
        )

    def sim_config(self, traffic: TrafficSpec) -> SimConfig:
        policy_kwargs: dict = {}
        if self.policy == "weighted-fair":
            # Tighter budgets earn proportionally larger DRR shares; the
            # weights derive from the traffic spec, not a side channel.
            policy_kwargs["weights"] = fair_weights(traffic)
        admission_kwargs: dict = {}
        if self.admission == "est-wait":
            admission_kwargs["slack"] = self.admission_slack
        elif self.admission == "queue-depth":
            admission_kwargs["max_depth"] = self.queue_depth
        return SimConfig(
            workers=self.workers,
            max_batch_size=self.max_batch_size,
            steal=self.steal,
            policy=make_policy(self.policy, **policy_kwargs),
            admission=make_admission(self.admission, **admission_kwargs),
            drop_expired=self.drop_expired,
            service=CostModelClock.flat(),
            backend=self.backend,
        )


def fair_weights(traffic: TrafficSpec) -> Dict[str, float]:
    """Per-class DRR weights: inverse deadline, normalised to min 1.0."""
    inv = {t.name: 1.0 / t.deadline_units for t in traffic.slo}
    floor = min(inv.values())
    return {name: round(v / floor, 4) for name, v in inv.items()}


@dataclass(frozen=True)
class SearchSpace:
    """The candidate grid one ``advise`` call enumerates."""

    workers: Tuple[int, ...] = (1, 2, 4)
    policies: Tuple[str, ...] = ("greedy-fifo", "edf", "weighted-fair")
    admissions: Tuple[str, ...] = ("admit-all", "est-wait")
    backends: Tuple[str, ...] = ("functional",)
    batch_caps: Tuple[int, ...] = (8,)

    def candidates(self) -> List[Candidate]:
        """Deterministic enumeration order: the ranker's final tiebreak."""
        return [
            Candidate(
                workers=w, policy=p, admission=a, backend=b, max_batch_size=cap
            )
            for w, p, a, b, cap in product(
                self.workers, self.policies, self.admissions,
                self.backends, self.batch_caps,
            )
        ]

    def to_dict(self) -> dict:
        return {
            "workers": list(self.workers),
            "policies": list(self.policies),
            "admissions": list(self.admissions),
            "backends": list(self.backends),
            "batch_caps": list(self.batch_caps),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SearchSpace":
        return cls(**{k: tuple(v) for k, v in dict(payload).items()})


@dataclass(frozen=True)
class Constraint:
    """One feasibility term: non-negative margin means satisfied."""

    name: str  # "slo:<class>" or "loss"
    margin: float

    @property
    def ok(self) -> bool:
        return self.margin >= 0.0

    def to_dict(self) -> dict:
        return {"name": self.name, "margin": self.margin, "ok": self.ok}


def constraints_of(report: ClusterReport, traffic: TrafficSpec) -> List[Constraint]:
    """Score one simulation against the spec's feasibility targets."""
    out: List[Constraint] = []
    for target in traffic.slo:
        cls = report.class_report(target.name)
        out.append(
            Constraint(
                name=f"slo:{target.name}",
                margin=round(cls.deadline_met_rate - target.min_met_rate, 6),
            )
        )
    lost = report.rejected + report.shed + report.failed
    loss_frac = lost / report.submitted if report.submitted else 0.0
    out.append(Constraint(name="loss", margin=round(traffic.max_loss_frac - loss_frac, 6)))
    return out


@dataclass(frozen=True)
class Evaluation:
    """One simulated point: a candidate at one load multiple."""

    run_id: str
    scale: float
    metrics: dict  # ClusterReport.to_dict() minus per-worker noise
    constraints: Tuple[Constraint, ...]

    @property
    def feasible(self) -> bool:
        return all(c.ok for c in self.constraints)

    @property
    def worst(self) -> Constraint:
        return min(self.constraints, key=lambda c: (c.margin, c.name))

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "scale": self.scale,
            "metrics": self.metrics,
            "constraints": [c.to_dict() for c in self.constraints],
            "feasible": self.feasible,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Evaluation":
        return cls(
            run_id=payload["run_id"],
            scale=payload["scale"],
            metrics=dict(payload["metrics"]),
            constraints=tuple(
                Constraint(c["name"], c["margin"]) for c in payload["constraints"]
            ),
        )


class RunCache:
    """Content-addressed store of evaluations, optionally on disk.

    Keys are ``<run_id>@x<scale>``; the value is the JSON-serialisable
    :class:`Evaluation`.  Because run ids hash every code-relevant knob,
    a hit is a claim the simulation would reproduce byte-identically —
    so a second ``advise`` call (or an ablation matrix overlapping the
    search) replays cached points instead of re-simulating them.
    """

    def __init__(self, directory: Optional[Union[str, Path]] = None) -> None:
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._memory: Dict[str, Evaluation] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(run_id: str, scale: float) -> str:
        return f"{run_id}@x{scale:g}"

    def _path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{key}.json"

    def get(self, run_id: str, scale: float) -> Optional[Evaluation]:
        key = self.key(run_id, scale)
        if key in self._memory:
            self.hits += 1
            return self._memory[key]
        if self.directory is not None and self._path(key).exists():
            with open(self._path(key), "r", encoding="utf-8") as fh:
                ev = Evaluation.from_dict(json.load(fh))
            self._memory[key] = ev
            self.hits += 1
            return ev
        self.misses += 1
        return None

    def put(self, evaluation: Evaluation) -> None:
        key = self.key(evaluation.run_id, evaluation.scale)
        self._memory[key] = evaluation
        if self.directory is not None:
            with open(self._path(key), "w", encoding="utf-8") as fh:
                json.dump(evaluation.to_dict(), fh, sort_keys=True, indent=1)


def _evaluate_point(
    candidate: Candidate,
    traffic: TrafficSpec,
    scale: float,
    cache: Optional[RunCache],
) -> Evaluation:
    run_id = candidate.run_id(traffic)
    if cache is not None:
        hit = cache.get(run_id, scale)
        if hit is not None:
            return hit
    report = simulate(traffic.source(scale), candidate.sim_config(traffic))
    metrics = report.to_dict()
    metrics.pop("workers", None)  # per-worker detail is not decision input
    metrics.pop("fault_activity", None)
    evaluation = Evaluation(
        run_id=run_id,
        scale=scale,
        metrics=metrics,
        constraints=tuple(constraints_of(report, traffic)),
    )
    if cache is not None:
        cache.put(evaluation)
    return evaluation


@dataclass(frozen=True)
class CandidateResult:
    """A candidate's full scorecard across the load-scale grid."""

    candidate: Candidate
    run_id: str
    nominal: Evaluation  # at scale 1.0
    scan: Tuple[Evaluation, ...]  # ascending scale grid, includes nominal
    headroom: Optional[float]  # largest contiguous feasible scale (None: infeasible at 1.0)
    binding: Constraint  # what fails first as load grows
    binding_scale: Optional[float]  # scale the binding constraint failed at

    @property
    def feasible(self) -> bool:
        return self.nominal.feasible

    @property
    def goodput_rps(self) -> float:
        return self.nominal.metrics["goodput_rps"]

    def to_dict(self) -> dict:
        return {
            "candidate": self.candidate.to_dict(),
            "label": self.candidate.label,
            "run_id": self.run_id,
            "feasible": self.feasible,
            "headroom": self.headroom,
            "binding": self.binding.to_dict(),
            "binding_scale": self.binding_scale,
            "nominal": self.nominal.to_dict(),
            "scan": [e.to_dict() for e in self.scan],
        }


def evaluate(
    candidate: Candidate,
    traffic: TrafficSpec,
    scales: Sequence[float] = DEFAULT_SCALE_GRID,
    cache: Optional[RunCache] = None,
) -> CandidateResult:
    """Score one candidate: nominal margins + feasibility scan.

    The scan walks the ascending scale grid and stops at the first
    infeasible point; the *headroom* is the last feasible scale before
    it, and the *binding constraint* is the worst-margin constraint at
    that first failure.  A candidate that never fails inside the grid
    reports the top scale as headroom and its thinnest margin there as
    the (non-failing) binding constraint with ``binding_scale=None`` —
    "nothing broke, but this is what would".
    """
    grid = tuple(sorted(set(float(s) for s in scales) | {1.0}))
    if grid[0] < 1.0:
        raise ValueError(f"scale grid must start at nominal load, got {grid[0]}")
    scan: List[Evaluation] = []
    headroom: Optional[float] = None
    binding: Optional[Constraint] = None
    binding_scale: Optional[float] = None
    for scale in grid:
        point = _evaluate_point(candidate, traffic, scale, cache)
        scan.append(point)
        if point.feasible:
            headroom = scale
        else:
            binding = point.worst
            binding_scale = scale
            break
    nominal = scan[0]
    if binding is None:
        binding = scan[-1].worst  # thinnest margin at the top of the grid
    return CandidateResult(
        candidate=candidate,
        run_id=candidate.run_id(traffic),
        nominal=nominal,
        scan=tuple(scan),
        headroom=headroom,
        binding=binding,
        binding_scale=binding_scale,
    )
