"""Declarative traffic specs: the advisor's candidate-independent input.

A :class:`TrafficSpec` describes *traffic*, not a deployment: how many
requests, what structural mix (the same pattern families the serving
trace generator draws), how they arrive (Poisson or bursty on/off), the
SLO classes with their deadline budgets, and the feasibility targets a
configuration must meet.  Everything a candidate configuration could
change — workers, policy, admission, backend, batch caps — is *absent*
by construction, so one spec can be replayed against every candidate in
a search space and two candidates always see byte-identical work.

Deadlines and offered load are expressed in the simulator's
scale-free units (see :func:`repro.cluster.service_scales`): deadline
budgets in *dispatch units* and load as ``rho`` — offered rate over the
full-batch capacity of ONE reference worker — so a spec stays meaningful
when the cost model is recalibrated.  The reference scales are pinned to
the uncalibrated flat clock and the default backend, making them (and
therefore the spec's content hash) independent of both the default
clock's host-measured constants and any candidate's backend choice.

Specs are JSON round-trippable (:meth:`TrafficSpec.to_dict` /
:meth:`TrafficSpec.from_dict` / :meth:`TrafficSpec.load`) and content
hashed (:attr:`TrafficSpec.traffic_id`), which is one half of every
advisor run id — the other half being the candidate (see
:mod:`repro.advisor.search`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Tuple, Union

from ..cluster import (
    CostModelClock,
    OnOffProcess,
    OpenLoopSource,
    PoissonProcess,
    SLOClass,
    WorkloadSpec,
    open_loop,
    service_scales,
)
from ..experiments.base import stable_run_id

__all__ = ["SLOTarget", "TrafficSpec", "reference_scales"]

ARRIVALS = ("poisson", "bursty")

# Reference full batch for capacity/deadline units: candidates may cap
# batches differently, but the *units* a spec is written in must not
# move with the candidate under evaluation.
REFERENCE_FULL_BATCH = 8
REFERENCE_BACKEND = "functional"

# Bursty arrivals: the on state emits at BURST_CONTRAST x the mean rate
# (off emits nothing), and a mean on-period carries BURST_LENGTH
# requests.  Residence times scale inversely with the rate, so scaling
# the load compresses the same burst structure in time instead of
# changing it.
BURST_CONTRAST = 2.0
BURST_LENGTH = 20.0


@dataclass(frozen=True)
class SLOTarget:
    """One SLO class plus the feasibility bar it must clear.

    ``deadline_units`` is the latency budget in reference dispatch
    units (one request + one whole batch overhead on the flat clock);
    ``min_met_rate`` is the class's deadline-met-rate floor — the
    constraint named ``slo:<name>`` in advisor reports.
    """

    name: str
    deadline_units: float
    share: float = 1.0
    min_met_rate: float = 0.9

    def __post_init__(self) -> None:
        if not (self.deadline_units > 0):
            raise ValueError(f"deadline_units must be positive, got {self.deadline_units}")
        if not (self.share > 0):
            raise ValueError(f"share must be positive, got {self.share}")
        if not 0.0 < self.min_met_rate <= 1.0:
            raise ValueError(f"min_met_rate must be in (0, 1], got {self.min_met_rate}")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "deadline_units": self.deadline_units,
            "share": self.share,
            "min_met_rate": self.min_met_rate,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SLOTarget":
        return cls(**dict(payload))


DEFAULT_SLO_TARGETS: Tuple[SLOTarget, ...] = (
    SLOTarget("interactive", deadline_units=60.0, share=0.5, min_met_rate=0.9),
    SLOTarget("bulk", deadline_units=400.0, share=0.5, min_met_rate=0.9),
)


def reference_scales(spec: "TrafficSpec") -> Tuple[float, float]:
    """(amortised unit, dispatch unit) of the spec's reference worker.

    Pinned to the flat clock, the default backend and the reference
    full batch — deliberately *not* the candidate's own settings — so
    the units a spec is written in are a property of the traffic alone.
    """
    return _raw_scales(
        spec.num_requests, spec.n, spec.window, spec.heads,
        spec.head_dim, spec.mixed,
    )


@dataclass(frozen=True)
class TrafficSpec:
    """Declarative description of the traffic to provision for."""

    num_requests: int = 160
    n: int = 256
    window: int = 32
    heads: int = 2
    head_dim: int = 8
    mixed: bool = True
    arrival: str = "poisson"  # "poisson" | "bursty"
    rho: float = 1.2  # offered load / one reference worker's capacity
    slo: Tuple[SLOTarget, ...] = DEFAULT_SLO_TARGETS
    max_loss_frac: float = 0.2  # (rejected + shed + failed) / submitted cap
    seed: int = 11

    def __post_init__(self) -> None:
        if self.num_requests < 1:
            raise ValueError(f"num_requests must be >= 1, got {self.num_requests}")
        if self.arrival not in ARRIVALS:
            raise ValueError(f"unknown arrival {self.arrival!r}; known: {ARRIVALS}")
        if not (self.rho > 0):
            raise ValueError(f"rho must be positive, got {self.rho}")
        if not self.slo:
            raise ValueError("need at least one SLO target")
        if len({t.name for t in self.slo}) != len(self.slo):
            raise ValueError("SLO target names must be unique")
        if not 0.0 < self.max_loss_frac <= 1.0:
            raise ValueError(f"max_loss_frac must be in (0, 1], got {self.max_loss_frac}")

    # -- identity / serialisation --------------------------------------

    def to_dict(self) -> dict:
        return {
            "num_requests": self.num_requests,
            "n": self.n,
            "window": self.window,
            "heads": self.heads,
            "head_dim": self.head_dim,
            "mixed": self.mixed,
            "arrival": self.arrival,
            "rho": self.rho,
            "slo": [t.to_dict() for t in self.slo],
            "max_loss_frac": self.max_loss_frac,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "TrafficSpec":
        data = dict(payload)
        data["slo"] = tuple(SLOTarget.from_dict(t) for t in data.get("slo", ()))
        if not data["slo"]:
            data.pop("slo")
        return cls(**data)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "TrafficSpec":
        """Read a spec from a JSON file (the ``advise --traffic`` path)."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    @property
    def traffic_id(self) -> str:
        """Content hash of the traffic description (half of a run id)."""
        return stable_run_id("traffic", self.to_dict())

    # -- simulation inputs ---------------------------------------------

    def workload(self) -> WorkloadSpec:
        _, dispatch_s = _raw_scales(
            self.num_requests, self.n, self.window, self.heads,
            self.head_dim, self.mixed,
        )
        return WorkloadSpec(
            num_requests=self.num_requests,
            n=self.n,
            window=self.window,
            heads=self.heads,
            head_dim=self.head_dim,
            mixed=self.mixed,
            slo_classes=tuple(
                SLOClass(t.name, deadline_s=t.deadline_units * dispatch_s, share=t.share)
                for t in self.slo
            ),
            seed=self.seed,
        )

    def rate_rps(self, scale: float = 1.0) -> float:
        """Offered arrival rate at ``scale`` x the spec's nominal load."""
        if not (scale > 0):
            raise ValueError(f"scale must be positive, got {scale}")
        unit_s, _ = reference_scales(self)
        return scale * self.rho / unit_s

    def source(self, scale: float = 1.0) -> OpenLoopSource:
        """Open-loop request source at ``scale`` x the nominal load.

        The request *mix* is identical at every scale (open_loop drives
        arrivals from an offset RNG stream), and for both arrival kinds
        the draw structure scales linearly with rate — so scaling the
        load compresses the same arrival pattern in time.  That is what
        makes a load-margin scan a controlled experiment rather than a
        comparison of unrelated traces.
        """
        rate = self.rate_rps(scale)
        if self.arrival == "poisson":
            process = PoissonProcess(rate_rps=rate)
        else:
            mean_on_s = BURST_LENGTH / (BURST_CONTRAST * rate)
            process = OnOffProcess(
                rate_on_rps=BURST_CONTRAST * rate,
                rate_off_rps=0.0,
                mean_on_s=mean_on_s,
                mean_off_s=mean_on_s * (BURST_CONTRAST - 1.0),
            )
        return open_loop(self.workload(), process)

    def scaled(self, rho: float) -> "TrafficSpec":
        """The same traffic at a different nominal load."""
        return replace(self, rho=rho)


def _raw_scales(num_requests, n, window, heads, head_dim, mixed) -> Tuple[float, float]:
    spec = WorkloadSpec(
        num_requests=num_requests, n=n, window=window, heads=heads,
        head_dim=head_dim, mixed=mixed,
    )
    return service_scales(
        spec, CostModelClock.flat(),
        full_batch=REFERENCE_FULL_BATCH, backend=REFERENCE_BACKEND,
    )
