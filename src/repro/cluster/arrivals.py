"""Arrival processes: the traffic a simulated SALO cluster serves.

What the requests are is a :class:`~repro.serving.trace.TraceSpec` (here
usually a :class:`WorkloadSpec`, which carries SLO classes by default),
drawn by its :class:`~repro.serving.trace.RequestFactory`; this module
decides *when* they arrive.  Two open-loop generators (Poisson, MMPP-style
on-off bursts) and one closed-loop source (a fixed client population
with think times) emit timestamped
:class:`~repro.serving.request.AttentionRequest` objects decorated with
an SLO class and its latency deadline — the unit the discrete-event
simulator consumes.  The spec's stream draws only each request's family
and class; its operands are keyed by (seed, request id) and drawn on
first read, so traffic that only meets a cost-model clock never draws
them.

Open-loop sources fix the arrival times up front (load independent of
service capacity — the "heavy traffic" regime); the closed-loop source
reacts to completions (each client keeps one request outstanding), which
self-throttles at the cluster's capacity.  Both are consumed through the
:class:`RequestSource` interface so the simulator's event loop does not
care which regime drives it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..serving.request import AttentionRequest
from ..serving.trace import RequestFactory, TraceSpec

__all__ = [
    "SLOClass",
    "DEFAULT_SLO_CLASSES",
    "WorkloadSpec",
    "RequestFactory",
    "ArrivalProcess",
    "PoissonProcess",
    "OnOffProcess",
    "RequestSource",
    "OpenLoopSource",
    "ClosedLoopSource",
    "open_loop",
]


@dataclass(frozen=True)
class SLOClass:
    """One service class: a name, a latency budget, a traffic share."""

    name: str
    deadline_s: Optional[float]  # None: no deadline (best effort)
    share: float = 1.0  # sampling weight within the workload mix

    def __post_init__(self) -> None:
        if self.deadline_s is not None and not (self.deadline_s > 0):
            raise ValueError(f"deadline_s must be positive, got {self.deadline_s}")
        if not (self.share > 0):
            raise ValueError(f"share must be positive, got {self.share}")


DEFAULT_SLO_CLASSES: Tuple[SLOClass, ...] = (
    SLOClass("interactive", deadline_s=0.05, share=0.5),
    SLOClass("bulk", deadline_s=0.5, share=0.5),
)


@dataclass(frozen=True)
class WorkloadSpec(TraceSpec):
    """Simulated traffic: a :class:`TraceSpec` with SLO classes by default."""

    slo_classes: Tuple[SLOClass, ...] = DEFAULT_SLO_CLASSES


# ----------------------------------------------------------------------
# Open-loop arrival processes
# ----------------------------------------------------------------------
class ArrivalProcess:
    """Generates ``count`` monotone arrival timestamps (open loop)."""

    name = "abstract"

    def times(self, rng: np.random.Generator, count: int) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class PoissonProcess(ArrivalProcess):
    """Memoryless arrivals at a constant mean rate."""

    rate_rps: float
    name: str = field(default="poisson", init=False)

    def __post_init__(self) -> None:
        if not (self.rate_rps > 0):
            raise ValueError(f"rate_rps must be positive, got {self.rate_rps}")

    def times(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return np.cumsum(rng.exponential(1.0 / self.rate_rps, size=count))


@dataclass(frozen=True)
class OnOffProcess(ArrivalProcess):
    """Two-state modulated Poisson process (MMPP-style bursts).

    The source alternates between an *on* state emitting at
    ``rate_on_rps`` and an *off* state emitting at ``rate_off_rps``
    (often 0); state residence times are exponential with the given
    means.  Mean rate is the residence-weighted mix; burstiness (the
    on/off rate contrast) is what stresses deadline-aware policies.
    """

    rate_on_rps: float
    rate_off_rps: float = 0.0
    mean_on_s: float = 0.01
    mean_off_s: float = 0.01
    name: str = field(default="on-off", init=False)

    def __post_init__(self) -> None:
        if not (self.rate_on_rps > 0):
            raise ValueError(f"rate_on_rps must be positive, got {self.rate_on_rps}")
        if not (self.rate_off_rps >= 0):
            raise ValueError(f"rate_off_rps must be >= 0, got {self.rate_off_rps}")
        if not (self.mean_on_s > 0 and self.mean_off_s > 0):
            raise ValueError("state residence means must be positive")

    def times(self, rng: np.random.Generator, count: int) -> np.ndarray:
        out = np.empty(count, dtype=np.float64)
        t = 0.0
        on = True
        state_end = rng.exponential(self.mean_on_s)
        emitted = 0
        while emitted < count:
            rate = self.rate_on_rps if on else self.rate_off_rps
            if rate <= 0:
                t = state_end
                on = not on
                state_end = t + rng.exponential(self.mean_on_s if on else self.mean_off_s)
                continue
            gap = rng.exponential(1.0 / rate)
            if t + gap <= state_end:
                t += gap
                out[emitted] = t
                emitted += 1
            else:
                # No arrival before the state flips; advance to the flip.
                t = state_end
                on = not on
                state_end = t + rng.exponential(self.mean_on_s if on else self.mean_off_s)
        return out


# ----------------------------------------------------------------------
# Sources: what the simulator's event loop consumes
# ----------------------------------------------------------------------
class RequestSource:
    """Feeds the simulator: initial arrivals + completion reactions."""

    def initial(self) -> List[AttentionRequest]:
        raise NotImplementedError

    def on_complete(self, request: AttentionRequest, now: float) -> List[AttentionRequest]:
        """Arrivals triggered by a completion (closed-loop feedback)."""
        return []


class OpenLoopSource(RequestSource):
    """A fixed, pre-timestamped request list (rate independent of load)."""

    def __init__(self, requests: Sequence[AttentionRequest]) -> None:
        self.requests = list(requests)

    def initial(self) -> List[AttentionRequest]:
        return list(self.requests)


def open_loop(spec: TraceSpec, process: ArrivalProcess) -> OpenLoopSource:
    """Request stream + arrival process -> a replayable open-loop source.

    A separate RNG stream (offset seed) drives the arrival process so
    the request mix is identical across processes — policy comparisons
    then see the same work at different timings.
    """
    factory = RequestFactory(spec)
    times = process.times(np.random.default_rng(spec.seed + 0x9E3779B9), spec.num_requests)
    if np.any(np.diff(times) < 0):
        raise ValueError(f"arrival process {process.name} produced non-monotone times")
    return OpenLoopSource([factory.make(float(t)) for t in times])


class ClosedLoopSource(RequestSource):
    """A fixed client population with think times (self-throttling).

    Each of ``clients`` keeps at most one request outstanding: it
    submits, waits for completion, thinks for an exponential
    ``think_time_s``, then submits again, until the workload's request
    budget is spent.  Offered load adapts to cluster capacity — the
    saturation-measurement counterpart of the open-loop generators.
    """

    def __init__(
        self, spec: TraceSpec, clients: int, think_time_s: float = 0.0
    ) -> None:
        if clients < 1:
            raise ValueError(f"clients must be >= 1, got {clients}")
        if not (think_time_s >= 0):
            raise ValueError(f"think_time_s must be >= 0, got {think_time_s}")
        self.spec = spec
        self.clients = min(clients, spec.num_requests)
        self.think_time_s = think_time_s
        self.factory = RequestFactory(spec)
        self._think_rng = np.random.default_rng(spec.seed + 0x51F15EED)
        self._remaining = spec.num_requests

    def _next(self, at: float) -> AttentionRequest:
        self._remaining -= 1
        return self.factory.make(at)

    def initial(self) -> List[AttentionRequest]:
        return [self._next(0.0) for _ in range(min(self.clients, self._remaining))]

    def on_complete(self, request: AttentionRequest, now: float) -> List[AttentionRequest]:
        if self._remaining <= 0:
            return []
        think = (
            float(self._think_rng.exponential(self.think_time_s))
            if self.think_time_s > 0
            else 0.0
        )
        return [self._next(now + think)]
