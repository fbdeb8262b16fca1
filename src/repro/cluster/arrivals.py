"""Arrival processes: the traffic a simulated SALO cluster serves.

Three open-loop generators (Poisson, MMPP-style on-off bursts, recorded
trace replay) and one closed-loop source (a fixed client population with
think times).  All of them emit timestamped
:class:`~repro.serving.request.AttentionRequest` objects over the same
pattern-family mix the serve CLI's synthetic traces use, decorated with
an SLO class and its latency deadline — the unit the discrete-event
simulator consumes.  Their operands are drawn on first read, so traffic
that only meets a cost-model clock never materialises them.

Open-loop sources fix the arrival times up front (load independent of
service capacity — the "heavy traffic" regime); the closed-loop source
reacts to completions (each client keeps one request outstanding), which
self-throttles at the cluster's capacity.  Both are consumed through the
:class:`RequestSource` interface so the simulator's event loop does not
care which regime drives it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..patterns.base import AttentionPattern
from ..serving.request import AttentionRequest, OperandDraw
from ..serving.trace import TraceSpec, pattern_families

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
    "replay_source",
]


@dataclass(frozen=True)
class SLOClass:
    """One service class: a name, a latency budget, a traffic share."""

    name: str
    deadline_s: Optional[float]  # None: no deadline (best effort)
    share: float = 1.0  # sampling weight within the workload mix

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(f"deadline_s must be positive, got {self.deadline_s}")
        if self.share <= 0:
            raise ValueError(f"share must be positive, got {self.share}")


DEFAULT_SLO_CLASSES: Tuple[SLOClass, ...] = (
    SLOClass("interactive", deadline_s=0.05, share=0.5),
    SLOClass("bulk", deadline_s=0.5, share=0.5),
)


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of the simulated traffic (mirrors ``TraceSpec`` + SLOs)."""

    num_requests: int = 128
    n: int = 256
    window: int = 32
    heads: int = 2
    head_dim: int = 8
    global_tokens: Tuple[int, ...] = (0,)
    mixed: bool = True  # several pattern families / lengths
    slo_classes: Tuple[SLOClass, ...] = DEFAULT_SLO_CLASSES
    seed: int = 0

    def trace_spec(self) -> TraceSpec:
        return TraceSpec(
            num_requests=self.num_requests,
            n=self.n,
            window=self.window,
            heads=self.heads,
            head_dim=self.head_dim,
            global_tokens=self.global_tokens,
            mixed=self.mixed,
            seed=self.seed,
        )


class RequestFactory:
    """Draws requests over the workload's pattern families and SLO mix.

    One RNG stream (seeded by the spec) drives family choice, data and
    SLO class, so a workload is reproducible independent of the arrival
    process layered on top.  The data draws advance that stream at
    :meth:`make` (into one reused scratch buffer per shape, where they are
    checked finite), but a request keeps only the generator state they
    started from: its q/k/v are materialised, bit-identically, on first
    read (:meth:`AttentionRequest.drawn
    <repro.serving.request.AttentionRequest.drawn>`).  A simulation on a
    cost-model clock therefore holds no operands at all.
    """

    def __init__(self, spec: WorkloadSpec) -> None:
        self.spec = spec
        self.families: List[AttentionPattern] = pattern_families(spec.trace_spec())
        self.rng = np.random.default_rng(spec.seed)
        self._serial = 0
        shares = np.asarray([c.share for c in spec.slo_classes], dtype=np.float64)
        self._class_p = shares / shares.sum()
        self._scratch: Dict[Tuple[int, int], np.ndarray] = {}

    def make(self, arrival_s: float) -> AttentionRequest:
        spec = self.spec
        rng = self.rng
        pattern = self.families[int(rng.integers(len(self.families)))]
        shape = (pattern.n, spec.heads * spec.head_dim)
        scratch = self._scratch.get(shape)
        if scratch is None:
            scratch = self._scratch[shape] = np.empty(shape)
        self._serial += 1
        operands = OperandDraw.take(rng, scratch, self._serial)
        cls = spec.slo_classes[int(rng.choice(len(spec.slo_classes), p=self._class_p))]
        return AttentionRequest.drawn(
            operands,
            request_id=self._serial,
            pattern=pattern,
            heads=spec.heads,
            arrival_s=arrival_s,
            deadline_s=cls.deadline_s,
            slo_class=cls.name,
        )


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
        if self.rate_rps <= 0:
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
        if self.rate_on_rps <= 0:
            raise ValueError(f"rate_on_rps must be positive, got {self.rate_on_rps}")
        if self.rate_off_rps < 0:
            raise ValueError(f"rate_off_rps must be >= 0, got {self.rate_off_rps}")
        if self.mean_on_s <= 0 or self.mean_off_s <= 0:
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


def open_loop(spec: WorkloadSpec, process: ArrivalProcess) -> OpenLoopSource:
    """Workload + arrival process -> a replayable open-loop source.

    A separate RNG stream (offset seed) drives the arrival process so
    the request mix is identical across processes — policy comparisons
    then see the same work at different timings.
    """
    factory = RequestFactory(spec)
    times = process.times(np.random.default_rng(spec.seed + 0x9E3779B9), spec.num_requests)
    if np.any(np.diff(times) < 0):
        raise ValueError(f"arrival process {process.name} produced non-monotone times")
    return OpenLoopSource([factory.make(float(t)) for t in times])


def replay_source(
    requests: Sequence[AttentionRequest],
    slo_classes: Optional[Sequence[SLOClass]] = None,
    seed: int = 0,
) -> OpenLoopSource:
    """Replay a recorded trace (e.g. ``serving.synthetic_trace`` with an
    ``ArrivalSpec``) as simulator traffic — the serving-layer bridge.

    Requests keep their recorded arrival timestamps; those without a
    deadline are assigned SLO classes from ``slo_classes`` (sampled by
    share) so per-class accounting stays meaningful.
    """
    rng = np.random.default_rng(seed)
    classes = tuple(slo_classes) if slo_classes else DEFAULT_SLO_CLASSES
    shares = np.asarray([c.share for c in classes], dtype=np.float64)
    p = shares / shares.sum()
    decorated: List[AttentionRequest] = []
    for req in sorted(requests, key=lambda r: r.arrival_s):
        if req.deadline_s is None:
            cls = classes[int(rng.choice(len(classes), p=p))]
            req = AttentionRequest(
                request_id=req.request_id,
                pattern=req.pattern,
                q=req.q,
                k=req.k,
                v=req.v,
                heads=req.heads,
                arrival_s=req.arrival_s,
                deadline_s=cls.deadline_s,
                slo_class=cls.name,
            )
        decorated.append(req)
    return OpenLoopSource(decorated)


class ClosedLoopSource(RequestSource):
    """A fixed client population with think times (self-throttling).

    Each of ``clients`` keeps at most one request outstanding: it
    submits, waits for completion, thinks for an exponential
    ``think_time_s``, then submits again, until the workload's request
    budget is spent.  Offered load adapts to cluster capacity — the
    saturation-measurement counterpart of the open-loop generators.
    """

    def __init__(
        self, spec: WorkloadSpec, clients: int, think_time_s: float = 0.0
    ) -> None:
        if clients < 1:
            raise ValueError(f"clients must be >= 1, got {clients}")
        if think_time_s < 0:
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
