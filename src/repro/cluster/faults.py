"""Fault injection and recovery policy for the cluster simulator.

Real clusters lose workers.  This module gives the discrete-event
simulator a deterministic, seeded failure model — declarative
:class:`FaultSpec` s interpreted by a :class:`FaultInjector` — plus the
:class:`RecoveryConfig` knobs that decide what the cluster *does* about
failures (heartbeat detection, retry budgets, requeue semantics).

Failure model
-------------
* :class:`CrashSpec` — a worker dies at a simulated instant (possibly
  mid-batch: the in-flight batch is lost with it) and optionally rejoins
  ``down_for_s`` later with a **cold plan cache** — rejoining pays the
  cold-compile penalty the :class:`~repro.cluster.pool.CostModelClock`
  already models, exactly like a freshly provisioned engine.
* :class:`StragglerSpec` — a worker serves every batch dispatched inside
  a time window ``factor`` x slower (thermal throttling, a noisy
  neighbour, a failing disk — anything that degrades without killing).
* :class:`TransientSpec` — each dispatch fails with probability ``prob``
  (a dropped RPC, an ECC hiccup): the batch burns its full service time
  and returns an error instead of results.  Drawn from the injector's
  own seeded RNG stream, one draw per dispatch, so a run is replayable.

Detection and recovery
----------------------
Workers carry a lifecycle ``up -> suspect -> down -> (rejoined) up``.
The simulator probes every worker each ``heartbeat_interval_s``; a
crashed worker misses probes, turns *suspect* on the first miss, and is
marked *down* once ``heartbeat_timeout_s`` of silence has elapsed.
Marking a worker down triggers recovery: its orphaned work — lost
in-flight batch members plus everything still queued — is requeued
oldest-deadline-first onto healthy workers (or, with ``requeue=False``,
lands in the terminal ``failed`` bucket: the no-recovery baseline).
Transient dispatch errors retry with capped exponential backoff and
deterministic jitter against a per-request ``max_retries`` budget;
an exhausted budget is also terminal ``failed``.  The conservation law
the property suite pins therefore becomes::

    submitted == completed + rejected + shed + failed

The injector is pure configuration + one RNG stream: it never touches
the event heap itself.  The simulated executor asks it *what* fails and
*when*; the :class:`RecoveryConfig` says how the control plane responds
— on either executor, since real workers report the same dispatch
outcomes (:data:`DISPATCH_OK` / :data:`DISPATCH_ERROR`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "CrashSpec",
    "StragglerSpec",
    "TransientSpec",
    "FaultSpec",
    "RecoveryConfig",
    "FaultInjector",
    "DISPATCH_OK",
    "DISPATCH_ERROR",
    "WORKER_UP",
    "WORKER_SUSPECT",
    "WORKER_DOWN",
]

# Dispatch outcomes: the wire protocol a transport driver speaks.
# A *lost* dispatch (worker crashed mid-batch) has no outcome at all —
# the completion event simply never arrives, which is why detection
# needs heartbeats rather than error returns.
DISPATCH_OK = "ok"
DISPATCH_ERROR = "transient-error"

# Worker lifecycle states (see repro.cluster.pool.Worker).
WORKER_UP = "up"
WORKER_SUSPECT = "suspect"
WORKER_DOWN = "down"


@dataclass(frozen=True)
class CrashSpec:
    """Worker ``worker`` dies at ``at_s``; rejoins ``down_for_s`` later.

    ``down_for_s=None`` means the worker never comes back.  A crash
    landing mid-batch loses the in-flight batch: its members are
    recovered (requeued or failed) only once the failure is *detected*
    via missed heartbeats — detection latency is part of the model.
    """

    worker: int
    at_s: float
    down_for_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.worker < 0:
            raise ValueError(f"worker must be >= 0, got {self.worker}")
        if not (self.at_s >= 0):
            raise ValueError(f"at_s must be >= 0, got {self.at_s}")
        if self.down_for_s is not None and not (self.down_for_s > 0):
            raise ValueError(f"down_for_s must be positive, got {self.down_for_s}")


@dataclass(frozen=True)
class StragglerSpec:
    """Worker ``worker`` serves ``factor`` x slower during a window.

    Applies to batches *dispatched* in ``[start_s, start_s + duration_s)``
    — an already-running batch keeps its original completion time, just
    as a real slowdown only affects work scheduled onto the slow node.
    """

    worker: int
    start_s: float
    duration_s: float
    factor: float

    def __post_init__(self) -> None:
        if self.worker < 0:
            raise ValueError(f"worker must be >= 0, got {self.worker}")
        if not (self.start_s >= 0):
            raise ValueError(f"start_s must be >= 0, got {self.start_s}")
        if not (self.duration_s > 0):
            raise ValueError(f"duration_s must be positive, got {self.duration_s}")
        if not (self.factor >= 1.0) or not math.isfinite(self.factor):
            raise ValueError(f"factor must be >= 1 and finite, got {self.factor}")

    def active_at(self, t: float) -> bool:
        return self.start_s <= t < self.start_s + self.duration_s


@dataclass(frozen=True)
class TransientSpec:
    """Each dispatch fails with probability ``prob`` (seeded RNG draw).

    ``worker=None`` applies to every worker; a window restricts the
    exposure in time.  The failed batch burns its full service time —
    the error is discovered at completion, not at launch.
    """

    prob: float
    worker: Optional[int] = None
    start_s: float = 0.0
    end_s: float = math.inf

    def __post_init__(self) -> None:
        if not (0.0 <= self.prob < 1.0):
            raise ValueError(f"prob must be in [0, 1), got {self.prob}")
        if not (self.start_s >= 0):
            raise ValueError(f"start_s must be >= 0, got {self.start_s}")
        if not (self.end_s > self.start_s):
            raise ValueError("end_s must be after start_s")

    def covers(self, worker: int, t: float) -> bool:
        if self.worker is not None and self.worker != worker:
            return False
        return self.start_s <= t < self.end_s


FaultSpec = Union[CrashSpec, StragglerSpec, TransientSpec]


@dataclass(frozen=True)
class RecoveryConfig:
    """How the cluster responds to failures (all deterministic).

    ``heartbeat_interval_s`` — period of the health probe sweep; only
    armed when an injector with specs is configured, so fault-free runs
    see zero extra events.
    ``heartbeat_timeout_s`` — silence after which a missed-probe worker
    is marked down and its orphaned work recovered.
    ``max_retries`` — per-request budget of transient-error retries;
    the attempt that exhausts it lands the request in the terminal
    ``failed`` bucket.
    ``backoff_base_s`` / ``backoff_cap_s`` — retry delay is
    ``min(base * 2**(attempt-1), cap)`` plus deterministic jitter of up
    to ``backoff_jitter`` of the delay (drawn from the injector's RNG
    stream), decorrelating retry storms without wall-clock randomness.
    ``requeue`` — recover a down worker's orphaned requests onto healthy
    workers (oldest deadline first); ``False`` fails them instead (the
    no-recovery baseline the chaos experiment contrasts against).
    ``breaker_threshold`` — when set, every worker gets a
    :class:`~repro.cluster.pool.CircuitBreaker` that opens once this
    fraction of its last ``breaker_window`` dispatches (at least
    ``breaker_min_samples`` of them) failed transiently; the router then
    holds new traffic off the worker for ``breaker_cooldown_s`` before a
    half-open probe.  This catches **grey failures** heartbeats cannot:
    a worker that answers every probe while failing most of its work.
    ``None`` (the default) disables breakers entirely — existing
    configurations behave bit-for-bit as before.
    """

    heartbeat_interval_s: float = 1e-3
    heartbeat_timeout_s: float = 2e-3
    max_retries: int = 3
    backoff_base_s: float = 1e-4
    backoff_cap_s: float = 2e-3
    backoff_jitter: float = 0.1
    requeue: bool = True
    breaker_threshold: Optional[float] = None
    breaker_window: int = 8
    breaker_min_samples: int = 4
    breaker_cooldown_s: float = 2e-3

    def __post_init__(self) -> None:
        if not (self.heartbeat_interval_s > 0):
            raise ValueError(
                f"heartbeat_interval_s must be positive, got {self.heartbeat_interval_s}"
            )
        if not (self.heartbeat_timeout_s > 0):
            raise ValueError(
                f"heartbeat_timeout_s must be positive, got {self.heartbeat_timeout_s}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if not (self.backoff_base_s >= 0) or not (self.backoff_cap_s >= 0):
            raise ValueError("backoff delays must be >= 0")
        if not (0.0 <= self.backoff_jitter <= 1.0):
            raise ValueError(f"backoff_jitter must be in [0, 1], got {self.backoff_jitter}")
        if self.breaker_threshold is not None and not (
            0.0 < self.breaker_threshold <= 1.0
        ):
            raise ValueError(
                f"breaker_threshold must be in (0, 1] or None, got {self.breaker_threshold}"
            )
        if self.breaker_min_samples < 1:
            raise ValueError(
                f"breaker_min_samples must be >= 1, got {self.breaker_min_samples}"
            )
        if self.breaker_window < self.breaker_min_samples:
            raise ValueError(
                f"breaker_window ({self.breaker_window}) must be >= "
                f"breaker_min_samples ({self.breaker_min_samples})"
            )
        if not (self.breaker_cooldown_s > 0):
            raise ValueError(
                f"breaker_cooldown_s must be positive, got {self.breaker_cooldown_s}"
            )

    def backoff_s(self, attempt: int) -> float:
        """Deterministic part of the ``attempt``-th retry delay (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        return min(self.backoff_base_s * (2.0 ** (attempt - 1)), self.backoff_cap_s)


class FaultInjector:
    """Interprets a list of :class:`FaultSpec` s for one simulation run.

    Deterministic: crash/rejoin instants and straggler windows come
    straight from the specs; transient failures and retry jitter come
    from one ``numpy`` RNG stream seeded by ``seed``, advanced only when
    a matching spec could actually fire.  Two runs with the same specs,
    seed and traffic are event-for-event identical; an injector with
    **no specs** never draws, never schedules, never multiplies — a run
    carrying one is byte-identical to a run with no injector at all
    (pinned by the property suite).
    """

    def __init__(self, specs: Sequence[FaultSpec] = (), seed: int = 0) -> None:
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.seed = seed
        self.crashes: Tuple[CrashSpec, ...] = tuple(
            s for s in self.specs if isinstance(s, CrashSpec)
        )
        self.stragglers: Tuple[StragglerSpec, ...] = tuple(
            s for s in self.specs if isinstance(s, StragglerSpec)
        )
        self.transients: Tuple[TransientSpec, ...] = tuple(
            s for s in self.specs if isinstance(s, TransientSpec)
        )
        unknown = [
            s
            for s in self.specs
            if not isinstance(s, (CrashSpec, StragglerSpec, TransientSpec))
        ]
        if unknown:
            raise TypeError(f"unknown fault spec(s): {unknown!r}")
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """True when any spec exists (gates heartbeats and RNG draws)."""
        return bool(self.specs)

    def validate_workers(self, workers: int) -> None:
        """Reject specs naming workers the pool does not have."""
        for spec in self.specs:
            wid = getattr(spec, "worker", None)
            if wid is not None and wid >= workers:
                raise ValueError(
                    f"fault spec {spec!r} names worker {wid}, but the pool "
                    f"has only {workers} workers (ids 0..{workers - 1})"
                )

    # ------------------------------------------------------------------
    def crash_events(self) -> List[Tuple[float, int]]:
        """``(at_s, worker)`` for every configured crash, in time order."""
        return sorted((s.at_s, s.worker) for s in self.crashes)

    def rejoin_events(self) -> List[Tuple[float, int]]:
        """``(at_s, worker)`` for every crash that rejoins, in time order."""
        return sorted(
            (s.at_s + s.down_for_s, s.worker)
            for s in self.crashes
            if s.down_for_s is not None
        )

    def service_factor(self, worker: int, t: float) -> float:
        """Straggler multiplier for a batch dispatched on ``worker`` at ``t``."""
        factor = 1.0
        for s in self.stragglers:
            if s.worker == worker and s.active_at(t):
                factor *= s.factor
        return factor

    def dispatch_fails(self, worker: int, t: float) -> bool:
        """Seeded draw: does the dispatch launched on ``worker`` at ``t`` fail?

        The RNG advances only when a transient spec covers the dispatch,
        so configurations without transient faults stay draw-for-draw
        identical to each other regardless of crash/straggler specs.
        """
        for s in self.transients:
            if s.covers(worker, t):
                if float(self._rng.random()) < s.prob:
                    return True
        return False

    def jitter(self, delay_s: float, jitter_frac: float) -> float:
        """Deterministic retry jitter: uniform ``[0, jitter_frac * delay]``."""
        if delay_s <= 0 or jitter_frac <= 0:
            return 0.0
        return float(self._rng.random()) * jitter_frac * delay_s

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(crashes={len(self.crashes)}, "
            f"stragglers={len(self.stragglers)}, "
            f"transients={len(self.transients)}, seed={self.seed})"
        )
