"""Admission control: decide at arrival whether a request enters at all.

Under sustained overload (offered load rho > 1) every queue-only system
degenerates the same way: backlogs grow without bound, every request
waits longer than its deadline, and goodput collapses even though the
engines never idle.  Admission control converts that collapse into an
explicit, accounted *rejection* at arrival time — the request is turned
away while the refusal is still cheap, instead of being served late when
it is worthless.

An :class:`AdmissionPolicy` is consulted once per arrival with an
:class:`AdmissionContext` describing the admitting entity's state —
queue depth, and a lazy cost-model estimate of the wait the request
would face.  The context is *lazy* on purpose: the estimate runs
``SALO.estimate`` (cheap after the plan cache warms, but not free), and
policies that never look at it (admit-all, queue-depth, token-bucket)
must not pay for it.

There is one door: the cluster control plane's admission step
(``ControlPlane._admit``), which every front goes through — the
simulator, real-worker transports, decode, and the in-process
:class:`~repro.serving.session.ServingSession`.  The module lives in the
serving layer because the plane is built from serving pieces
(``repro.cluster`` re-exports everything here).

Policies
--------
* :class:`AdmitAll` — the null policy; the pre-overload-control
  behaviour, kept explicit so sweeps can name it.
* :class:`QueueDepthCap` — classic bounded buffer: reject once the
  admitting entity already holds ``max_depth`` requests (queued plus
  executing).  Bounds memory and worst-case wait by construction.
* :class:`EstimatedWaitCap` — deadline-aware: reject a request whose
  estimated wait plus own service already exceeds its latency budget
  (it is *doomed at arrival* — admitting it only adds queueing delay to
  everyone behind it).  An optional absolute ``max_wait_s`` also bounds
  deadline-free traffic.
* :class:`TokenBucketAdmission` — per-SLO-class rate limiting (the
  multi-tenant quota): each class owns a token bucket refilled at its
  contracted rate; a class bursting above its quota is rejected without
  touching the others' capacity.

All policies are deterministic: their decisions depend only on the
request, the context, and (for the token bucket) their own arithmetic
state — never on a wall clock or an RNG — so simulations that use them
stay replayable.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Mapping, Optional, Tuple, Type

from .request import AttentionRequest

__all__ = [
    "AdmissionContext",
    "AdmissionPolicy",
    "AdmitAll",
    "QueueDepthCap",
    "EstimatedWaitCap",
    "TokenBucketAdmission",
    "ADMISSIONS",
    "make_admission",
    "queue_drain_estimate",
]


def queue_drain_estimate(
    depth: int,
    unit_s: float,
    batch_overhead_s: float = 0.0,
    max_batch_size: Optional[int] = None,
) -> float:
    """Cost-model time to drain a backlog of ``depth`` requests.

    The batch-amortisation-aware wait model: the backlog is served in
    batches of at most ``max_batch_size``, and under the cost model a
    batch of ``B`` costs ``B * unit_s + batch_overhead_s``.  Draining
    ``depth`` requests therefore takes

        ``depth * unit_s + ceil(depth / max_batch_size) * batch_overhead_s``

    which is what an arriving request actually waits before a batch slot
    opens.  The previous ``depth * unit + overhead`` shorthand charged
    one overhead regardless of backlog, so under deep queues it
    under-estimated the wait by ``(ceil(depth/B) - 1) * overhead`` and
    doom-admitted requests the drain model correctly turns away; with an
    empty queue it charged an overhead no request would wait for.  The
    drain estimate is exact for a FIFO backlog of equal-cost requests,
    and still O(1) and deterministic.

    ``max_batch_size`` is **required**: every admission door knows its
    scheduler's cap, and an uncapped call silently degenerated to the
    single-overhead shorthand this function exists to replace (one batch
    overhead charged for any depth — monotone-in-depth only by luck of
    the ``unit_s`` term, wrong by ``(ceil(depth/B) - 1) * overhead``
    under deep queues).
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if max_batch_size is None or max_batch_size < 1:
        raise ValueError(
            f"max_batch_size must be a positive batch cap, got {max_batch_size!r}; "
            "pass the admitting scheduler's max_batch_size"
        )
    if depth == 0:
        return 0.0
    batches = -(-depth // max_batch_size)  # ceil
    return depth * unit_s + batches * batch_overhead_s


class AdmissionContext:
    """State of the admitting entity at one arrival.

    ``depth`` is the number of requests the entity already holds (queued
    plus executing).  ``estimated_wait_s`` / ``estimated_service_s`` come
    from a lazily-invoked estimator — ``(wait, service)`` in seconds from
    the cost model — evaluated at most once, and only when a policy
    actually reads them.
    """

    def __init__(
        self,
        now: float,
        depth: int,
        estimator: Callable[[], Tuple[float, float]],
    ) -> None:
        self.now = now
        self.depth = depth
        self._estimator = estimator
        self._estimate: Optional[Tuple[float, float]] = None

    def _ensure(self) -> Tuple[float, float]:
        if self._estimate is None:
            self._estimate = self._estimator()
        return self._estimate

    @property
    def estimated_wait_s(self) -> float:
        """Cost-model wait before the request would start service."""
        return self._ensure()[0]

    @property
    def estimated_service_s(self) -> float:
        """Cost-model service time of the request itself."""
        return self._ensure()[1]


class AdmissionPolicy:
    """Accepts or rejects one request at arrival time."""

    name = "abstract"

    def admit(self, request: AttentionRequest, ctx: AdmissionContext) -> bool:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class AdmitAll(AdmissionPolicy):
    """No admission control (the pre-overload-control behaviour)."""

    name = "admit-all"

    def admit(self, request: AttentionRequest, ctx: AdmissionContext) -> bool:
        return True


class QueueDepthCap(AdmissionPolicy):
    """Reject once the admitting entity holds ``max_depth`` requests."""

    name = "queue-depth"

    def __init__(self, max_depth: int = 64) -> None:
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        self.max_depth = max_depth

    def admit(self, request: AttentionRequest, ctx: AdmissionContext) -> bool:
        return ctx.depth < self.max_depth

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(max_depth={self.max_depth})"


class EstimatedWaitCap(AdmissionPolicy):
    """Reject requests the cost model says are already doomed.

    A deadlined request is rejected when its estimated wait plus its own
    service time exceeds ``slack`` times its latency budget — serving it
    could only produce a deadline miss, so the batch slots it would burn
    are better spent on feasible work.  ``max_wait_s`` (optional) bounds
    the estimated wait of *any* request, deadline or not, which is how
    deadline-free bulk traffic gets back-pressure too.
    """

    name = "est-wait"

    def __init__(self, slack: float = 1.0, max_wait_s: Optional[float] = None) -> None:
        # NaN-safe comparisons: `not (x > 0)` rejects NaN, `x <= 0` doesn't.
        if not (slack > 0) or not math.isfinite(slack):
            raise ValueError(f"slack must be positive and finite, got {slack}")
        if max_wait_s is not None and not (max_wait_s >= 0):
            raise ValueError(f"max_wait_s must be >= 0, got {max_wait_s}")
        self.slack = slack
        self.max_wait_s = max_wait_s

    def admit(self, request: AttentionRequest, ctx: AdmissionContext) -> bool:
        if self.max_wait_s is not None and ctx.estimated_wait_s > self.max_wait_s:
            return False
        if request.deadline_s is not None:
            budget = self.slack * request.deadline_s
            if ctx.estimated_wait_s + ctx.estimated_service_s > budget:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(slack={self.slack}, max_wait_s={self.max_wait_s})"


class TokenBucketAdmission(AdmissionPolicy):
    """Per-SLO-class (and per-client) token buckets: multi-tenant quotas.

    ``rates`` keys are either a class name ``"bulk"`` — one bucket
    *shared* by every client of the class — or a composite
    ``("bulk", "tenant-a")`` key giving that client of that class its
    own dedicated bucket.  Each bucket refills at its contracted rate
    (requests per second) up to ``burst`` tokens; an arrival spends one
    token from its bucket or is rejected.  Quota lookup is most-specific
    first: the exact ``(slo_class, client_id)`` key, then the class-wide
    key, then ``default_rate`` (``None`` meaning unlimited).  With
    ``per_client=True`` a class-wide or default rate is applied *per
    client* — every ``(class, client)`` pair gets its own bucket at that
    rate — which is how one flooding client is shed without touching its
    well-behaved neighbours in the same class.

    A tenant exceeding its quota is shed at its own gate — it cannot
    crowd out another bucket's capacity, which is the isolation property
    per-tenant SLOs need.  The bucket state advances on the *caller's*
    clock (``ctx.now``), so inside the deterministic simulator the
    policy is as replayable as the event loop driving it.
    """

    name = "token-bucket"

    def __init__(
        self,
        rates: Optional[Mapping[object, float]] = None,
        default_rate: Optional[float] = None,
        burst: float = 4.0,
        per_client: bool = False,
    ) -> None:
        rates = dict(rates or {})
        for key, rate in rates.items():
            if isinstance(key, tuple):
                if len(key) != 2 or not isinstance(key[0], str):
                    raise ValueError(
                        "composite rate keys must be (slo_class, client_id) "
                        f"2-tuples, got {key!r}"
                    )
            elif not isinstance(key, str):
                raise ValueError(
                    f"rate keys must be a class name or (class, client) tuple, got {key!r}"
                )
            if not (rate > 0) or not math.isfinite(rate):
                raise ValueError(
                    f"rate for {key!r} must be positive and finite, got {rate}"
                )
        if default_rate is not None and (
            not (default_rate > 0) or not math.isfinite(default_rate)
        ):
            raise ValueError(f"default_rate must be positive and finite, got {default_rate}")
        if not (burst >= 1) or not math.isfinite(burst):
            raise ValueError(f"burst must be >= 1 and finite, got {burst}")
        self.rates = rates
        self.default_rate = default_rate
        self.burst = burst
        self.per_client = per_client
        # bucket key -> (tokens, last_t); keys mirror _resolve()'s choice
        self._buckets: Dict[object, Tuple[float, float]] = {}

    def _resolve(
        self, request: AttentionRequest
    ) -> Tuple[object, Optional[float]]:
        """(bucket key, rate) for a request — most-specific quota first."""
        composite = (request.slo_class, request.client_id)
        if request.client_id is not None and composite in self.rates:
            return composite, self.rates[composite]
        rate = self.rates.get(request.slo_class, self.default_rate)
        if self.per_client:
            return composite, rate
        return request.slo_class, rate

    def admit(self, request: AttentionRequest, ctx: AdmissionContext) -> bool:
        key, rate = self._resolve(request)
        if rate is None:
            return True  # no quota contracted for this class/client
        tokens, last = self._buckets.get(key, (self.burst, ctx.now))
        tokens = min(self.burst, tokens + max(ctx.now - last, 0.0) * rate)
        if tokens >= 1.0:
            self._buckets[key] = (tokens - 1.0, ctx.now)
            return True
        self._buckets[key] = (tokens, ctx.now)
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(rates={self.rates}, burst={self.burst})"


ADMISSIONS: Dict[str, Type[AdmissionPolicy]] = {
    AdmitAll.name: AdmitAll,
    QueueDepthCap.name: QueueDepthCap,
    EstimatedWaitCap.name: EstimatedWaitCap,
    TokenBucketAdmission.name: TokenBucketAdmission,
}


def make_admission(name: str, **kwargs) -> AdmissionPolicy:
    """Instantiate an admission policy by registry name (CLI / sweeps)."""
    if name not in ADMISSIONS:
        raise KeyError(f"unknown admission policy {name!r}; known: {sorted(ADMISSIONS)}")
    return ADMISSIONS[name](**kwargs)
