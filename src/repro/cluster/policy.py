"""Batch-close policies: *when* to dispatch, not just which queue to pop.

The serving layer's :class:`~repro.serving.batching.BatchScheduler`
groups requests into same-plan queues; a :class:`BatchPolicy` decides
when a worker should close one of those queues into a batch.  The
decision trades batch occupancy (amortised dispatch cost, higher
throughput) against queueing delay (deadline risk):

* :class:`GreedyFIFOPolicy` — dispatch immediately, longest-waiting
  queue head first (what :meth:`BatchScheduler.next_batch` does; the
  PR 2 serving behaviour).
* :class:`MaxWaitPolicy` — hold a queue open until it fills
  ``max_batch_size`` or its head has waited ``max_wait_s``; bounded
  batching delay with better occupancy under trickle traffic.
* :class:`SizeLatencyPolicy` — the explicit size-vs-latency tradeoff:
  dispatch at ``target_size`` (below the scheduler's maximum), waiting
  at most ``max_wait_s``.
* :class:`EDFPolicy` — earliest-deadline-first across queues *and*
  members: the queue holding the most urgent request is served first and
  its most urgent members ride the batch.  Work-conserving; requests
  without a deadline sort after all deadlined ones (by arrival), and
  *expired* requests (deadline already missed) sort after everything —
  doomed work must never displace feasible work.
* :class:`WeightedFairPolicy` — multi-tenant fairness: deficit
  round-robin over SLO classes with per-class weights.  Under sustained
  backlog each class's share of served requests converges to its weight
  share, so a flood from one tenant class cannot starve another.

Policies return a :class:`BatchDecision`: a batch to launch now, the
requests the policy itself shed, and/or the next instant the decision
could change without a new arrival (the simulator arms a timer for it).
All policies are deterministic functions of the queue snapshot, the
current time and (for :class:`WeightedFairPolicy`) their own deficit
counters — never of a wall clock or RNG — so the discrete-event
simulator stays replayable.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple, Type

from ..serving.batching import Batch, BatchScheduler
from ..serving.request import AttentionRequest

__all__ = [
    "BatchDecision",
    "BatchPolicy",
    "GreedyFIFOPolicy",
    "MaxWaitPolicy",
    "SizeLatencyPolicy",
    "EDFPolicy",
    "WeightedFairPolicy",
    "POLICIES",
    "make_policy",
    "recovery_order",
]

_EPS = 1e-12  # float slack when comparing "has waited long enough"


@dataclass
class BatchDecision:
    """Outcome of one policy consultation.

    ``batch`` — launch now (``None``: nothing ready).
    ``shed`` — requests the policy dropped (decode's TTFT-doomed waiters
    and lagging lanes, :class:`~repro.cluster.decode.ContinuousBatching`);
    the caller records them as shed, they will never be served.  Shedding
    past-deadline requests is the control plane's, before it consults.
    ``next_check_s`` — earliest future time the answer could change with
    no new arrival; the simulator arms a timer (``None``: only a new
    arrival or completion can change the answer).
    """

    batch: Optional[Batch] = None
    next_check_s: Optional[float] = None
    shed: Tuple[AttentionRequest, ...] = field(default=())


class BatchPolicy:
    """Decides when a worker closes a queue into a batch."""

    name = "abstract"

    def queue(self, config) -> BatchScheduler:
        """A worker's queue under this policy, sized by ``config`` (a
        :class:`~repro.cluster.simulator.ControlConfig`)."""
        return BatchScheduler(config.max_batch_size, config.bucket_floor, config.pad_to_bucket)

    def next_batch(self, queue: BatchScheduler, now: float) -> BatchDecision:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class GreedyFIFOPolicy(BatchPolicy):
    """Dispatch immediately: longest-waiting queue head, FIFO members."""

    name = "greedy-fifo"

    def next_batch(self, queue: BatchScheduler, now: float) -> BatchDecision:
        return BatchDecision(batch=queue.next_batch())


class MaxWaitPolicy(BatchPolicy):
    """Wait for fuller batches, but never longer than ``max_wait_s``.

    A queue is *ready* once it holds ``target_size`` requests (default:
    the scheduler's ``max_batch_size``) or its head request has waited
    ``max_wait_s``.  Among ready queues the longest-waiting head goes
    first; with none ready, the decision names the earliest expiry so
    the caller can re-consult exactly then.
    """

    name = "max-wait"

    def __init__(self, max_wait_s: float, target_size: Optional[int] = None) -> None:
        if not (max_wait_s >= 0):
            raise ValueError(f"max_wait_s must be >= 0, got {max_wait_s}")
        if target_size is not None and target_size < 1:
            raise ValueError(f"target_size must be >= 1, got {target_size}")
        self.max_wait_s = max_wait_s
        self.target_size = target_size

    def next_batch(self, queue: BatchScheduler, now: float) -> BatchDecision:
        target = self.target_size or queue.max_batch_size
        target = min(target, queue.max_batch_size)
        best_key: Optional[Tuple] = None
        best_arrival: Optional[float] = None
        next_expiry: Optional[float] = None
        for key, members in queue.group_items():
            head = members[0].arrival_s
            ready = len(members) >= target or (now - head) >= self.max_wait_s - _EPS
            if ready:
                if best_arrival is None or head < best_arrival:
                    best_key, best_arrival = key, head
            else:
                expiry = head + self.max_wait_s
                if next_expiry is None or expiry < next_expiry:
                    next_expiry = expiry
        if best_key is not None:
            return BatchDecision(batch=queue.take(best_key))
        return BatchDecision(next_check_s=next_expiry)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(max_wait_s={self.max_wait_s})"


class SizeLatencyPolicy(MaxWaitPolicy):
    """Dispatch at ``target_size`` members, waiting at most ``max_wait_s``.

    The explicit occupancy-vs-latency knob: target 1 degenerates to
    greedy FIFO, target ``max_batch_size`` to :class:`MaxWaitPolicy`.
    """

    name = "size-latency"

    def __init__(self, target_size: int, max_wait_s: float) -> None:
        super().__init__(max_wait_s=max_wait_s, target_size=target_size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(target_size={self.target_size}, "
            f"max_wait_s={self.max_wait_s})"
        )


def _urgency(request: AttentionRequest, now: float) -> Tuple[bool, float, float]:
    """EDF sort key at time ``now``: feasible first, then deadline, then arrival.

    ``absolute_deadline_s`` is ``inf`` for deadline-free requests, so
    best-effort traffic naturally yields to any *feasible* deadlined
    request.  A request whose deadline has already passed can no longer
    meet its SLO no matter when it is served, so the expired flag sorts
    it after every feasible request — including deadline-free ones, which
    can still complete "in time" — instead of letting its (small) stale
    deadline hijack the front of the order.
    """
    expired = request.absolute_deadline_s <= now
    return (expired, request.absolute_deadline_s, request.arrival_s)


def recovery_order(requests) -> list:
    """Oldest-deadline-first order for requeuing a down worker's orphans.

    The requests a crashed worker strands (its lost in-flight batch plus
    everything still queued) have already burned queueing time; the ones
    closest to their deadline have the least slack left, so recovery
    re-routes them first — the same urgency rule EDF dispatch uses, with
    arrival order breaking ties (and fully ordering best-effort traffic,
    whose deadline is ``inf``).
    """
    return sorted(requests, key=lambda r: (r.absolute_deadline_s, r.arrival_s))


class EDFPolicy(BatchPolicy):
    """Earliest-deadline-first with SLO classes (work-conserving).

    Serves the queue containing the globally most urgent request and
    fills the batch with that queue's most urgent members.  Batches stay
    same-plan (the scheduler's grouping invariant); urgency only decides
    *which* queue and *which* members.  Expired requests sort after all
    feasible ones (see :func:`_urgency`); a plane that sheds expired
    requests drops them before it consults the policy.

    The scheduler's urgency index answers both questions: one bisect at
    ``now`` per group names its most urgent member
    (:meth:`~repro.serving.batching.BatchScheduler.most_urgent`), and
    the batch is a slice of the winning group's index
    (:meth:`~repro.serving.batching.BatchScheduler.take_urgent`).  No
    member's urgency is computed.  Groups are compared in the order the
    scheduler created them, the first of equally urgent groups winning.
    """

    name = "edf"

    def next_batch(self, queue: BatchScheduler, now: float) -> BatchDecision:
        best_key: Optional[Tuple] = None
        best_urgency: Optional[Tuple[bool, float, float]] = None
        for key, urgency in queue.most_urgent(now):
            if best_urgency is None or urgency < best_urgency:
                best_key, best_urgency = key, urgency
        if best_key is None:
            return BatchDecision()
        return BatchDecision(batch=queue.take_urgent(best_key, now))


class WeightedFairPolicy(BatchPolicy):
    """Deficit round-robin over SLO classes: weighted multi-tenant shares.

    Each SLO class holds a credit balance.  When a batch slot opens, all
    *backlogged* classes (those with queued requests) are topped up in
    proportion to their weights until the richest class can afford a
    request, and that class is served: the queue whose earliest member of
    the class arrived first is closed, most urgent class members first.
    Every member of the dispatched batch — including same-plan members of
    other classes riding along to fill it — is charged to its own class,
    so under sustained backlog each class's share of served work
    converges to ``weight / sum(weights)``.  Credit of a class with
    nothing queued lapses (classic DRR), so an idle tenant cannot hoard
    a burst allowance.

    Charging is flat by default: every request costs one credit, so the
    converged share is a share of served *requests*.  With
    ``length_weighted=True`` a request instead costs
    ``n / length_unit`` credits — DRR's classic variable-quantum form,
    with sequence length standing in for service cost (the accelerator
    runs the plan once per sequence, so per-request service time scales
    with n at fixed structure).  The converged share is then a share of
    served *tokens*: a class sending 4x-longer requests completes ~4x
    fewer of them, instead of crowding out a short-request class of
    equal weight.

    The policy is stateful (the deficit counters persist across
    consultations) but strictly deterministic: credits evolve only
    through the decisions themselves.  Counters are kept *per queue* —
    one policy instance is shared by every worker of a simulated pool,
    and each worker's scheduler runs its own DRR round: lapsing or
    spending credit on one worker must not touch a class that is
    backlogged on another.
    """

    name = "weighted-fair"

    def __init__(
        self,
        weights: Optional[Mapping[str, float]] = None,
        default_weight: float = 1.0,
        length_weighted: bool = False,
        length_unit: float = 64.0,
    ) -> None:
        if not (length_unit > 0) or not math.isfinite(length_unit):
            raise ValueError(
                f"length_unit must be positive and finite, got {length_unit}"
            )
        self.length_weighted = length_weighted
        self.length_unit = length_unit
        weights = dict(weights or {})
        # `not (w > 0)` instead of `w <= 0`: NaN slips through the
        # latter and a NaN weight turns the credit top-up into an
        # infinite loop (every comparison with NaN is False).
        for cls, w in weights.items():
            if not (w > 0) or not math.isfinite(w):
                raise ValueError(
                    f"weight for class {cls!r} must be positive and finite, got {w}"
                )
        if not (default_weight > 0) or not math.isfinite(default_weight):
            raise ValueError(
                f"default_weight must be positive and finite, got {default_weight}"
            )
        self.weights = weights
        self.default_weight = default_weight
        # Weak keys: a dead worker queue must not leak its counters — or
        # worse, donate them to a fresh queue reusing its memory address.
        self._credit: "weakref.WeakKeyDictionary[BatchScheduler, Dict[str, float]]" = (
            weakref.WeakKeyDictionary()
        )

    def weight(self, slo_class: str) -> float:
        return self.weights.get(slo_class, self.default_weight)

    def charge(self, request: AttentionRequest) -> float:
        """Credits one served request costs its class (DRR quantum units)."""
        if not self.length_weighted:
            return 1.0
        return request.n / self.length_unit

    def credit(self, queue: BatchScheduler) -> Dict[str, float]:
        """This queue's deficit counters (one DRR round per worker queue)."""
        return self._credit.setdefault(queue, {})

    def next_batch(self, queue: BatchScheduler, now: float) -> BatchDecision:
        items = queue.group_items()
        if not items:
            return BatchDecision()
        backlogged = sorted({r.slo_class for _, members in items for r in members})
        # Idle classes lose their balance: DRR's no-hoarding rule.
        credit = {
            c: v for c, v in self.credit(queue).items() if c in backlogged
        }
        self._credit[queue] = credit
        total_weight = sum(self.weight(c) for c in backlogged)
        # A class is affordable when its credit covers the charge of its
        # earliest queued request (its DRR head).  Flat charging makes
        # every cost 1.0 — the classic one-credit rule — without paying
        # for the head scan over every queued request.
        if self.length_weighted:
            head: Dict[str, AttentionRequest] = {}
            for _, members in items:
                for r in members:
                    h = head.get(r.slo_class)
                    if h is None or r.arrival_s < h.arrival_s:
                        head[r.slo_class] = r
            cost = {c: self.charge(head[c]) for c in backlogged}
        else:
            cost = dict.fromkeys(backlogged, 1.0)
        while True:
            # max() keeps the first maximal element of the sorted class
            # list, so surplus ties break deterministically by name.
            chosen = max(backlogged, key=lambda c: credit.get(c, 0.0) - cost[c])
            if credit.get(chosen, 0.0) >= cost[chosen]:
                break
            for c in backlogged:
                credit[c] = credit.get(c, 0.0) + self.weight(c) / total_weight
        best_key: Optional[Tuple] = None
        best_arrival: Optional[float] = None
        for key, members in items:
            arrivals = [r.arrival_s for r in members if r.slo_class == chosen]
            if arrivals and (best_arrival is None or min(arrivals) < best_arrival):
                best_key, best_arrival = key, min(arrivals)
        batch = queue.take(
            best_key, order=lambda r: (r.slo_class != chosen, _urgency(r, now))
        )
        for r in batch.requests:
            credit[r.slo_class] = credit.get(r.slo_class, 0.0) - self.charge(r)
        return BatchDecision(batch=batch)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(weights={self.weights}, "
            f"length_weighted={self.length_weighted})"
        )


POLICIES: Dict[str, Type[BatchPolicy]] = {
    GreedyFIFOPolicy.name: GreedyFIFOPolicy,
    MaxWaitPolicy.name: MaxWaitPolicy,
    SizeLatencyPolicy.name: SizeLatencyPolicy,
    EDFPolicy.name: EDFPolicy,
    WeightedFairPolicy.name: WeightedFairPolicy,
}


def make_policy(name: str, **kwargs) -> BatchPolicy:
    """Instantiate a policy by registry name (CLI / experiment sweeps)."""
    if name not in POLICIES:
        raise KeyError(f"unknown policy {name!r}; known: {sorted(POLICIES)}")
    return POLICIES[name](**kwargs)
