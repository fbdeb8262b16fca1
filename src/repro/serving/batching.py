"""Length bucketing and plan-keyed batch formation.

The batch scheduler turns a stream of :class:`AttentionRequest` objects
into same-plan batches the engine can execute as one dispatch:

* **Group key** — requests batch together only when they are guaranteed
  to produce the same execution plan: identical pattern structure (band
  geometry, global tokens, sequence length), head count and hidden size.
  The structural part mirrors ``SALO._plan_key``, so every request of a
  batch hits the same plan-cache entry.  Opaque patterns (no band
  decomposition) cannot prove structural equality, so the scheduler
  queues them as singleton batches — note that
  :meth:`~repro.serving.session.ServingSession.submit` rejects them up
  front, since SALO cannot schedule a pattern without band structure.
* **Length bucket** — queues are additionally labelled with the
  power-of-two bucket of the sequence length.  Buckets make queue
  observability explicit: ``pending_by_bucket`` reports queue depth per
  (structure, bucket).
* **Cross-length padding** (``pad_to_bucket=True``) — the group key
  drops the exact sequence length, so same-band-structure requests of
  different lengths share a queue within their bucket.  Mixed-length
  batches execute under one bucket-length plan with zero-padded tails
  masked out of the softmax (``SALO.attend(valid_lens=...)``) and
  outputs sliced back — raising batch occupancy under long-tail length
  distributions at the cost of padded-lane compute.
* **FIFO fairness** — :meth:`BatchScheduler.next_batch` always serves
  the queue whose head request arrived earliest, taking up to
  ``max_batch_size`` requests from it; within a queue, order is arrival
  order.  Deadline- or size-aware policies (:mod:`repro.cluster.policy`)
  instead inspect queues via :meth:`BatchScheduler.group_items` and pop
  specific members via :meth:`BatchScheduler.take`.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Callable, Deque, Dict, Hashable, List, Optional, Tuple

from ..core.salo import pattern_structure_key
from ..patterns.hybrid import HybridSparsePattern
from .request import AttentionRequest

__all__ = ["length_bucket", "Batch", "BatchScheduler"]


def length_bucket(n: int, floor: int = 16) -> int:
    """Smallest power of two >= ``n`` (at least ``floor``).

    Used to label scheduler queues by sequence-length class; requests
    only ever batch within a bucket (their plan keys pin the exact
    length unless ``pad_to_bucket`` relaxes it).
    """
    if n < 1:
        raise ValueError(f"sequence length must be >= 1, got {n}")
    bucket = floor
    while bucket < n:
        bucket *= 2
    return bucket


class Batch:
    """A group of requests guaranteed to share one execution plan.

    ``pad_to`` is the bucket length mixed-length members are padded to
    (``None`` for exact-length batches); :meth:`padded_pattern` rebuilds
    the shared band structure at that length.
    """

    def __init__(
        self,
        requests: List[AttentionRequest],
        key: Hashable,
        bucket: int,
        pad_to: Optional[int] = None,
    ) -> None:
        if not requests:
            raise ValueError("a batch needs at least one request")
        self.requests = list(requests)
        self.key = key
        self.bucket = bucket
        self.pad_to = pad_to

    @property
    def size(self) -> int:
        return len(self.requests)

    @property
    def pattern(self):
        return self.requests[0].pattern

    @property
    def heads(self) -> int:
        return self.requests[0].heads

    @property
    def n(self) -> int:
        return self.requests[0].n

    @property
    def mixed_lengths(self) -> bool:
        """True when members differ in sequence length (padding needed)."""
        first = self.requests[0].n
        return any(r.n != first for r in self.requests)

    def execution_pattern(self):
        """The pattern the engine dispatch runs.

        Exact-length (or uniform-length) batches run the members' own
        pattern; mixed-length padded batches run the shared band
        structure rebuilt at the ``pad_to`` bucket length.
        """
        if self.pad_to is None or not self.mixed_lengths:
            return self.requests[0].pattern
        return self.padded_pattern()

    def padded_pattern(self) -> HybridSparsePattern:
        """The members' band structure at the ``pad_to`` bucket length."""
        if self.pad_to is None:
            raise ValueError("batch was not formed in pad_to_bucket mode")
        first = self.requests[0].pattern
        return HybridSparsePattern(
            self.pad_to, first.bands(), first.global_tokens(), first.first_query
        )

    def plan_key(self) -> Tuple:
        """Identity of the SALO plan this batch's dispatch compiles to.

        Finer than the group key in ``pad_to_bucket`` mode: one padded
        group key covers both the exact-length plan (uniform-length
        batches) and the bucket-length plan (mixed ones), and warm-plan
        accounting must tell them apart.
        """
        first = self.requests[0]
        return (
            pattern_structure_key(self.execution_pattern()),
            first.heads,
            first.head_dim,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Batch(size={self.size}, n={self.n}, bucket={self.bucket})"


class BatchScheduler:
    """Groups queued requests by plan key and length bucket (FIFO)."""

    def __init__(
        self,
        max_batch_size: int = 8,
        bucket_floor: int = 16,
        pad_to_bucket: bool = False,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        self.max_batch_size = max_batch_size
        self.bucket_floor = bucket_floor
        self.pad_to_bucket = pad_to_bucket
        self._queues: "OrderedDict[Tuple, Deque[AttentionRequest]]" = OrderedDict()

    # ------------------------------------------------------------------
    def group_key(self, request: AttentionRequest) -> Tuple:
        """(structural plan key, length bucket) for a request.

        The structural part is :func:`~repro.core.salo.pattern_structure_key`
        — the same definition the SALO plan cache keys on — so two
        requests with equal keys are guaranteed to compile to the same
        plan and may execute as one batched engine dispatch.  In
        ``pad_to_bucket`` mode the exact sequence length is dropped from
        the key (only bands, globals, the first query and the bucket
        remain): members may then differ in length and batch via padded
        tails.
        """
        bucket = length_bucket(request.n, self.bucket_floor)
        structure = pattern_structure_key(request.pattern)
        if structure is None:
            # Opaque pattern: structural equality is unprovable, so the
            # request gets a private queue (and a singleton batch).  The
            # request's identity keeps the key pure and repeatable; the
            # queue only lives while the request is queued.
            return ("opaque", id(request), bucket)
        if self.pad_to_bucket:
            _, bands, globals_, first = structure
            return ("padded", bands, globals_, first, request.heads, request.hidden, bucket)
        return structure + (request.heads, request.hidden, bucket)

    def enqueue(self, request: AttentionRequest) -> Tuple:
        """Queue a request; returns its group key."""
        key = self.group_key(request)
        self._queues.setdefault(key, deque()).append(request)
        return key

    def _make_batch(self, key: Tuple, members: List[AttentionRequest]) -> Batch:
        bucket = key[-1]
        pad_to = bucket if (self.pad_to_bucket and key[0] == "padded") else None
        return Batch(members, key=key, bucket=bucket, pad_to=pad_to)

    def next_batch(self) -> Optional[Batch]:
        """Pop the next batch, or ``None`` when nothing is queued.

        Serves the queue whose head request has waited longest, so no
        pattern family can starve another under mixed traffic.
        """
        best_key = None
        best_arrival = None
        for key, queue in self._queues.items():
            if not queue:
                continue
            arrival = queue[0].arrival_s
            if best_arrival is None or arrival < best_arrival:
                best_key, best_arrival = key, arrival
        if best_key is None:
            return None
        return self.take(best_key)

    # ------------------------------------------------------------------
    # Policy interface: peek queues, pop selected members
    # ------------------------------------------------------------------
    def group_items(self) -> List[Tuple[Tuple, Tuple[AttentionRequest, ...]]]:
        """Read-only snapshot of the non-empty queues (key, members)."""
        return [(key, tuple(q)) for key, q in self._queues.items() if q]

    def take(
        self,
        key: Tuple,
        count: Optional[int] = None,
        order: Optional[Callable[[AttentionRequest], float]] = None,
    ) -> Optional[Batch]:
        """Pop up to ``count`` requests of one group as a batch.

        ``count`` defaults to (and is capped by) ``max_batch_size``.
        Without ``order`` the queue head is served (arrival order); with
        ``order`` the ``count`` members minimising the sort key are
        popped instead — deadline-aware policies use this to serve the
        most urgent members first — keeping the remaining members in
        arrival order.
        """
        queue = self._queues.get(key)
        if not queue:
            return None
        count = self.max_batch_size if count is None else min(count, self.max_batch_size)
        count = min(count, len(queue))
        if order is None:
            members = [queue.popleft() for _ in range(count)]
        else:
            indexed = sorted(range(len(queue)), key=lambda i: (order(queue[i]), i))
            chosen = set(indexed[:count])
            members = [queue[i] for i in sorted(chosen)]
            remaining = [queue[i] for i in range(len(queue)) if i not in chosen]
            queue.clear()
            queue.extend(remaining)
        if not queue:
            del self._queues[key]
        return self._make_batch(key, members)

    def prune(self, predicate: Callable[[AttentionRequest], bool]) -> List[AttentionRequest]:
        """Remove and return every queued request matching ``predicate``.

        Load-shedding hook: a ``drop_expired`` policy sweeps out requests
        whose deadline can no longer be met before closing a batch.
        Survivors keep their queue and their relative order; emptied
        queues are deleted.  The removed requests are returned in queue
        insertion order (then arrival order within a queue) so callers
        can account for them deterministically.
        """
        removed: List[AttentionRequest] = []
        for key in list(self._queues):
            queue = self._queues[key]
            kept: List[AttentionRequest] = []
            hit = False
            for request in queue:
                if predicate(request):
                    removed.append(request)
                    hit = True
                else:
                    kept.append(request)
            if not hit:
                continue
            if kept:
                self._queues[key] = deque(kept)
            else:
                del self._queues[key]
        return removed

    def steal(self, count: int) -> List[AttentionRequest]:
        """Pop up to ``count`` requests from the back of the deepest queue.

        Work-stealing donor side: the stolen requests are the ones this
        scheduler would have reached last (its deepest group's tail), in
        arrival order, ready to :meth:`requeue` on the thief.
        """
        if count < 1:
            return []
        victim_key = None
        for key, queue in self._queues.items():
            if queue and (victim_key is None or len(queue) > len(self._queues[victim_key])):
                victim_key = key
        if victim_key is None:
            return []
        queue = self._queues[victim_key]
        take = min(count, len(queue))
        stolen = [queue.pop() for _ in range(take)][::-1]
        if not queue:
            del self._queues[victim_key]
        return stolen

    def requeue(self, requests: List[AttentionRequest]) -> None:
        """Give requests (back) to this scheduler — work stealing path."""
        for request in requests:
            self._queues.setdefault(self.group_key(request), deque()).append(request)

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of queued requests."""
        return sum(len(q) for q in self._queues.values())

    def __len__(self) -> int:
        return self.pending

    def pending_by_bucket(self) -> Dict[int, int]:
        """Queue depth per length bucket (observability)."""
        depths: Dict[int, int] = {}
        for key, queue in self._queues.items():
            bucket = key[-1]
            depths[bucket] = depths.get(bucket, 0) + len(queue)
        return depths
