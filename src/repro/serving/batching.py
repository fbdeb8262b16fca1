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
  ``max_batch_size`` requests from it; within a queue, order is queue
  order (arrival order, unless a request was requeued).  Size-aware
  policies (:mod:`repro.cluster.policy`) instead inspect queues via
  :meth:`BatchScheduler.group_items` and pop specific members via
  :meth:`BatchScheduler.take`; deadline-aware ones ask the index.

**Index.**  Beside its queue, every group keeps its members in a
``bisect``-sorted list of ``(absolute deadline, arrival, insertion
seq)``, kept in step by every mutation.  Insertion seq equals queue
order: queues only ever append (:meth:`~BatchScheduler.enqueue`,
:meth:`~BatchScheduler.requeue`), and every removal keeps the survivors'
relative order.  So the list's head is the group's earliest deadline,
one bisect at ``now`` splits expired members from feasible ones, and
ties break by queue position.  What each query costs:

* :attr:`~BatchScheduler.pending` — O(1), a counter;
* :meth:`~BatchScheduler.expire` — O(groups) when nothing queued has
  expired (the list heads answer), a sweep of the affected groups when
  something has; :meth:`~BatchScheduler.earliest_deadline` — O(groups);
* :meth:`~BatchScheduler.most_urgent` — one bisect per group;
* :meth:`~BatchScheduler.take_urgent` — a slice of the list;
* a removed member leaves the list by one bisect, and the queue by a
  C-level ``deque.remove`` (nothing is rebuilt; a group emptied whole is
  dropped).

**Dispatch.**  :func:`execute_batch` runs a batch as one engine call
with a leading batch axis, packed by :func:`stack_batch_operands` — the
same packing the transport wire format ships.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from collections import deque
from operator import itemgetter
from typing import Callable, Deque, Dict, Hashable, Iterator, List, Optional, Tuple

import numpy as np

from ..core.salo import pattern_structure_key
from ..patterns.base import Band
from ..patterns.hybrid import HybridSparsePattern
from .request import AttentionRequest

__all__ = ["length_bucket", "Batch", "BatchScheduler", "stack_batch_operands", "execute_batch"]

# A queued request: (absolute deadline, arrival, insertion seq, request).
# The seq is unique within a scheduler, so comparing two entries never
# reaches the request.
_Entry = Tuple[float, float, int, AttentionRequest]
_REQUEST = itemgetter(3)
_SEQ = itemgetter(2)


def _due(index: List[_Entry], now: float) -> int:
    """How many entries of a sorted index have a deadline ``<= now``: the
    probe sorts after every such entry, whatever its arrival and seq."""
    return bisect_right(index, (now, math.inf, math.inf))


def length_bucket(n: int, floor: int = 16) -> int:
    """Smallest power of two >= ``n`` (at least ``floor``).

    Used to label scheduler queues by sequence-length class; requests
    only ever batch within a bucket (their plan keys pin the exact
    length unless ``pad_to_bucket`` relaxes it).
    """
    if n < 1:
        raise ValueError(f"sequence length must be >= 1, got {n}")
    if floor < 1:
        # doubling a floor of 0 (or below) never reaches n
        raise ValueError(f"floor must be >= 1, got {floor}")
    bucket = floor
    while bucket < n:
        bucket *= 2
    return bucket


def check_bucket_floor(bucket_floor: int) -> int:
    """``bucket_floor`` itself, refused below 1 by the constructors that
    take one (before any :func:`length_bucket` call could)."""
    if bucket_floor < 1:
        raise ValueError(f"bucket_floor must be >= 1, got {bucket_floor}")
    return bucket_floor


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
        _, bands, globals_, first = pattern_structure_key(self.requests[0].pattern)
        return HybridSparsePattern(self.pad_to, [Band(*b) for b in bands], globals_, first)

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

    def execute(self, engine) -> Tuple[List[np.ndarray], List[object]]:
        """Run the batch on ``engine``: :func:`execute_batch`."""
        return execute_batch(engine, self)

    def rows(self, output: np.ndarray) -> List[np.ndarray]:
        """Each member's rows of a stacked ``(b, n, hidden)`` output, cut to its length."""
        return [output[i, : r.n] for i, r in enumerate(self.requests)]

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
        self.bucket_floor = check_bucket_floor(bucket_floor)
        self.pad_to_bucket = pad_to_bucket
        # group key -> (entries in queue order, the same entries sorted);
        # a group exists only while it holds a request
        self._groups: Dict[Tuple, Tuple[Deque[_Entry], List[_Entry]]] = {}
        self._seq = 0
        self._pending = 0

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

    def _append(self, key: Tuple, request: AttentionRequest) -> None:
        self._seq += 1
        entry = (request.absolute_deadline_s, request.arrival_s, self._seq, request)
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = (deque(), [])
        group[0].append(entry)
        insort(group[1], entry)
        self._pending += 1

    def enqueue(self, request: AttentionRequest, key: Optional[Tuple] = None) -> Tuple:
        """Queue a request; returns its group key (``key``, when the caller
        already derived it with :meth:`group_key`)."""
        if key is None:
            key = self.group_key(request)
        self._append(key, request)
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
        for key, (queue, _) in self._groups.items():
            arrival = queue[0][1]
            if best_arrival is None or arrival < best_arrival:
                best_key, best_arrival = key, arrival
        if best_key is None:
            return None
        return self.take(best_key)

    # ------------------------------------------------------------------
    # Removal: every path keeps the queue and the index in step
    # ------------------------------------------------------------------
    def _popped(self, key: Tuple, entries: List[_Entry]) -> List[AttentionRequest]:
        """``entries`` just left ``key``'s queue: drop them from its index."""
        queue, index = self._groups[key]
        for entry in entries:
            del index[bisect_left(index, entry)]
        self._pending -= len(entries)
        if not queue:
            del self._groups[key]
        return [entry[3] for entry in entries]

    def _remove(self, key: Tuple, entries: List[_Entry]) -> List[AttentionRequest]:
        """Remove ``entries`` (distinct members of ``key``) from its queue
        and index; returns them in queue order, which is seq order."""
        queue = self._groups[key][0]
        if len(entries) == len(queue):
            del self._groups[key]
            self._pending -= len(queue)
            return list(map(_REQUEST, queue))
        for entry in entries:
            queue.remove(entry)  # seqs are unique: only the entry itself compares equal
        return self._popped(key, sorted(entries, key=_SEQ))

    # ------------------------------------------------------------------
    # Policy interface: peek queues, pop selected members
    # ------------------------------------------------------------------
    def group_items(self) -> List[Tuple[Tuple, Tuple[AttentionRequest, ...]]]:
        """Read-only snapshot of the non-empty queues (key, members)."""
        return [
            (key, tuple(map(_REQUEST, queue))) for key, (queue, _) in self._groups.items()
        ]

    def take(
        self,
        key: Tuple,
        count: Optional[int] = None,
        order: Optional[Callable[[AttentionRequest], float]] = None,
    ) -> Optional[Batch]:
        """Pop up to ``count`` requests of one group as a batch.

        ``count`` defaults to (and is capped by) ``max_batch_size``.
        Without ``order`` the queue head is served (queue order); with
        ``order`` the ``count`` members minimising the sort key are
        popped instead, queue position breaking ties, keeping the
        remaining members in queue order.
        """
        group = self._groups.get(key)
        if group is None:
            return None
        queue = group[0]
        count = self.max_batch_size if count is None else min(count, self.max_batch_size)
        count = min(count, len(queue))
        if order is None:
            members = self._popped(key, [queue.popleft() for _ in range(count)])
        else:
            entries = list(queue)
            ranked = sorted(range(len(entries)), key=lambda i: (order(entries[i][3]), i))
            members = self._remove(key, [entries[i] for i in ranked[:count]])
        return self._make_batch(key, members)

    def most_urgent(self, now: float) -> Iterator[Tuple[Tuple, Tuple[bool, float, float]]]:
        """``(key, urgency)`` per group, in group order.

        ``urgency`` is ``(expired, absolute deadline, arrival)`` of the
        group's most urgent member at ``now``: its earliest deadline still
        ahead of ``now`` (``expired`` False), or — every member expired —
        its earliest deadline.  One bisect per group.
        """
        for key, (_, index) in self._groups.items():
            i = _due(index, now)
            head = index[i] if i < len(index) else index[0]
            yield key, (i == len(index), head[0], head[1])

    def take_urgent(self, key: Tuple, now: float) -> Batch:
        """Pop the ``max_batch_size`` most urgent members of ``key`` at ``now``.

        Unexpired members go first by (deadline, arrival, queue
        position), then expired ones by the same key; the batch lists
        its members in queue order.  Exactly the members
        ``take(key, order=lambda r: (r.absolute_deadline_s <= now,
        r.absolute_deadline_s, r.arrival_s))`` pops, read off the index.
        """
        index = self._groups[key][1]
        count = min(self.max_batch_size, len(index))
        i = _due(index, now)
        feasible = min(count, len(index) - i)
        chosen = index[i : i + feasible] + index[: count - feasible]
        return self._make_batch(key, self._remove(key, chosen))

    def expire(self, now: float) -> List[AttentionRequest]:
        """Remove and return every queued request whose absolute deadline
        is ``<= now``: ``prune(lambda r: r.absolute_deadline_s <= now)``,
        same requests, same order.

        The index heads answer in O(groups) when nothing has expired;
        otherwise only the groups whose head has are swept.
        """
        removed: List[AttentionRequest] = []
        for key in [key for key, (_, index) in self._groups.items() if index[0][0] <= now]:
            index = self._groups[key][1]
            removed.extend(self._remove(key, index[: _due(index, now)]))
        return removed

    def earliest_deadline(self) -> float:
        """The earliest absolute deadline queued (``inf`` when nothing is):
        the least of the index heads."""
        return min((index[0][0] for _, index in self._groups.values()), default=math.inf)

    def prune(self, predicate: Callable[[AttentionRequest], bool]) -> List[AttentionRequest]:
        """Remove and return every queued request matching ``predicate``.

        Load-shedding and recovery hook.  Survivors keep their queue and
        their relative order; emptied queues are deleted.  The removed
        requests are returned group by group (groups in creation order),
        in queue order within a group — which is arrival order unless a
        request was requeued — so callers can account for them
        deterministically.
        """
        removed: List[AttentionRequest] = []
        for key in list(self._groups):
            entries = [entry for entry in self._groups[key][0] if predicate(entry[3])]
            if entries:
                removed.extend(self._remove(key, entries))
        return removed

    def steal(self, count: int) -> List[AttentionRequest]:
        """Pop up to ``count`` requests from the back of the deepest queue.

        Work-stealing donor side: the stolen requests are the ones this
        scheduler would have reached last (its deepest group's tail), in
        queue order, ready to :meth:`requeue` on the thief.
        """
        if count < 1:
            return []
        victim_key = None
        depth = 0
        for key, (queue, _) in self._groups.items():
            if len(queue) > depth:
                victim_key, depth = key, len(queue)
        if victim_key is None:
            return []
        queue = self._groups[victim_key][0]
        stolen = [queue.pop() for _ in range(min(count, depth))][::-1]
        return self._popped(victim_key, stolen)

    def requeue(self, requests: List[AttentionRequest]) -> None:
        """Give requests (back) to this scheduler — work stealing path.

        Each goes to the back of its group's queue."""
        for request in requests:
            self._append(self.group_key(request), request)

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of queued requests."""
        return self._pending

    def __len__(self) -> int:
        return self._pending

    def pending_by_bucket(self) -> Dict[int, int]:
        """Queue depth per length bucket (observability)."""
        depths: Dict[int, int] = {}
        for key, (queue, _) in self._groups.items():
            bucket = key[-1]
            depths[bucket] = depths.get(bucket, 0) + len(queue)
        return depths


# ----------------------------------------------------------------------
# One engine dispatch per batch
# ----------------------------------------------------------------------
def stack_batch_operands(
    requests, pattern, out=None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Stack member operands into one ``(b, n, hidden)`` dispatch shape.

    Uniform-length members stack directly (``valid_lens`` is ``None``);
    mixed-length members are zero-padded to ``pattern.n`` (the batch's
    execution length) with their true lengths returned as ``valid_lens``
    for tail masking.  This is the *single* packing used by both the
    local dispatch path (:func:`execute_batch`) and the transport wire
    format (:func:`repro.transport.base.stacked_operands` re-exports
    it; a multiprocess transport stacks straight into its shared-memory
    slot), so what ships over shared memory cannot drift from what a
    same-process engine would see.

    ``out`` is an optional ``(q, k, v)`` triple of float64 ``(b,
    pattern.n, hidden)`` arrays to stack into instead of fresh ones;
    every cell is written, so stale contents do not matter.  Every member
    is checked before anything is written: one whose ``hidden`` differs
    from the first member's, or whose length exceeds ``pattern.n``,
    raises ``ValueError`` naming its ``request_id``.
    """
    n_pad, hidden = pattern.n, requests[0].hidden
    for r in requests:
        if r.hidden != hidden or r.n > n_pad:
            raise ValueError(
                f"request {r.request_id!r}: operands of shape {r.q.shape} do not "
                f"fit the batch's (n, hidden) = ({n_pad}, {hidden})"
            )
    lens = [r.n for r in requests]
    if out is None:
        out = tuple(np.empty((len(requests), n_pad, hidden)) for _ in range(3))
    for i, r in enumerate(requests):
        for dst, src in zip(out, (r.q, r.k, r.v)):
            dst[i, : r.n] = src
            if r.n < n_pad:
                dst[i, r.n :] = 0.0
    padded = any(n != n_pad for n in lens)
    return (*out, np.asarray(lens, dtype=np.int64) if padded else None)


def execute_batch(engine, batch: Batch) -> Tuple[List[np.ndarray], List[object]]:
    """One engine dispatch for a batch; returns per-request outputs.

    ``engine`` is anything with the attend contract — a
    :class:`~repro.core.salo.SALO` instance or a
    :class:`~repro.api.protocol.AttentionBackend` adapter.  Uniform-length
    batches stack members on a leading batch axis (bit-identical to
    per-request calls); mixed-length padded batches zero-pad members to
    the bucket length, mask the tails via ``valid_lens`` and slice
    outputs back.  Engines without a batch axis (``supports_batch``
    False, e.g. the systolic micro-simulator) fall back to a per-request
    loop — arithmetic identical to the stacked dispatch, minus the
    amortisation.  In the package it runs under
    :class:`~repro.cluster.pool.MeasuredClock`, whose launch hands each
    member's output and result to the batch's completion; real workers
    run the same stacking (:func:`stack_batch_operands`) on the far side
    of a transport, and :meth:`Batch.rows` splits what they send back.

    Returns ``(outputs, results)``, one entry per request.  A single
    batched dispatch repeats its one result object for every member
    (they genuinely share plan and stats); the serial fallback keeps
    each request's own result, whose stats describe that request's
    exact-length plan.
    """
    requests = batch.requests
    supports_batch = getattr(engine, "supports_batch", True)
    supports_lens = getattr(engine, "supports_valid_lens", True)
    serial = (
        batch.size == 1
        or not supports_batch
        or (batch.mixed_lengths and not supports_lens)
    )
    if serial:
        # Per-request loop: each member runs its own exact-length
        # pattern, so no padding (and no valid_lens support) is needed.
        results = [
            engine.attend(r.pattern, r.q, r.k, r.v, heads=r.heads) for r in requests
        ]
        return [res.output for res in results], results
    pattern = batch.execution_pattern()
    q, k, v, lens = stack_batch_operands(requests, pattern)
    if lens is None:
        result = engine.attend(pattern, q, k, v, heads=batch.heads)
    else:  # padded cross-length batch: one bucket-length plan, masked tails
        result = engine.attend(pattern, q, k, v, heads=batch.heads, valid_lens=lens)
    return batch.rows(result.output), [result] * batch.size
