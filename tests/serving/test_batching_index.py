"""Differential property: the indexed ``BatchScheduler`` against a naive
reference — plain deques and full scans — driven in lockstep.

Every operation the control plane and the policies use runs on both
sides with the same request objects; every return value (in order), the
pending count, the queue snapshot and the EDF decision must agree.
After every operation both sides also answer EDF's questions at every
``now`` of the grid, on copies.  Deadlines and arrivals come from small
grids, so ties (equal absolute deadlines, deadlines equal to ``now``,
``inf`` deadlines, ``now = inf``) are the common case rather than the
corner.  Breaking any tie-break of the index fails this test.
"""

import copy
from collections import OrderedDict, deque

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.policy import EDFPolicy, _urgency
from repro.patterns.library import longformer_pattern
from repro.serving import AttentionRequest, BatchScheduler

_PATTERNS = (longformer_pattern(16, 4, (0,)), longformer_pattern(32, 8, (0,)))
_ZEROS = {p.n: np.zeros((p.n, 2)) for p in _PATTERNS}
_ARRIVALS = (0.0, 1.0)
_DEADLINES = (None, 1.0, 2.0)  # absolute deadlines 1, 2, 3 or inf
_NOWS = (0.0, 1.0, 2.0, 2.5, 3.0, float("inf"))
_ORDERS = (
    lambda r: r.arrival_s,
    lambda r: -r.arrival_s,
    lambda r: _urgency(r, 1.5),
    lambda r: r.request_id % 3,
)


class _Reference:
    """The scheduler before it had an index: deques and scans."""

    def __init__(self, max_batch_size, group_key):
        self.max_batch_size = max_batch_size
        self.group_key = group_key
        self.queues = OrderedDict()

    @property
    def pending(self):
        return sum(len(q) for q in self.queues.values())

    def enqueue(self, request):
        self.queues.setdefault(self.group_key(request), deque()).append(request)

    def requeue(self, requests):
        for request in requests:
            self.enqueue(request)

    def group_items(self):
        return [(key, tuple(q)) for key, q in self.queues.items() if q]

    def next_batch(self):
        if not self.queues:
            return None
        key = min(self.queues, key=lambda k: self.queues[k][0].arrival_s)  # first earliest
        return self.take(key)

    def take(self, key, count=None, order=None):
        queue = self.queues.get(key)
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
            del self.queues[key]
        return key, members

    def prune(self, predicate):
        removed = []
        for key in list(self.queues):
            kept = []
            for request in self.queues[key]:
                (removed if predicate(request) else kept).append(request)
            if kept:
                self.queues[key] = deque(kept)
            else:
                del self.queues[key]
        return removed

    def steal(self, count):
        if count < 1 or not self.queues:
            return []
        key = max(self.queues, key=lambda k: len(self.queues[k]))  # first deepest
        queue = self.queues[key]
        stolen = [queue.pop() for _ in range(min(count, len(queue)))][::-1]
        if not queue:
            del self.queues[key]
        return stolen

    def edf(self, now):
        best_key = best = None
        for key, members in self.group_items():
            urgency = min(_urgency(r, now) for r in members)
            if best is None or urgency < best:
                best_key, best = key, urgency
        batch = None
        if best_key is not None:
            batch = self.take(best_key, order=lambda r: _urgency(r, now))
        return batch


def _ids(requests):
    return [r.request_id for r in requests]


def _batch(batch):
    return None if batch is None else (batch.key, _ids(batch.requests))


def _ref_batch(taken):
    return None if taken is None else (taken[0], _ids(taken[1]))


def _agree(sched, ref):
    """Same pending count and queues; at every ``now`` of the grid, the
    same most urgent member per group and the same EDF batch — the
    batch taken on copies, so the lockstep run goes on untouched."""
    assert sched.pending == len(sched) == ref.pending
    assert [(k, _ids(m)) for k, m in sched.group_items()] == [
        (k, _ids(m)) for k, m in ref.group_items()
    ]
    requests = {id(r): r for _, members in ref.group_items() for r in members}
    for now in _NOWS:
        assert list(sched.most_urgent(now)) == [
            (key, min(_urgency(r, now) for r in members)) for key, members in ref.group_items()
        ]
        got = EDFPolicy().next_batch(copy.deepcopy(sched, dict(requests)), now)
        assert _batch(got.batch) == _ref_batch(copy.deepcopy(ref, dict(requests)).edf(now))


_OPS = ("enqueue",) * 4 + ("next_batch", "take", "take_ordered", "prune", "expire",
                          "steal", "requeue", "edf", "edf")


@settings(max_examples=300)
@given(data=st.data(), max_batch=st.integers(1, 5))
def test_indexed_scheduler_matches_the_reference(data, max_batch):
    sched = BatchScheduler(max_batch_size=max_batch)
    ref = _Reference(max_batch, sched.group_key)
    loose = []  # requests that left both schedulers, free to requeue
    made = 0
    for op in data.draw(st.lists(st.sampled_from(_OPS), min_size=1, max_size=60)):
        if op == "enqueue":
            pattern = data.draw(st.sampled_from(_PATTERNS))
            zeros = _ZEROS[pattern.n]
            request = AttentionRequest(
                made, pattern, zeros, zeros, zeros,
                arrival_s=data.draw(st.sampled_from(_ARRIVALS)),
                deadline_s=data.draw(st.sampled_from(_DEADLINES)),
            )
            made += 1
            assert sched.enqueue(request) == sched.group_key(request)
            ref.enqueue(request)
        elif op == "next_batch":
            got = sched.next_batch()
            assert _batch(got) == _ref_batch(ref.next_batch())
            if got is not None:
                loose.extend(got.requests)
        elif op in ("take", "take_ordered"):
            keys = [key for key, _ in ref.group_items()] + [("no such group",)]
            key = data.draw(st.sampled_from(keys))
            count = data.draw(st.none() | st.integers(1, 6))
            order = data.draw(st.sampled_from(_ORDERS)) if op == "take_ordered" else None
            got = sched.take(key, count, order)
            want = ref.take(key, count, order)
            assert _batch(got) == _ref_batch(want)
            if got is not None:
                loose.extend(got.requests)
        elif op == "prune":
            modulus = data.draw(st.integers(1, 4))
            got = sched.prune(lambda r: r.request_id % modulus == 0)
            assert _ids(got) == _ids(ref.prune(lambda r: r.request_id % modulus == 0))
            loose.extend(got)
        elif op == "expire":
            now = data.draw(st.sampled_from(_NOWS))
            got = sched.expire(now)
            assert _ids(got) == _ids(ref.prune(lambda r: r.absolute_deadline_s <= now))
            loose.extend(got)
        elif op == "steal":
            count = data.draw(st.integers(0, 6))
            got = sched.steal(count)
            assert _ids(got) == _ids(ref.steal(count))
            loose.extend(got)
        elif op == "requeue":
            back = loose[: data.draw(st.integers(0, len(loose)))]
            del loose[: len(back)]
            sched.requeue(back)
            ref.requeue(back)
        else:
            now = data.draw(st.sampled_from(_NOWS))
            if data.draw(st.booleans()):  # the plane's drop_expired sweep, then EDF
                shed = sched.expire(now)
                assert _ids(shed) == _ids(ref.prune(lambda r: r.absolute_deadline_s <= now))
                loose.extend(shed)
            decision = EDFPolicy().next_batch(sched, now)
            assert decision.shed == ()
            assert _batch(decision.batch) == _ref_batch(ref.edf(now))
            if decision.batch is not None:
                loose.extend(decision.batch.requests)
        _agree(sched, ref)
