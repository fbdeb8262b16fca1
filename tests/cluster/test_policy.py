"""Batch-close policies over the scheduler's peek/take interface."""

import numpy as np
import pytest

from repro.cluster import (
    EDFPolicy,
    GreedyFIFOPolicy,
    MaxWaitPolicy,
    SizeLatencyPolicy,
    WeightedFairPolicy,
    make_policy,
)
from repro.patterns.library import longformer_pattern
from repro.serving import AttentionRequest, BatchScheduler


def _request(rid, n=32, window=6, arrival=0.0, deadline=None, slo="default", seed=0):
    rng = np.random.default_rng(seed)
    pattern = longformer_pattern(n, window, (0,))
    q, k, v = (rng.standard_normal((n, 8)) for _ in range(3))
    return AttentionRequest(
        request_id=rid, pattern=pattern, q=q, k=k, v=v, heads=2,
        arrival_s=arrival, deadline_s=deadline, slo_class=slo,
    )


def _scheduler(*requests, max_batch_size=4):
    sched = BatchScheduler(max_batch_size=max_batch_size)
    for req in requests:
        sched.enqueue(req)
    return sched


class TestGreedyFIFO:
    def test_dispatches_immediately_oldest_head(self):
        sched = _scheduler(
            _request(0, window=6, arrival=1.0),
            _request(1, window=4, arrival=0.5),
        )
        decision = GreedyFIFOPolicy().next_batch(sched, now=2.0)
        assert decision.batch is not None
        assert decision.batch.requests[0].request_id == 1
        assert decision.next_check_s is None

    def test_empty_queue(self):
        decision = GreedyFIFOPolicy().next_batch(BatchScheduler(), now=0.0)
        assert decision.batch is None and decision.next_check_s is None


class TestMaxWait:
    def test_holds_partial_batch_and_names_expiry(self):
        sched = _scheduler(_request(0, arrival=1.0), _request(1, arrival=1.2))
        policy = MaxWaitPolicy(max_wait_s=0.5)
        decision = policy.next_batch(sched, now=1.3)
        assert decision.batch is None
        assert decision.next_check_s == pytest.approx(1.5)  # head + max_wait

    def test_dispatches_at_expiry(self):
        sched = _scheduler(_request(0, arrival=1.0), _request(1, arrival=1.2))
        policy = MaxWaitPolicy(max_wait_s=0.5)
        decision = policy.next_batch(sched, now=1.5)
        assert decision.batch is not None and decision.batch.size == 2

    def test_dispatches_full_batch_immediately(self):
        reqs = [_request(i, arrival=1.0 + i * 0.01) for i in range(4)]
        sched = _scheduler(*reqs, max_batch_size=4)
        decision = MaxWaitPolicy(max_wait_s=10.0).next_batch(sched, now=1.05)
        assert decision.batch is not None and decision.batch.size == 4

    def test_size_latency_target_below_max(self):
        reqs = [_request(i, arrival=1.0) for i in range(2)]
        sched = _scheduler(*reqs, max_batch_size=8)
        policy = SizeLatencyPolicy(target_size=2, max_wait_s=10.0)
        decision = policy.next_batch(sched, now=1.001)
        assert decision.batch is not None and decision.batch.size == 2


class TestEDF:
    def test_serves_most_urgent_group_first(self):
        # Two structures; the *later-arriving* group holds the tighter deadline.
        loose = [_request(i, window=6, arrival=0.0, deadline=10.0) for i in range(2)]
        tight = [_request(10 + i, window=4, arrival=1.0, deadline=0.1) for i in range(2)]
        sched = _scheduler(*(loose + tight))
        decision = EDFPolicy().next_batch(sched, now=1.0)
        assert decision.batch is not None
        assert {r.request_id for r in decision.batch.requests} == {10, 11}

    def test_orders_members_by_deadline_within_group(self):
        reqs = [
            _request(0, arrival=0.0, deadline=5.0),
            _request(1, arrival=0.1, deadline=0.2),
            _request(2, arrival=0.2, deadline=1.0),
        ]
        sched = _scheduler(*reqs, max_batch_size=2)
        batch = EDFPolicy().next_batch(sched, now=0.3).batch
        assert [r.request_id for r in batch.requests] == [1, 2]
        assert sched.pending == 1  # the loose-deadline head stayed queued

    def test_deadline_free_requests_yield(self):
        sched = _scheduler(
            _request(0, arrival=0.0),  # no deadline
            _request(1, window=4, arrival=5.0, deadline=0.01),
        )
        batch = EDFPolicy().next_batch(sched, now=5.0).batch
        assert batch.requests[0].request_id == 1

    def test_expired_requests_do_not_displace_feasible_ones(self):
        """Regression: a stale (already-missed) deadline must not hijack
        the front of the urgency order — even without drop_expired, the
        doomed request yields to every request that can still make it."""
        expired = _request(0, arrival=0.0, deadline=0.5)  # dead since t=0.5
        feasible = _request(1, arrival=1.0, deadline=9.0)
        besteffort = _request(2, arrival=0.2)  # no deadline: always "met"
        sched = _scheduler(expired, feasible, besteffort, max_batch_size=1)
        policy = EDFPolicy()
        order = []
        for _ in range(3):
            order.append(policy.next_batch(sched, now=2.0).batch.requests[0].request_id)
        # Feasible deadline first, then best-effort, the doomed one last.
        assert order == [1, 2, 0]

    def test_expired_requests_still_served_without_drop(self):
        """Work conservation: a policy drops nothing (shedding is the plane's)."""
        sched = _scheduler(_request(0, arrival=0.0, deadline=0.1))
        decision = EDFPolicy().next_batch(sched, now=5.0)
        assert decision.batch is not None and decision.shed == ()


class TestWeightedFair:
    def _drain_order(self, policy, requests, now=10.0, rounds=None):
        sched = _scheduler(*requests, max_batch_size=1)
        order = []
        for _ in range(rounds or len(requests)):
            decision = policy.next_batch(sched, now=now)
            if decision.batch is None:
                break
            order.append(decision.batch.requests[0])
        return order

    def test_shares_converge_to_weights(self):
        """3:1 weights -> 3 of every 4 served requests are the heavy class."""
        reqs = [
            _request(i, arrival=i * 1e-3, slo="gold" if i % 2 == 0 else "best")
            for i in range(16)
        ]
        policy = WeightedFairPolicy(weights={"gold": 3.0, "best": 1.0})
        order = self._drain_order(policy, reqs, rounds=8)
        gold = sum(1 for r in order if r.slo_class == "gold")
        assert gold == 6  # 3/4 of the first 8 slots

    def test_equal_weights_alternate(self):
        reqs = [
            _request(i, arrival=i * 1e-3, slo="a" if i % 2 == 0 else "b")
            for i in range(8)
        ]
        order = self._drain_order(WeightedFairPolicy(), reqs, rounds=4)
        assert {r.slo_class for r in order[:2]} == {"a", "b"}

    def test_lone_class_is_served_not_starved(self):
        """With one backlogged class, DRR degenerates to FIFO service."""
        reqs = [_request(i, arrival=i * 1e-3, slo="only") for i in range(3)]
        policy = WeightedFairPolicy(weights={"only": 1.0, "idle": 99.0})
        order = self._drain_order(policy, reqs)
        assert [r.request_id for r in order] == [0, 1, 2]

    def test_idle_class_credit_lapses(self):
        """A class that was absent cannot hoard credit for a later burst."""
        policy = WeightedFairPolicy(weights={"a": 1.0, "b": 1.0})
        sched = _scheduler(
            *[_request(i, arrival=i * 1e-3, slo="a") for i in range(4)],
            max_batch_size=1,
        )
        for _ in range(4):
            policy.next_batch(sched, now=10.0)
        assert "b" not in policy.credit(sched)  # lapsed, not accumulating
        # Now both classes are backlogged on the same queue: b starts
        # from zero credit, so the first slots still alternate instead
        # of b bursting 4 deep.
        for i in range(8):
            sched.enqueue(
                _request(10 + i, arrival=1.0 + i * 1e-3, slo="a" if i % 2 == 0 else "b")
            )
        order = [
            policy.next_batch(sched, now=10.0).batch.requests[0] for _ in range(2)
        ]
        assert {r.slo_class for r in order} == {"a", "b"}

    def test_credit_is_per_queue_not_shared_across_workers(self):
        """Regression: one policy instance serves every worker of a pool;
        consulting it on a worker whose queue lacks a class must not
        erase the credit that class accrued on another worker's queue."""
        policy = WeightedFairPolicy(weights={"gold": 3.0, "best": 1.0})
        worker_a = _scheduler(
            _request(0, arrival=0.0, slo="gold"),
            _request(1, arrival=0.1, slo="gold"),
            _request(2, arrival=0.2, slo="best"),
            max_batch_size=1,
        )
        worker_b = _scheduler(_request(10, arrival=0.0, slo="best"), max_batch_size=1)
        policy.next_batch(worker_a, now=1.0)  # gold/best accrue on A
        credit_before = dict(policy.credit(worker_a))
        policy.next_batch(worker_b, now=1.0)  # B's queue has no gold
        assert policy.credit(worker_a) == credit_before

    def test_dead_queue_credit_is_not_resurrected(self):
        """Regression: counters die with their queue — a fresh scheduler
        reusing a freed queue's memory address must start from zero, and
        a long-lived policy must not accumulate dead-queue entries."""
        import gc

        policy = WeightedFairPolicy(weights={"a": 2.0})
        sched = _scheduler(_request(0, arrival=0.0, slo="a"), max_batch_size=1)
        policy.next_batch(sched, now=1.0)
        assert len(policy._credit) == 1
        del sched
        gc.collect()
        assert len(policy._credit) == 0

    def test_same_plan_riders_fill_the_batch(self):
        """Members of another class ride a chosen batch (and are charged)."""
        reqs = [
            _request(0, arrival=0.0, slo="gold"),
            _request(1, arrival=0.1, slo="best"),
        ]
        sched = _scheduler(*reqs, max_batch_size=4)
        policy = WeightedFairPolicy(weights={"gold": 3.0, "best": 1.0})
        batch = policy.next_batch(sched, now=1.0).batch
        assert batch.size == 2
        assert batch.requests[0].slo_class == "gold"  # chosen class first
        assert policy.credit(sched)["best"] < policy.credit(sched)["gold"]

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            WeightedFairPolicy(weights={"a": 0.0})
        with pytest.raises(ValueError):
            WeightedFairPolicy(default_weight=-1.0)
        # NaN/inf weights would turn the credit top-up loop into an
        # infinite spin (NaN comparisons are all False) — reject upfront.
        with pytest.raises(ValueError):
            WeightedFairPolicy(weights={"a": float("nan")})
        with pytest.raises(ValueError):
            WeightedFairPolicy(weights={"a": float("inf")})
        with pytest.raises(ValueError):
            WeightedFairPolicy(default_weight=float("nan"))


class TestLengthWeightedFair:
    """Length-weighted rider charging: token-share (not request-share) DRR."""

    def _mixed_length_requests(self, count=24, long_n=256, short_n=64):
        return [
            _request(
                i,
                n=long_n if i % 2 == 0 else short_n,
                arrival=i * 1e-3,
                slo="long" if i % 2 == 0 else "short",
            )
            for i in range(count)
        ]

    def _served(self, policy, requests, rounds):
        sched = _scheduler(*requests, max_batch_size=1)
        served = []
        for _ in range(rounds):
            decision = policy.next_batch(sched, now=10.0)
            if decision.batch is None:
                break
            served.extend(decision.batch.requests)
        return served

    def _token_share(self, served, slo):
        tokens = {"long": 0, "short": 0}
        for r in served:
            tokens[r.slo_class] += r.n
        return tokens[slo] / sum(tokens.values())

    def test_flat_charging_lets_long_requests_dominate_tokens(self):
        """The baseline failure mode: equal request shares, 4x token skew."""
        served = self._served(WeightedFairPolicy(), self._mixed_length_requests(), 10)
        counts = {c: sum(1 for r in served if r.slo_class == c) for c in ("long", "short")}
        assert counts["long"] == counts["short"]  # request-fair...
        assert self._token_share(served, "long") >= 0.75  # ...but token-skewed 4:1

    def test_length_weighted_charging_equalises_token_share(self):
        """Charging n/length_unit makes equal weights mean equal tokens."""
        policy = WeightedFairPolicy(length_weighted=True)
        served = self._served(policy, self._mixed_length_requests(), 10)
        share = self._token_share(served, "long")
        assert 0.4 <= share <= 0.6
        counts = {c: sum(1 for r in served if r.slo_class == c) for c in ("long", "short")}
        # The short class now completes ~4x the requests of the long one.
        assert counts["short"] >= 3 * counts["long"]

    def test_length_weighted_respects_weights(self):
        """3:1 weights on the long class restore its token majority."""
        policy = WeightedFairPolicy(
            weights={"long": 3.0, "short": 1.0}, length_weighted=True
        )
        served = self._served(policy, self._mixed_length_requests(), 12)
        assert self._token_share(served, "long") >= 0.6

    def test_charge_units(self):
        flat = WeightedFairPolicy()
        weighted = WeightedFairPolicy(length_weighted=True, length_unit=64.0)
        long_req, short_req = _request(0, n=256), _request(1, n=64)
        assert flat.charge(long_req) == flat.charge(short_req) == 1.0
        assert weighted.charge(long_req) == 4.0
        assert weighted.charge(short_req) == 1.0

    def test_length_unit_validation(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                WeightedFairPolicy(length_weighted=True, length_unit=bad)

    def test_uniform_lengths_match_flat_charging_order(self):
        """With one length in play, the two charging modes serve identically."""
        reqs = [
            _request(i, arrival=i * 1e-3, slo="gold" if i % 2 == 0 else "best")
            for i in range(12)
        ]
        flat_order = [
            r.request_id
            for r in self._served(
                WeightedFairPolicy(weights={"gold": 2.0}), list(reqs), 8
            )
        ]
        weighted_order = [
            r.request_id
            for r in self._served(
                WeightedFairPolicy(weights={"gold": 2.0}, length_weighted=True, length_unit=32.0),
                list(reqs),
                8,
            )
        ]
        assert flat_order == weighted_order


class TestRegistry:
    def test_make_policy(self):
        assert isinstance(make_policy("greedy-fifo"), GreedyFIFOPolicy)
        assert isinstance(make_policy("edf"), EDFPolicy)
        assert make_policy("max-wait", max_wait_s=0.1).max_wait_s == 0.1
        assert isinstance(make_policy("weighted-fair"), WeightedFairPolicy)
        # shedding is the control plane's switch (ControlConfig), not a policy's
        with pytest.raises(TypeError, match="drop_expired"):
            make_policy("weighted-fair", drop_expired=True)
        with pytest.raises(KeyError):
            make_policy("bogus")

    def test_validation(self):
        with pytest.raises(ValueError):
            MaxWaitPolicy(max_wait_s=-1.0)
        with pytest.raises(ValueError):
            SizeLatencyPolicy(target_size=0, max_wait_s=0.1)
