"""Engine pool: plan-affinity routing, work stealing, service clocks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    CircuitBreaker,
    CostModelClock,
    EnginePool,
    GreedyFIFOPolicy,
    MeasuredClock,
    OpenLoopSource,
    PoissonProcess,
    SimConfig,
    WorkloadSpec,
    open_loop,
    simulate,
)
from repro.cluster.faults import WORKER_DOWN
from repro.core.config import HardwareConfig
from repro.core.salo import SALO
from repro.patterns.library import longformer_pattern
from repro.serving import AttentionRequest, BatchScheduler


def _request(rid, n=32, window=6, arrival=0.0, seed=0):
    rng = np.random.default_rng(seed)
    pattern = longformer_pattern(n, window, (0,))
    q, k, v = (rng.standard_normal((n, 8)) for _ in range(3))
    return AttentionRequest(
        request_id=rid, pattern=pattern, q=q, k=k, v=v, heads=2, arrival_s=arrival
    )


def _small_salo():
    return SALO(HardwareConfig(pe_rows=4, pe_cols=4))


def _pinned_clock():
    """Flat clock: the affinity/stealing tests below size their arrival
    rates against this scale, so they must not move when the default
    clock's constants are re-measured."""
    return CostModelClock.flat()


class TestRouting:
    def test_warm_worker_wins_over_idle_cold_one(self):
        pool = EnginePool(workers=2, salo_factory=_small_salo)
        req = _request(0)
        first = pool.route(req, now=0.0)
        first.warm.add(first.queue.group_key(req))
        # Repeat structure routes back to the warm worker even though the
        # other is equally idle.
        for i in range(1, 5):
            assert pool.route(_request(i), now=0.0) is first

    def test_deep_queue_eventually_overrides_affinity(self):
        pool = EnginePool(workers=2, salo_factory=_small_salo, affinity_miss_prob=0.5)
        req = _request(0)
        warm = pool.route(req, now=0.0)
        warm.warm.add(warm.queue.group_key(req))
        # Pile queue depth onto the warm worker until score 0.5/(1+0) beats
        # 1.0/(1+depth) -> depth >= 2 flips the choice.
        warm.queue.enqueue(_request(1))
        warm.queue.enqueue(_request(2))
        other = pool.route(_request(3), now=0.0)
        assert other is not warm

    def test_cold_ties_break_to_shallower_then_lower_id(self):
        pool = EnginePool(workers=3, salo_factory=_small_salo)
        assert pool.route(_request(0), now=0.0).wid == 0
        pool.workers[0].queue.enqueue(_request(1))
        assert pool.route(_request(2), now=0.0).wid == 1


def _oracle_route(pool, request, now):
    """The router's score as one tuple per worker, the id last: what
    :meth:`EnginePool.route` computed before it read the counters and
    the breaker directly and let the id-order scan break ties."""
    key = pool.workers[0].queue.group_key(request)

    def score(worker):
        hit_p = 1.0 if key in worker.warm else pool.affinity_miss_prob
        depth = worker.depth()
        down = not worker.healthy
        tripped = not down and worker.breaker_open(now)
        return (down, tripped, -hit_p / (1 + depth), depth, worker.wid)

    return min(pool.workers, key=score)


_WORKER_STATE = st.tuples(
    st.integers(0, 3),  # queued
    st.integers(0, 3),  # in flight
    st.booleans(),  # warm for the request's structure
    st.booleans(),  # marked down
    st.sampled_from(["absent", "closed", "open", "half-open"]),  # breaker
)


class TestRouteOracle:
    @given(
        states=st.lists(_WORKER_STATE, min_size=1, max_size=4),
        miss_prob=st.sampled_from([0.1, 0.25, 0.5, 1.0]),
    )
    @settings(max_examples=200)
    def test_route_picks_the_oracles_worker(self, states, miss_prob):
        now = 1.0
        pool = EnginePool(workers=len(states), salo_factory=object, affinity_miss_prob=miss_prob)
        request = _request(0)
        key = pool.workers[0].queue.group_key(request)
        for worker, (queued, inflight, warm, down, breaker) in zip(pool.workers, states):
            for i in range(queued):
                worker.queue.enqueue(_request(100 + i))
            worker.inflight = inflight
            if warm:
                worker.warm.add(key)
            if down:
                worker.state = WORKER_DOWN
            if breaker != "absent":
                worker.breaker = CircuitBreaker()
                worker.breaker.open_until_s = {"closed": None, "open": 2.0, "half-open": 0.5}[breaker]
        assert pool.route(request, now) is _oracle_route(pool, request, now)
        assert pool.route(request, now, key) is _oracle_route(pool, request, now)


class TestAffinityEndToEnd:
    def test_repeat_structure_hits_warm_plan_cache(self):
        """A worker that served a structure gets the repeats — its SALO
        cache-hit counters prove both the routing and the reuse."""
        spec = WorkloadSpec(
            num_requests=40, n=64, window=8, heads=2, head_dim=4, mixed=False, seed=4
        )
        source = open_loop(spec, PoissonProcess(rate_rps=500.0))  # sparse arrivals
        report = simulate(
            source,
            SimConfig(
                workers=2,
                policy=GreedyFIFOPolicy(),
                service=_pinned_clock(),
                salo_factory=_small_salo,
            ),
        )
        warm = max(report.workers, key=lambda w: w.batches)
        # Routing keeps the repeats on the warm worker (an occasional
        # burst-coincidence steal is allowed — that is the stealing path).
        assert warm.served >= spec.num_requests - 5
        assert warm.plan_cache["misses"] == 1  # one compile, then hits throughout
        assert warm.plan_cache["hits"] >= warm.batches - 1
        assert warm.cold_compiles == 1

    def test_stealing_drains_hot_queue_when_affine_worker_saturated(self):
        """All traffic is affine to one worker (miss probability so low
        the router never defects); arrivals land in one burst so its
        queue backs up — the idle peer only ever gets work by stealing,
        and it must."""
        spec = WorkloadSpec(
            num_requests=48, n=64, window=8, heads=2, head_dim=4, mixed=False, seed=9
        )
        source = open_loop(spec, PoissonProcess(rate_rps=5e6))  # ~simultaneous burst
        report = simulate(
            source,
            SimConfig(
                workers=2,
                max_batch_size=4,  # backlog outlives several dispatches
                affinity_miss_prob=0.001,  # routing pinned to the warm worker
                policy=GreedyFIFOPolicy(),
                salo_factory=_small_salo,
            ),
        )
        stolen = sum(w.stolen_in for w in report.workers)
        assert report.steals > 0 and stolen > 0
        assert all(w.batches > 0 for w in report.workers), "peer never helped"

    def test_no_steal_config_keeps_backlog_on_one_worker(self):
        spec = WorkloadSpec(
            num_requests=48, n=64, window=8, heads=2, head_dim=4, mixed=False, seed=9
        )
        source = open_loop(spec, PoissonProcess(rate_rps=5e6))
        report = simulate(
            source,
            SimConfig(
                workers=2,
                max_batch_size=4,
                affinity_miss_prob=0.001,
                steal=False,
                salo_factory=_small_salo,
            ),
        )
        assert report.steals == 0
        assert sum(1 for w in report.workers if w.batches > 0) == 1


class TestServiceClocks:
    def test_cost_model_scales_with_batch_size(self):
        from repro.cluster import Worker
        from repro.serving.batching import BatchScheduler

        clock = CostModelClock(batch_overhead_s=1e-5, cold_compile_s=0.0)
        worker = Worker(0, _small_salo())
        for i in range(4):
            worker.queue.enqueue(_request(i, seed=i))
        batch = worker.queue.next_batch()
        service4 = clock.service_s(worker, batch, cold=False)
        worker.queue.enqueue(_request(9))
        single = worker.queue.next_batch()
        service1 = clock.service_s(worker, single, cold=False)
        unit = worker.salo.estimate(
            single.pattern, heads=2, head_dim=4
        ).latency_s
        assert service4 == pytest.approx(4 * unit + 1e-5)
        assert service1 == pytest.approx(unit + 1e-5)

    def test_cold_compile_charged_once(self):
        from repro.cluster import Worker

        clock = CostModelClock(batch_overhead_s=0.0, cold_compile_s=1.0)
        worker = Worker(0, _small_salo())
        worker.queue.enqueue(_request(0))
        batch = worker.queue.next_batch()
        cold = clock.service_s(worker, batch, cold=True)
        warm = clock.service_s(worker, batch, cold=False)
        assert cold - warm == pytest.approx(1.0)

    def test_defaults_are_the_pinned_constants(self):
        """A default clock reads no file: it charges the reference-host
        dispatch constant once per batch and the per-pass compile rate
        times the served plan's own pass count when cold.  Pinned to the
        literals — every simulated number on the default clock moves
        with them; explicit arguments still override."""
        from repro.cluster import Worker
        from repro.cluster import pool

        assert pool.DISPATCH_OVERHEAD_S == 0.0010405297428535828
        assert pool.COMPILE_S_PER_PASS == 2.6055120481393034e-05  # 0.0519018 s / 1992 passes
        clock = CostModelClock()
        assert clock.batch_overhead_s == pool.DISPATCH_OVERHEAD_S
        worker = Worker(0, _small_salo())
        for i in range(3):
            worker.queue.enqueue(_request(i))
        batch = worker.queue.next_batch()
        assert batch.size == 3
        stats = worker.salo.estimate(batch.execution_pattern(), heads=2, head_dim=4)
        cold = clock.service_s(worker, batch, cold=True)
        warm = clock.service_s(worker, batch, cold=False)
        assert warm == pytest.approx(3 * stats.latency_s + pool.DISPATCH_OVERHEAD_S)
        assert cold - warm == pytest.approx(pool.COMPILE_S_PER_PASS * stats.plan.num_passes)
        explicit = CostModelClock(batch_overhead_s=0.25)
        assert explicit.batch_overhead_s == 0.25
        assert explicit.service_s(worker, batch, cold=True) - explicit.service_s(
            worker, batch, cold=False
        ) == pytest.approx(cold - warm)
        assert all(hasattr(pool, name) for name in pool.__all__)  # no stale export

    def test_bigger_plans_pay_bigger_cold_penalties(self):
        """The per-pass rate makes cold cost track plan size — the flat
        seed constant charged a 4096-token longformer like a toy."""
        from repro.cluster import Worker

        clock = CostModelClock()
        small, large = Worker(0, _small_salo()), Worker(1, _small_salo())
        small.queue.enqueue(_request(0, n=32, window=6))
        large.queue.enqueue(_request(1, n=256, window=32))
        sb, lb = small.queue.next_batch(), large.queue.next_batch()
        small_penalty = clock.service_s(small, sb, cold=True) - clock.service_s(
            small, sb, cold=False
        )
        large_penalty = clock.service_s(large, lb, cold=True) - clock.service_s(
            large, lb, cold=False
        )
        assert large_penalty > small_penalty > 0

    def test_explicit_cold_compile_stays_flat(self):
        """An explicit penalty disables per-plan scaling (the knob keeps
        its historical flat meaning for sweeps that set it)."""
        from repro.cluster import Worker

        clock = CostModelClock(cold_compile_s=2.0)
        worker = Worker(0, _small_salo())
        worker.queue.enqueue(_request(0, n=256, window=32))
        batch = worker.queue.next_batch()
        cold = clock.service_s(worker, batch, cold=True)
        warm = clock.service_s(worker, batch, cold=False)
        assert cold - warm == pytest.approx(2.0)

    @staticmethod
    def _assert_served_like_execute_batch(served, worker, batch):
        """One ``(output, result)`` per member, in batch order, byte-equal
        to a fresh :func:`execute_batch` of the same batch."""
        from repro.serving import execute_batch

        outputs, results = execute_batch(worker.salo, batch)
        assert len(served) == batch.size
        for (output, result), req, ref, ref_result in zip(served, batch.requests, outputs, results):
            assert output.shape == (req.n, req.hidden) and np.array_equal(output, ref)
            assert result.stats == ref_result.stats

    def test_measured_clock_executes_and_times(self):
        from repro.cluster import Worker

        ticks = iter([1.0, 3.5])
        clock = MeasuredClock(clock=lambda: next(ticks))
        worker = Worker(0, _small_salo())
        worker.queue.enqueue(_request(0))
        batch = worker.queue.next_batch()
        service_s, served = clock.launch(worker, batch, cold=True)
        assert service_s == pytest.approx(2.5)
        assert worker.salo.cache_info()["misses"] >= 1  # actually executed
        self._assert_served_like_execute_batch(served, worker, batch)

    def test_measured_clock_draws_members_before_it_starts(self):
        """A factory request's operands are drawn on first read; that draw
        is making the traffic, not serving it."""
        from repro.cluster import Worker

        spec = WorkloadSpec(num_requests=3, n=32, window=6, heads=2, head_dim=4, mixed=False)
        worker = Worker(0, _small_salo())
        for req in open_loop(spec, PoissonProcess(1000.0)).requests:
            worker.queue.enqueue(req)
        batch = worker.queue.next_batch()
        assert batch.size == 3 and not any("q" in vars(r) for r in batch.requests)

        def clock():
            assert all("q" in vars(r) for r in batch.requests)
            return 0.0

        clock_s = MeasuredClock(clock=clock)
        service_s, served = clock_s.launch(worker, batch, cold=True)
        assert service_s == 0.0
        self._assert_served_like_execute_batch(served, worker, batch)


class TestServiceScalesBackend:
    """service_scales must probe the *pool's* cost model, not always SALO.

    The regression: `simulate --backend dense` used to scale its SLO
    deadline budgets from a bare `SALO()` while its workers charged
    service from the dense cost model — budgets and service times from
    two different machines.
    """

    SPEC = WorkloadSpec(n=256, window=32, heads=2, head_dim=8)

    def test_default_matches_the_bare_salo_estimator(self):
        """The default ``functional`` Runtime estimates exactly what a
        bare ``SALO()`` does, so the default scales are a SALO's."""
        from repro.cluster import service_scales
        from repro.serving.trace import pattern_families

        clock = CostModelClock.flat()
        salo = SALO()
        mean = float(np.mean([
            salo.estimate(p, heads=self.SPEC.heads, head_dim=self.SPEC.head_dim).latency_s
            for p in pattern_families(self.SPEC)
        ]))
        assert service_scales(self.SPEC, clock) == (
            mean + clock.batch_overhead_s / 8, mean + clock.batch_overhead_s
        )

    def test_dense_backend_uses_dense_cost_model(self):
        from repro.api import Runtime
        from repro.cluster import service_scales
        from repro.serving.trace import pattern_families

        clock = CostModelClock.flat()
        default_unit, default_dispatch = service_scales(self.SPEC, clock)
        dense_unit, dense_dispatch = service_scales(self.SPEC, clock, backend="dense")
        assert (dense_unit, dense_dispatch) != (default_unit, default_dispatch)
        # And the dense scales are exactly the dense estimator's mean.
        rt = Runtime(backend="dense")
        units = [
            rt.estimate(p, heads=self.SPEC.heads, head_dim=self.SPEC.head_dim).latency_s
            for p in pattern_families(self.SPEC)
        ]
        mean = float(np.mean(units))
        assert dense_unit == pytest.approx(mean + clock.batch_overhead_s / 8)
        assert dense_dispatch == pytest.approx(mean + clock.batch_overhead_s)

    def test_full_batch_validation_still_first(self):
        from repro.cluster import service_scales

        with pytest.raises(ValueError):
            service_scales(self.SPEC, CostModelClock.flat(), full_batch=0, backend="dense")


class TestStealNeverTouchesInflight:
    """Work stealing moves queue *tails*, never a batch mid-service.

    The contract: dispatch removes a batch's requests from the worker's
    queue (they live only in the simulator's in-flight table until the
    completion event), so a thief — even one that goes idle exactly
    while its victim is executing — can only ever see the victim's
    *queued* remainder.  These tests pin both halves: the pool-level
    donor selection and the end-to-end simulation.
    """

    def _pool(self):
        return EnginePool(workers=2, salo_factory=_small_salo,
                          queue_factory=lambda: BatchScheduler(max_batch_size=4))

    def _dispatch_batch(self, worker, first_rid, count=4):
        """Enqueue + take a batch like the simulator's dispatch does."""
        reqs = [_request(first_rid + i) for i in range(count)]
        for r in reqs:
            worker.queue.enqueue(r)
        key = worker.queue.group_key(reqs[0])
        batch = worker.queue.take(key)
        assert batch is not None and batch.size == count
        worker.note_dispatch(first_rid, batch, now=0.0, service_s=1e-3, cold=True)
        return batch

    def test_idle_thief_finds_nothing_when_victim_work_is_all_inflight(self):
        """Victim busy, queue empty (whole backlog executing): the thief
        comes up empty instead of robbing the running batch."""
        pool = self._pool()
        victim, thief = pool.workers
        batch = self._dispatch_batch(victim, first_rid=0)
        assert victim.busy and victim.queue.pending == 0
        assert pool.steal_into(thief, now=0.0) is None
        assert thief.queue.pending == 0
        # The executing batch is intact: same requests, same order.
        assert [r.request_id for r in batch.requests] == [0, 1, 2, 3]

    def test_steal_takes_only_the_queued_tail(self):
        """Victim busy with requests 0-3 in flight and 4-9 queued: the
        thief gets queued requests only, in arrival order."""
        pool = self._pool()
        victim, thief = pool.workers
        batch = self._dispatch_batch(victim, first_rid=0)
        queued = [_request(rid) for rid in range(4, 10)]
        for r in queued:
            victim.queue.enqueue(r)
        robbed, stolen = pool.steal_into(thief, now=0.0)
        moved = len(stolen)
        assert robbed is victim and moved == 4  # capped at the thief's max_batch_size
        inflight_ids = {r.request_id for r in batch.requests}
        stolen_ids = {
            r.request_id for _, group in thief.queue.group_items() for r in group
        }
        assert stolen_ids.isdisjoint(inflight_ids)
        assert stolen_ids <= set(range(4, 10))
        assert victim.queue.pending == len(queued) - moved

    def test_simulation_steals_never_overlap_inflight(self):
        """End to end: a burst saturates the affine worker so the peer
        repeatedly goes idle mid-victim-service and steals; the event
        checker's steal law holds (no stolen request was in flight)."""
        from repro.cluster.events import STEAL, check
        from repro.cluster.simulator import ClusterSimulator

        spec = WorkloadSpec(
            num_requests=48, n=64, window=8, heads=2, head_dim=4, mixed=False, seed=9
        )
        source = open_loop(spec, PoissonProcess(rate_rps=5e6))
        sim, events = ClusterSimulator(
            SimConfig(
                workers=2,
                max_batch_size=4,
                affinity_miss_prob=0.001,
                policy=GreedyFIFOPolicy(),
                salo_factory=_small_salo,
            )
        ), []
        sim.listen(events.append)
        report = sim.run(source)
        assert any(e.kind == STEAL for e in events), "burst never triggered a steal; scenario broken"
        assert not check(events)
        assert report.submitted == report.completed  # nothing lost in transit
