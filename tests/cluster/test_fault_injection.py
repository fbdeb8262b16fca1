"""Fault injection unit tests: specs, injector, lifecycle, recovery.

End-to-end scenarios run the tiny cost-model workload from
``tests/cluster/test_simulator.py`` with fault specs layered on, each
run checked by :func:`repro.cluster.events.check`; the chaos-sweep
claims live in ``tests/experiments/test_faults.py``.
"""

import math

import numpy as np
import pytest

from repro.cluster import (
    ClusterSimulator,
    CostModelClock,
    CrashSpec,
    EDFPolicy,
    FaultInjector,
    GreedyFIFOPolicy,
    OpenLoopSource,
    PoissonProcess,
    RecoveryConfig,
    SimConfig,
    SLOClass,
    StragglerSpec,
    TransientSpec,
    WORKER_DOWN,
    WORKER_UP,
    WorkloadSpec,
    open_loop,
    service_scales,
    simulate,
)
from repro.cluster.events import check
from repro.cluster.pool import Worker
from repro.patterns.library import longformer_pattern
from repro.serving import AttentionRequest


def _spec(num=60, seed=3):
    return WorkloadSpec(
        num_requests=num,
        n=64,
        window=8,
        heads=2,
        head_dim=4,
        seed=seed,
        slo_classes=(SLOClass("interactive", 0.001, 0.5), SLOClass("bulk", 0.01, 0.5)),
    )


# A 20k rps trickle over 60 requests: 3 ms horizon, so the fault windows
# below (crash at 1 ms, rejoin at 2 ms) land mid-run with room on both
# sides, and millisecond heartbeats would outlast the run — hence the
# 50 us probes.
_RECOVERY = RecoveryConfig(heartbeat_interval_s=5e-5, heartbeat_timeout_s=1e-4)


def _run(specs, *, recovery=_RECOVERY, steal=True, num=60, rate=20000.0, seed=3):
    source = open_loop(_spec(num=num, seed=seed), PoissonProcess(rate_rps=rate))
    config = SimConfig(
        workers=2,
        policy=EDFPolicy(),
        steal=steal,
        faults=FaultInjector(specs, seed=7) if specs is not None else None,
        recovery=recovery,
    )
    sim, events = ClusterSimulator(config), []
    sim.listen(events.append)
    report = sim.run(source)
    assert not check(events)
    return sim, report


class TestSpecValidation:
    def test_crash_spec_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            CrashSpec(worker=-1, at_s=0.0)
        with pytest.raises(ValueError):
            CrashSpec(worker=0, at_s=-1.0)
        with pytest.raises(ValueError):
            CrashSpec(worker=0, at_s=0.0, down_for_s=0.0)

    def test_straggler_spec_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            StragglerSpec(worker=0, start_s=0.0, duration_s=0.0, factor=2.0)
        with pytest.raises(ValueError):
            StragglerSpec(worker=0, start_s=0.0, duration_s=1.0, factor=0.5)
        with pytest.raises(ValueError):
            StragglerSpec(worker=0, start_s=0.0, duration_s=1.0, factor=math.inf)

    def test_transient_spec_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            TransientSpec(prob=1.0)
        with pytest.raises(ValueError):
            TransientSpec(prob=-0.1)
        with pytest.raises(ValueError):
            TransientSpec(prob=0.1, start_s=2.0, end_s=1.0)

    def test_straggler_window_is_half_open(self):
        s = StragglerSpec(worker=0, start_s=1.0, duration_s=2.0, factor=3.0)
        assert not s.active_at(0.999)
        assert s.active_at(1.0) and s.active_at(2.999)
        assert not s.active_at(3.0)

    def test_transient_covers_worker_and_window(self):
        s = TransientSpec(prob=0.5, worker=1, start_s=1.0, end_s=2.0)
        assert s.covers(1, 1.5)
        assert not s.covers(0, 1.5)  # other worker
        assert not s.covers(1, 2.0)  # window is half-open
        everyone = TransientSpec(prob=0.5)
        assert everyone.covers(0, 0.0) and everyone.covers(7, 1e9)

    def test_recovery_config_validation(self):
        with pytest.raises(ValueError):
            RecoveryConfig(heartbeat_interval_s=0.0)
        with pytest.raises(ValueError):
            RecoveryConfig(heartbeat_timeout_s=0.0)
        with pytest.raises(ValueError):
            RecoveryConfig(max_retries=-1)
        with pytest.raises(ValueError):
            RecoveryConfig(backoff_jitter=1.5)

    def test_backoff_doubles_then_caps(self):
        cfg = RecoveryConfig(backoff_base_s=1e-4, backoff_cap_s=3e-4)
        assert cfg.backoff_s(1) == pytest.approx(1e-4)
        assert cfg.backoff_s(2) == pytest.approx(2e-4)
        assert cfg.backoff_s(3) == pytest.approx(3e-4)  # capped, not 4e-4
        assert cfg.backoff_s(10) == pytest.approx(3e-4)
        with pytest.raises(ValueError):
            cfg.backoff_s(0)


class TestInjector:
    def test_active_only_with_specs(self):
        assert not FaultInjector().active
        assert not FaultInjector([]).active
        assert FaultInjector([CrashSpec(worker=0, at_s=1.0)]).active

    def test_unknown_spec_type_rejected(self):
        with pytest.raises(TypeError):
            FaultInjector(["crash worker 0"])

    def test_validate_workers(self):
        inj = FaultInjector([CrashSpec(worker=2, at_s=1.0)])
        inj.validate_workers(3)
        with pytest.raises(ValueError):
            inj.validate_workers(2)

    def test_crash_and_rejoin_events_sorted(self):
        inj = FaultInjector(
            [
                CrashSpec(worker=1, at_s=5.0, down_for_s=1.0),
                CrashSpec(worker=0, at_s=2.0),  # permanent: no rejoin
            ]
        )
        assert inj.crash_events() == [(2.0, 0), (5.0, 1)]
        assert inj.rejoin_events() == [(6.0, 1)]

    def test_service_factor_multiplies_overlapping_windows(self):
        inj = FaultInjector(
            [
                StragglerSpec(worker=0, start_s=0.0, duration_s=2.0, factor=2.0),
                StragglerSpec(worker=0, start_s=1.0, duration_s=2.0, factor=3.0),
            ]
        )
        assert inj.service_factor(0, 0.5) == pytest.approx(2.0)
        assert inj.service_factor(0, 1.5) == pytest.approx(6.0)
        assert inj.service_factor(0, 2.5) == pytest.approx(3.0)
        assert inj.service_factor(1, 1.5) == pytest.approx(1.0)
        assert inj.service_factor(0, 9.0) == pytest.approx(1.0)

    def test_dispatch_fails_deterministic_per_seed(self):
        def draws(seed):
            inj = FaultInjector([TransientSpec(prob=0.5)], seed=seed)
            return [inj.dispatch_fails(0, float(t)) for t in range(64)]

        assert draws(1) == draws(1)
        assert draws(1) != draws(2)  # a different stream, not a constant
        assert any(draws(1)) and not all(draws(1))

    def test_rng_advances_only_under_coverage(self):
        """Dispatches no transient spec covers must not consume RNG state,
        so adding uncovered traffic cannot perturb the covered draws."""
        spec = TransientSpec(prob=0.5, worker=1)
        mixed = FaultInjector([spec], seed=3)
        clean = FaultInjector([spec], seed=3)
        mixed_draws = []
        for t in range(32):
            mixed.dispatch_fails(0, float(t))  # uncovered: no draw
            mixed_draws.append(mixed.dispatch_fails(1, float(t)))
        clean_draws = [clean.dispatch_fails(1, float(t)) for t in range(32)]
        assert mixed_draws == clean_draws

    def test_jitter_bounded_and_gated(self):
        inj = FaultInjector([TransientSpec(prob=0.5)], seed=0)
        assert inj.jitter(0.0, 0.5) == 0.0
        assert inj.jitter(1.0, 0.0) == 0.0
        for _ in range(16):
            j = inj.jitter(2.0, 0.25)
            assert 0.0 <= j <= 0.5


class TestCrashRecovery:
    def test_crash_and_rejoin_conserves_and_detects(self):
        sim, report = _run([CrashSpec(worker=1, at_s=1e-3, down_for_s=1e-3)])
        assert report.failed == 0  # requeue + steal recovered everything
        assert report.requeues > 0
        assert report.availability < 1.0
        crashed = sim.pool.workers[1]
        assert crashed.crashes == 1 and crashed.rejoins == 1
        assert crashed.state == WORKER_UP  # back up by the end of the run
        wrep = report.workers[1]
        assert wrep.crashes == 1 and wrep.rejoins == 1
        assert wrep.downtime_s > 0
        # Detection latency is bounded by probe interval + timeout.
        assert 0 < wrep.detect_s <= (
            _RECOVERY.heartbeat_interval_s + _RECOVERY.heartbeat_timeout_s
        )

    def test_a_launch_that_never_completes_reaches_the_guard(self, monkeypatch):
        """Heartbeat sweeps are re-armed only while one can still change an
        outcome, so a launch that never frees its slot ends the crash
        scenario at the plane's outstanding-request guard instead of
        spinning the heap with probes."""
        monkeypatch.setattr(Worker, "note_complete", lambda self, launch_id, service_s: None)
        source = open_loop(_spec(), PoissonProcess(rate_rps=20000.0))
        sim = ClusterSimulator(
            SimConfig(
                workers=2,
                policy=EDFPolicy(),
                faults=FaultInjector([CrashSpec(worker=1, at_s=1e-3, down_for_s=1e-3)], seed=7),
                recovery=_RECOVERY,
            )
        )
        handled = []

        def bounded(plane, now):
            handled.append(now)
            assert len(handled) < 100_000, "the plane kept handling events"

        with pytest.raises(RuntimeError, match="drained its event heap"):
            sim._play(source, tick=bounded)

    def test_permanent_crash_without_recovery_fails_work(self):
        sim, report = _run(
            [CrashSpec(worker=1, at_s=1e-3)],  # never rejoins
            recovery=RecoveryConfig(
                heartbeat_interval_s=5e-5, heartbeat_timeout_s=1e-4, requeue=False
            ),
            steal=False,
        )
        assert report.failed > 0  # the stranded queue is terminal
        assert report.requeues == 0
        assert sim.pool.workers[1].state == WORKER_DOWN
        kinds = {d.kind for d in sim.metrics.drops}
        assert "failed" in kinds

    def test_a_dead_workers_completion_never_counts(self):
        """Detection slower than a batch: the crash ended the launch in flight
        unserved, so serving it when it comes due would complete it twice."""
        _, report = _run(
            [CrashSpec(worker=1, at_s=1e-3)],
            recovery=RecoveryConfig(heartbeat_interval_s=5e-4, heartbeat_timeout_s=5e-3),
        )
        assert report.failed == 0 and report.requeues > 0

    def test_permanent_crash_with_requeue_fails_nothing(self):
        _, report = _run([CrashSpec(worker=1, at_s=1e-3)])
        assert report.failed == 0
        assert report.completed + report.shed == report.submitted

    def test_rejoined_worker_pays_cold_compiles_again(self):
        class RecordingClock(CostModelClock):
            def __init__(self):
                super().__init__()
                self.dispatches = []  # (wid, t_is_cold)

            def service_s(self, worker, batch, cold):
                self.dispatches.append((worker.wid, cold))
                return super().service_s(worker, batch, cold)

        clock = RecordingClock()
        spec = _spec(num=80)
        # Size the crash window off the clock's own service scale: the
        # default costs move whenever the constants are re-measured, and
        # a hard-coded schedule can drift past the whole (saturated) run.
        unit_s, _ = service_scales(spec, clock)
        makespan_s = spec.num_requests * unit_s / 2  # 2 saturated workers
        source = open_loop(spec, PoissonProcess(rate_rps=20000.0))
        sim = ClusterSimulator(
            SimConfig(
                workers=2,
                policy=EDFPolicy(),
                service=clock,
                faults=FaultInjector(
                    [
                        CrashSpec(
                            worker=1,
                            at_s=0.3 * makespan_s,
                            down_for_s=0.2 * makespan_s,
                        )
                    ],
                    seed=7,
                ),
                recovery=_RECOVERY,
            )
        )
        sim.run(source)
        cold_on_crashed = [cold for wid, cold in clock.dispatches if wid == 1]
        # Warm before the crash, then cold again after the rejoin: the
        # cold flags are non-monotonic (True ... False ... True ...).
        assert True in cold_on_crashed
        first_warm = cold_on_crashed.index(False)
        assert any(cold_on_crashed[first_warm:])  # re-paid after rejoin

    def test_straggler_stretches_the_run(self):
        _, healthy = _run([])
        _, slowed = _run(
            [StragglerSpec(worker=0, start_s=0.0, duration_s=1.0, factor=8.0)]
        )
        assert slowed.makespan_s > healthy.makespan_s
        assert slowed.failed == 0  # slow is not dead: nothing fails


class TestTransientRetries:
    def test_retries_within_budget_complete_everything(self):
        _, report = _run([TransientSpec(prob=0.15)])
        assert report.retries > 0
        assert report.failed == 0
        assert report.completed == report.submitted

    def test_zero_budget_fails_on_first_error(self):
        _, report = _run(
            [TransientSpec(prob=0.15)],
            recovery=RecoveryConfig(
                heartbeat_interval_s=5e-5, heartbeat_timeout_s=1e-4, max_retries=0
            ),
        )
        assert report.failed > 0
        assert report.retries == 0


class TestExpiryTimers:
    def test_queued_requests_shed_at_their_deadline_not_next_consultation(self):
        """The timer-heap satellite: with ``drop_expired`` a doomed queued
        request is shed the instant its deadline passes — while the
        worker is still busy — not when the next batch closes."""
        pattern = longformer_pattern(64, 8, (0,))
        data = np.zeros((64, 4))

        def req(i, t, deadline):
            return AttentionRequest(
                request_id=i,
                pattern=pattern,
                q=data,
                k=data,
                v=data,
                heads=2,
                arrival_s=t,
                deadline_s=deadline,
                slo_class="tight",
            )

        # Request 0 occupies the single worker (cold compile alone is
        # 0.5 ms); 1 and 2 arrive right behind it with 0.1 ms budgets
        # that expire long before the worker frees up.
        requests = [req(0, 0.0, None), req(1, 1e-5, 1e-4), req(2, 2e-5, 1e-4)]
        sim = ClusterSimulator(
            SimConfig(workers=1, policy=GreedyFIFOPolicy(), drop_expired=True)
        )
        report = sim.run(OpenLoopSource(requests))
        assert report.completed == 1 and report.shed == 2
        sheds = {d.request_id: d for d in sim.metrics.drops if d.kind == "shed"}
        assert set(sheds) == {1, 2}
        for i in (1, 2):
            arrival = requests[i].arrival_s
            assert sheds[i].t_s == pytest.approx(arrival + 1e-4)
        # And the shed happened strictly before the blocking batch
        # finished — i.e. via the timer, not the completion sweep.
        assert all(d.t_s < report.makespan_s for d in sheds.values())


class TestReportRendering:
    def test_fault_block_renders_only_under_fault_activity(self):
        _, clean = _run(None)
        assert "fault tolerance" not in clean.render()
        _, faulty = _run([CrashSpec(worker=1, at_s=1e-3, down_for_s=1e-3)])
        out = faulty.render()
        assert "fault tolerance" in out
        assert "availability" in out
        assert "worker 1: crashes 1" in out


class TestCircuitBreaker:
    """Grey failures: a worker that heartbeats fine but fails its work."""

    def _breaker(self, **kw):
        from repro.cluster import CircuitBreaker

        defaults = dict(threshold=0.5, window=4, min_samples=2, cooldown_s=1e-3)
        defaults.update(kw)
        return CircuitBreaker(**defaults)

    def test_trips_at_threshold_not_before(self):
        b = self._breaker()
        b.record(False, 0.0)  # one sample < min_samples: no trip
        assert not b.is_open(0.0) and b.trips == 0
        b.record(False, 1e-4)  # 2/2 failed >= 0.5
        assert b.is_open(2e-4) and b.trips == 1

    def test_successes_keep_it_closed(self):
        b = self._breaker()
        for i in range(8):
            b.record(True, i * 1e-4)
        b.record(False, 9e-4)  # 1/4 of the window < 0.5
        assert not b.is_open(1e-3) and b.trips == 0

    def test_window_slides(self):
        b = self._breaker(window=4, min_samples=4)
        for i in range(4):
            b.record(True, i * 1e-4)
        # two failures push two old successes out: 2/4 >= 0.5 -> trip
        b.record(False, 5e-4)
        b.record(False, 6e-4)
        assert b.trips == 1

    def test_half_open_probe_recloses_on_success(self):
        b = self._breaker(threshold=0.75)
        b.record(False, 0.0)
        b.record(False, 1e-4)  # trips; open until 1.1e-3
        assert b.is_open(1e-3)
        assert not b.is_open(2e-3)  # cooldown over: half-open
        b.record(True, 2e-3)  # probe succeeds
        assert not b.is_open(2e-3) and b.open_until_s is None
        b.record(False, 3e-3)  # window was reset: one failure alone
        assert not b.is_open(3e-3) and b.trips == 1

    def test_half_open_probe_failure_retrips(self):
        b = self._breaker()
        b.record(False, 0.0)
        b.record(False, 1e-4)
        b.record(True, 5e-4)  # launched pre-trip: ignored while open
        assert b.is_open(1e-3) and b.trips == 1
        b.record(False, 2e-3)  # half-open probe fails
        assert b.is_open(2.5e-3) and b.trips == 2

    def test_validation(self):
        for kw in (
            dict(threshold=0.0),
            dict(threshold=1.5),
            dict(min_samples=0),
            dict(window=1, min_samples=2),
            dict(cooldown_s=0.0),
        ):
            with pytest.raises(ValueError):
                self._breaker(**kw)
        for kw in (
            dict(breaker_threshold=2.0),
            dict(breaker_min_samples=0),
            dict(breaker_window=2, breaker_min_samples=3),
            dict(breaker_cooldown_s=0.0),
        ):
            with pytest.raises(ValueError):
                RecoveryConfig(**kw)

    def test_route_skips_breaker_open_worker(self):
        from repro.cluster import CircuitBreaker, EnginePool

        pool = EnginePool(workers=2)
        pool.workers[0].breaker = CircuitBreaker(min_samples=1, window=4)
        pool.workers[0].breaker.record(False, 0.0)  # trips immediately
        req = AttentionRequest(
            request_id=0, pattern=longformer_pattern(64, 8, (0,)),
            q=np.zeros((64, 8)), k=np.zeros((64, 8)), v=np.zeros((64, 8)),
            heads=2, arrival_s=0.0,
        )
        assert pool.route(req, now=1e-4).wid == 1  # open: skipped
        assert pool.route(req, now=1.0).wid == 0  # cooldown over: back
        # The clock is required: a clockless call used to silently skip
        # the breaker check and route into the tripped worker.
        with pytest.raises(TypeError):
            pool.route(req)
        with pytest.raises(TypeError):
            pool.route(req, now=None)

    def test_grey_failure_trips_and_shifts_traffic(self):
        """Worker 0 answers every heartbeat but fails 90% of its
        dispatches: the breaker opens and the router shifts load to
        worker 1, with the conservation law intact throughout."""
        recovery = RecoveryConfig(
            heartbeat_interval_s=5e-5,
            heartbeat_timeout_s=1e-4,
            max_retries=6,
            breaker_threshold=0.5,
            breaker_window=4,
            breaker_min_samples=2,
            # Longer than any run at any clock calibration: once tripped,
            # worker 0 stays shielded, so the traffic shift is not a
            # function of how many half-open probes the timescale allows.
            breaker_cooldown_s=10.0,
        )
        sim, report = _run(
            [TransientSpec(prob=0.9, worker=0)], recovery=recovery
        )
        trips = sim.pool.workers[0].breaker.trips
        assert trips >= 1
        assert sim.pool.workers[1].breaker.trips == 0
        by_wid = {w.wid: w for w in report.workers}
        assert by_wid[0].breaker_trips == trips
        # the healthy worker carries the run
        assert by_wid[1].served > by_wid[0].served
        assert "breaker trips" in report.render()

    def test_breaker_disabled_runs_are_untouched(self):
        """breaker_threshold=None (the default) must leave a faulty run
        byte-identical to one that never heard of breakers."""
        specs = [TransientSpec(prob=0.3, worker=0)]
        _, plain = _run(specs)
        _, off = _run(specs, recovery=RecoveryConfig(
            heartbeat_interval_s=5e-5, heartbeat_timeout_s=1e-4,
            breaker_threshold=None,
        ))
        assert plain.render() == off.render()
