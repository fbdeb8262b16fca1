"""TransportCluster: the control plane on real transports and real kills.

The plane's laws (:func:`repro.cluster.events.check`: four-way
conservation, one terminal outcome per request, ...) are checked here
on the events of *actual* worker processes, including one that is
SIGKILL'd mid-run, so the recovery paths the discrete-event suite
models are exercised by a genuinely dead process.  Since the transport
cluster *is* the simulator's control plane on another executor, the
overload and recovery features (shedding, the admission door, retry
backoff, stealing) are pinned on real transports too; every scenario
goes through the shared ``drive`` fixture (``tests/conftest.py``).
"""

import re
import time
from contextlib import contextmanager

import numpy as np
import pytest

import repro.cluster.events as cluster_events
from repro.api import CapabilityError
from repro.cluster import EDFPolicy, MaxWaitPolicy, QueueDepthCap, RecoveryConfig
from repro.cluster.events import check
from repro.patterns.library import longformer_pattern
from repro.serving import AttentionRequest, ServingSession, TraceSpec, synthetic_trace
from repro.transport import (
    InProcessTransport,
    TransportCluster,
    TransportClusterConfig,
    make_transport,
)

PATTERN = longformer_pattern(64, 8, (0,))
HEADS, HIDDEN = 2, 16


def _requests(num, seed=0, first=0, **fields):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(first, first + num):
        q, k, v = (rng.standard_normal((PATTERN.n, HIDDEN)) for _ in range(3))
        out.append(
            AttentionRequest(
                request_id=i, pattern=PATTERN, q=q, k=k, v=v, heads=HEADS, **fields
            )
        )
    return out


@contextmanager
def _checked(cluster):
    """``with cluster``, its events checked against the plane's laws at exit."""
    events = []
    cluster.listen(events.append)
    with cluster:
        yield cluster
    assert not check(events)


def _kill_once(wid, after=0, holding=False):
    """A tick that kills worker ``wid`` once ``after`` requests completed
    (and, if ``holding``, while it holds launched batches)."""
    killed = []

    def tick(cluster, now):
        if killed or len(cluster.metrics.records) < after:
            return
        if not holding or cluster.states[wid].launched:
            cluster.kill_worker(wid)
            killed.append(now)

    return tick, killed


def _knobs(**overrides):
    knobs = dict(
        workers=2,
        max_batch_size=4,
        recovery=RecoveryConfig(heartbeat_interval_s=0.01, heartbeat_timeout_s=2.0),
        warm=((PATTERN, HEADS, HIDDEN // HEADS),),
    )
    knobs.update(overrides)
    return knobs


class TestConservation:
    @pytest.mark.parametrize("driver", ["inprocess", "multiprocess"])
    def test_every_request_completes_and_conserves(self, drive, driver):
        """A clean 16-request burst (nothing non-finite, so the request
        door lets all of it through) is served whole."""
        ticks = []
        cluster, report = drive(
            driver, _requests(16), tick=lambda plane, now: ticks.append(now), **_knobs()
        )
        assert report.submitted == report.completed == 16
        assert all(w.served > 0 for w in report.workers)  # equally warm: JSQ spread
        # pre-compiled plans count as warm plans, and really are
        assert all(w.cold_compiles == 0 for w in report.workers)
        assert all(w.plan_cache["misses"] == 1 for w in report.workers)
        # tick fires once per handled event (each arrival among them), not
        # per poll wake-up
        assert len(ticks) < 2 * 16 + 200 * report.makespan_s


class TestControlPlaneOnRealWorkers:
    """Features the transport driver gained by sharing the simulator's
    control plane; each must still conserve."""

    def test_edf_drop_expired_sheds_an_already_expired_request(self, drive):
        requests = _requests(8)
        requests[3].deadline_s = 1e-9  # gone before the first consultation
        _, report = drive(
            "inprocess", requests, **_knobs(policy=EDFPolicy(), drop_expired=True)
        )
        assert report.shed == 1 and report.completed == 7

    def test_admission_policy_rejects_at_the_door(self, drive):
        _, report = drive(
            "inprocess",
            _requests(8),
            **_knobs(workers=1, admission=QueueDepthCap(max_depth=3)),
        )
        # the burst is admitted whole before anything launches: depth 3 fills
        assert report.rejected == 5 and report.completed == 3

    def test_dispatch_error_retries_after_backoff_then_fails(self, drive):
        transport = InProcessTransport()
        attempts = []

        def broken_attend(*args, **kwargs):
            attempts.append(transport.clock())
            raise RuntimeError("engine on fire")

        transport.runtime.attend = broken_attend
        recovery = RecoveryConfig(
            heartbeat_interval_s=0.01,
            heartbeat_timeout_s=2.0,
            max_retries=2,
            backoff_base_s=0.02,
            backoff_cap_s=1.0,
        )
        _, report = drive(
            "inprocess",
            _requests(1),
            transports=[transport],
            **_knobs(workers=1, recovery=recovery),
        )
        assert report.failed == 1 and report.completed == 0 and report.retries == 2
        gaps = np.diff(attempts)
        assert len(attempts) == 3
        assert gaps[0] >= recovery.backoff_s(1) and gaps[1] >= recovery.backoff_s(2)

    def test_idle_worker_steals_from_a_backlogged_peer(self):
        # Nothing pre-compiled, and a near-zero miss probability: the
        # worker that served the plan before wins every routing decision.
        # After a one-request run warms worker 0, the whole burst queues
        # there ...
        knobs = _knobs(warm=(), affinity_miss_prob=1e-6, max_inflight_per_worker=1)
        with _checked(TransportCluster(TransportClusterConfig(driver="inprocess", **knobs))) as cluster:
            cluster.run(_requests(1, seed=1))
            report = cluster.run(_requests(12, first=100))
        # ... and worker 1, idle with a dry queue, takes some of it.
        assert report.steals >= 1 and report.workers[1].stolen_in > 0
        assert any(r.stolen for r in cluster.metrics.records)
        assert report.completed == report.submitted == 13


class TestBursts:
    def test_a_timed_out_burst_leaves_no_stale_batch_timer(self):
        """The drain timeout fails a held singleton; the next full burst
        is consulted at once, not skipped for the dead timer's entry."""
        knobs = _knobs(workers=1, max_batch_size=2, warm=(), drain_timeout_s=0.3,
                       policy=MaxWaitPolicy(max_wait_s=0.5))
        with _checked(TransportCluster(TransportClusterConfig(driver="inprocess", **knobs))) as cluster:
            assert cluster.run(_requests(1)).failed == 1
            time.sleep(0.6)
            report = cluster.run(_requests(2, first=10))
        assert (report.completed, report.failed) == (2, 1)

    def test_a_repeated_request_id_is_refused_before_any_is_admitted(self):
        def stop(cluster, now):
            if cluster.metrics.counts["arrive"] == 2:
                raise RuntimeError("the tick stops the run")

        with TransportCluster(TransportClusterConfig(driver="inprocess", **_knobs(workers=1))) as cluster:
            with pytest.raises(ValueError, match=r"^request id 1 repeats within the burst$"):
                cluster.run(_requests(2, first=1) + _requests(1, first=1))
            assert cluster.metrics.counts["arrive"] == 0
            with pytest.raises(RuntimeError, match="the tick stops the run"):
                cluster.run(_requests(2), tick=stop)  # ids 0 and 1 stay live
            with pytest.raises(ValueError, match=r"^request id 0 is still live on the plane$"):
                cluster.run(_requests(1))
            assert cluster.metrics.counts["arrive"] == 2

    @pytest.mark.parametrize("offset", [-0.1, float("inf"), float("nan"), 0.3, 0.5])
    def test_an_offset_outside_the_drain_window_is_refused_before_any_is_admitted(self, offset):
        """A request that could not arrive before the drain deadline would
        leave ``run`` without an outcome: refused up front, naming it."""
        knobs = _knobs(workers=1, drain_timeout_s=0.3)
        with TransportCluster(TransportClusterConfig(driver="inprocess", **knobs)) as cluster:
            requests = _requests(3)
            requests[2].arrival_s = offset
            why = rf"^request id 2 arrives at offset {re.escape(repr(offset))} s"
            with pytest.raises(ValueError, match=why):
                cluster.run(requests)
            assert cluster.metrics.counts["arrive"] == 0
            assert [r.arrival_s for r in requests[:2]] == [0.0, 0.0]

    def test_arrival_offsets_are_replayed(self):
        """Requests keep their offsets into the run: the first three are
        batched before the last three arrive 0.2 s later."""
        events = []
        requests = _requests(3) + _requests(3, first=3, arrival_s=0.2)
        knobs = _knobs(workers=1, max_batch_size=4)
        with _checked(TransportCluster(TransportClusterConfig(driver="inprocess", **knobs))) as cluster:
            cluster.listen(events.append)
            t0 = cluster.executor.now()
            report = cluster.run(requests)
        launches = [[r.request_id for r in e.payload.requests] for e in events if e.kind == "launch"]
        assert launches == [[0, 1, 2], [3, 4, 5]]
        assert report.completed == 6
        arrival = {r.request_id: r.arrival_s for r in cluster.metrics.records}
        assert t0 <= arrival[0] == arrival[1] == arrival[2]
        assert arrival[3] == arrival[4] == arrival[5] == pytest.approx(arrival[0] + 0.2)

    def test_a_list_run_again_arrives_at_its_offsets_again(self):
        """The plane books each run's absolute stamps on its own copies:
        the caller's list keeps its offsets, so running it again replays
        them instead of reading the last run's stamps as offsets."""
        requests = _requests(2) + _requests(1, first=2, arrival_s=0.02)
        knobs = _knobs(workers=1, drain_timeout_s=5.0)
        with _checked(TransportCluster(TransportClusterConfig(driver="inprocess", **knobs))) as cluster:
            for _ in range(3):
                booked = len(cluster.metrics.records)
                before = cluster.executor.now()
                cluster.run(requests)
                after = cluster.executor.now()
                assert len(cluster.metrics.records) == booked + 3
                stamp = {r.request_id: r.arrival_s for r in cluster.metrics.records[booked:]}
                t0 = stamp[0]  # offset 0.0: the run's own start
                assert before <= t0 <= after
                assert stamp == {0: t0, 1: t0, 2: t0 + 0.02}
                assert [r.arrival_s for r in requests] == [0.0, 0.0, 0.02]

    def test_an_arrival_due_before_the_drain_deadline_still_arrives(self):
        """The worker is busy past the deadline while request 1 fell due
        before it: request 1 arrives first, then the give-up fails both."""
        transport = InProcessTransport(warm=((PATTERN, HEADS, HIDDEN // HEADS),))
        attend = transport.runtime.attend

        def slow_attend(*args, **kwargs):
            time.sleep(0.15)
            return attend(*args, **kwargs)

        transport.runtime.attend = slow_attend
        requests = _requests(1) + _requests(1, first=1, arrival_s=0.05)
        knobs = _knobs(workers=1, drain_timeout_s=0.1)
        with _checked(TransportCluster(TransportClusterConfig(driver="inprocess", **knobs),
                                       transports=[transport])) as cluster:
            report = cluster.run(requests)
        assert (report.submitted, report.failed) == (2, 2)


class TestOneConsultationInstant:
    def test_the_simulator_and_real_workers_form_the_same_batches(self, drive, monkeypatch):
        """The plane consults a worker once per instant, after every
        arrival due by then, on every executor.  Arrivals that come in
        bursts at one instant, or further apart than any service time,
        therefore launch as the same batches in virtual and in wall time."""
        streams = []

        def keep(events, drop_expired=False):  # what ``drive`` checks, kept
            streams.append(events)
            return check(events, drop_expired)

        monkeypatch.setattr(cluster_events, "check", keep)
        requests = (
            _requests(3)
            + _requests(3, first=3, arrival_s=0.2)
            + _requests(5, first=6, arrival_s=0.4)
            + _requests(1, first=11, arrival_s=0.6)
        )
        drive("simulated", requests, workers=1, max_batch_size=4)
        drive("inprocess", requests, workers=1, max_batch_size=4, max_inflight_per_worker=1,
              warm=((PATTERN, HEADS, HIDDEN // HEADS),))
        simulated, real = (
            [[r.request_id for r in e.payload.requests] for e in events if e.kind == "launch"]
            for events in streams
        )
        assert simulated == [[0, 1, 2], [3, 4, 5], [6, 7, 8, 9], [10], [11]]
        assert real == simulated


class TestMultiprocess:
    def test_killed_worker_recovers_via_requeue(self, drive):
        """A real SIGKILL mid-run: the dead worker's orphans re-route to
        the survivor; nothing is lost, nothing silently disappears."""
        tick, killed = _kill_once(1, after=1)
        _, report = drive("multiprocess", _requests(20), tick=tick, **_knobs())
        assert killed
        assert report.failed == 0  # every orphan was recovered
        assert report.completed == report.submitted == 20
        assert report.requeues > 0
        crashed = [w for w in report.workers if w.crashes > 0]
        assert len(crashed) == 1 and crashed[0].wid == 1

    def test_no_requeue_strands_the_orphans(self, drive):
        """Recovery off: the kill still conserves, but terminally —
        orphans land in ``failed`` instead of being re-routed."""
        tick, _ = _kill_once(1)
        recovery = RecoveryConfig(
            heartbeat_interval_s=0.01, heartbeat_timeout_s=2.0, requeue=False
        )
        _, report = drive(
            "multiprocess", _requests(16), tick=tick, **_knobs(recovery=recovery)
        )
        assert report.failed > 0
        assert report.requeues == 0
        assert report.completed + report.failed == 16

    def test_all_workers_dead_fails_everything_terminally(self, drive):
        def tick(cluster, now):
            cluster.kill_worker(0)
            cluster.kill_worker(1)

        _, report = drive("multiprocess", _requests(8), tick=tick, **_knobs())
        assert report.completed + report.failed == 8
        assert report.failed > 0  # nobody left to requeue onto


class _KeepsRows(TransportCluster):
    """Keeps the row each member's completion carries (the plane keeps none)."""

    def __init__(self, config):
        super().__init__(config)
        self.rows = {}

    def _complete(self, req, batch, worker, dispatched, now, served):
        super()._complete(req, batch, worker, dispatched, now, served)
        self.rows[req.request_id] = served[0]


TRACE = TraceSpec(n=64, window=8, heads=2, head_dim=4, mixed=True, num_requests=24)


@pytest.fixture(scope="module")
def session_outputs():
    session = ServingSession()
    for req in synthetic_trace(TRACE):
        session.submit(
            req.pattern, req.q, req.k, req.v, heads=req.heads, request_id=req.request_id
        )
    return {rid: result.output for rid, result in session.drain().items()}


class TestRows:
    @pytest.mark.parametrize(
        "driver, kill",
        [("inprocess", False), ("multiprocess", False), ("multiprocess", True)],
        ids=["inprocess", "multiprocess", "multiprocess-kill"],
    )
    def test_rows_equal_the_sessions_byte_for_byte(self, driver, kill, session_outputs):
        """Every completed member gets its own row of the worker's stacked
        output — across workers, steals and a SIGKILL'd worker's requeued
        orphans — and it is the row the in-process session serves."""
        # Worker 1 dies holding batches.  They are usually requeued to
        # worker 0; a completion already in the pipe may still land first.
        # Either way each member's row must be its own.
        tick, killed = _kill_once(1, after=8, holding=True) if kill else (None, [])
        config = TransportClusterConfig(driver=driver, steal=True, **_knobs(warm=()))
        with _checked(_KeepsRows(config)) as cluster:
            report = cluster.run(synthetic_trace(TRACE), tick=tick)
        assert bool(killed) == kill
        assert report.completed == TRACE.num_requests and report.failed == 0
        assert cluster.rows.keys() == session_outputs.keys()
        for rid, row in cluster.rows.items():
            ref = session_outputs[rid]
            assert (row.dtype, row.shape) == (ref.dtype, ref.shape)
            assert row.tobytes() == ref.tobytes(), rid


class TestConfig:
    def test_unknown_driver_rejected(self):
        with pytest.raises(ValueError, match="unknown transport driver"):
            make_transport("carrier-pigeon")
        with pytest.raises(ValueError, match="unknown transport driver"):
            TransportClusterConfig(driver="carrier-pigeon")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("workers", 0),
            ("max_batch_size", 0),
            ("max_inflight_per_worker", 0),
        ],
    )
    def test_bounds_validated(self, field, value):
        with pytest.raises(ValueError, match=field):
            TransportClusterConfig(**{field: value})

    @pytest.mark.parametrize(
        "backend,pad,missing",
        [("systolic", False, "supports_batch"), ("dense", True, "supports_valid_lens")],
    )
    def test_backend_that_cannot_run_the_batches_is_refused(self, backend, pad, missing):
        """Transports ship every batch stacked: a backend without a batch
        axis failed every launch, and ``dense`` burned a retry per padded
        batch before the plane fell back to serving it alone."""
        with pytest.raises(CapabilityError, match=rf"^backend '{backend}' lacks {missing}"):
            TransportClusterConfig(driver="inprocess", backend=backend, pad_to_bucket=pad)

    @pytest.mark.parametrize(
        "backend,pad",
        [("functional", False), ("functional-legacy", False), ("dense", False), ("functional", True)],
    )
    def test_backends_that_batch_still_serve(self, backend, pad):
        config = TransportClusterConfig(
            driver="inprocess", backend=backend, pad_to_bucket=pad, **_knobs(workers=1, warm=())
        )
        with _checked(TransportCluster(config)) as cluster:
            report = cluster.run(_requests(3))
        assert report.completed == 3 and report.retries == 0

    def test_recovery_knobs_are_the_simulators(self):
        """The flat recovery fields are gone: one RecoveryConfig, with a
        wall-clock heartbeat by default."""
        with pytest.raises(TypeError):
            TransportClusterConfig(max_retries=1)
        recovery = TransportClusterConfig().recovery
        assert recovery.heartbeat_interval_s == 0.05
        assert recovery.heartbeat_timeout_s == 1.0
