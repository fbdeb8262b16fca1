"""Tests for the serving session facade (queue -> batch -> engine)."""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster import PoissonProcess, open_loop
from repro.cluster.arrivals import ArrivalProcess
from repro.core.config import HardwareConfig
from repro.core.salo import SALO
from repro.patterns.base import Band
from repro.patterns.hybrid import HybridSparsePattern
from repro.patterns.library import longformer_pattern
from repro.serving import ServingSession, TraceSpec, replay, synthetic_trace
from repro.serving import trace as trace_module
from repro.serving.request import OperandDraw


class FakeClock:
    """Deterministic clock: each read advances by ``tick`` seconds."""

    def __init__(self, tick=0.001):
        self.t = 0.0
        self.tick = tick

    def __call__(self):
        self.t += self.tick
        return self.t


class FixedGaps(ArrivalProcess):
    """Arrivals ``gap`` seconds apart, the first at ``gap``."""

    name = "fixed-gaps"

    def __init__(self, gap):
        self.gap = gap

    def times(self, rng, count):
        return self.gap * np.arange(1, count + 1)


def _session(max_batch_size=8, tick=0.001):
    salo = SALO(HardwareConfig(pe_rows=4, pe_cols=4).exact())
    return ServingSession(salo=salo, max_batch_size=max_batch_size, clock=FakeClock(tick))


def _data(n, hidden, seed):
    rng = np.random.default_rng(seed)
    return tuple(rng.standard_normal((n, hidden)) for _ in range(3))


class TestSession:
    def test_outputs_bit_identical_to_direct_calls(self):
        session = _session()
        pattern = longformer_pattern(24, 6, (0,))
        payloads = {i: _data(24, 8, seed=i) for i in range(5)}
        for i, (q, k, v) in payloads.items():
            session.submit(pattern, q, k, v, request_id=i)
        results = session.drain()
        assert set(results) == set(payloads)
        oracle = SALO(HardwareConfig(pe_rows=4, pe_cols=4).exact())
        for i, (q, k, v) in payloads.items():
            direct = oracle.attend(pattern, q, k, v)
            assert np.array_equal(results[i].output, direct.output)

    def test_mixed_patterns_batch_by_structure(self):
        session = _session()
        win = longformer_pattern(24, 6, (0,))
        dil = HybridSparsePattern(24, [Band(-4, 4, 2)], ())
        for i in range(4):
            session.submit(win, *_data(24, 8, seed=i), request_id=f"w{i}")
        for i in range(3):
            session.submit(dil, *_data(24, 8, seed=10 + i), request_id=f"d{i}")
        session.drain()
        assert session.batches_executed == 2
        sizes = sorted(r.batch_size for r in session.results.values())
        assert sizes == [3, 3, 3, 4, 4, 4, 4]

    def test_latency_accounting_with_fake_clock(self):
        session = _session(tick=0.5)
        pattern = longformer_pattern(24, 6, (0,))
        session.submit(pattern, *_data(24, 8, 0), request_id="a")
        session.submit(pattern, *_data(24, 8, 1), request_id="b")
        session.drain()
        a, b = session.results["a"], session.results["b"]
        # Clock reads: submit a (0.5), submit b (1.0), dispatch (1.5), done (2.0).
        assert a.queue_s == pytest.approx(1.0)
        assert b.queue_s == pytest.approx(0.5)
        assert a.service_s == b.service_s == pytest.approx(0.5)
        assert a.latency_s == pytest.approx(1.5)
        assert a.batch_size == 2

    def test_stats_summary(self):
        session = _session()
        pattern = longformer_pattern(24, 6, (0,))
        for i in range(6):
            session.submit(pattern, *_data(24, 8, i))
        session.drain()
        stats = session.stats()
        assert stats.completed == 6
        assert stats.batches == 1
        assert stats.mean_batch_size == 6.0
        assert stats.throughput_rps > 0
        assert stats.latency_p99_ms >= stats.latency_p50_ms >= 0
        text = stats.render()
        assert "throughput" in text and "p50" in text

    def test_empty_stats(self):
        stats = _session().stats()
        assert stats.completed == 0 and stats.throughput_rps == 0.0

    def test_empty_stats_render(self):
        """Regression: an empty session's stats must render, not crash."""
        text = _session().stats().render()
        assert "requests completed   0" in text

    def test_single_request_stats_finite(self):
        """Regression: one request on an arbitrarily coarse clock must
        not divide by zero or report infinite throughput."""

        class FrozenClock:
            def __call__(self):
                return 1.0  # wall_s collapses to exactly 0

        salo = SALO(HardwareConfig(pe_rows=4, pe_cols=4).exact())
        session = ServingSession(salo=salo, clock=FrozenClock())
        pattern = longformer_pattern(24, 6, (0,))
        session.submit(pattern, *_data(24, 8, 0))
        session.drain()
        stats = session.stats()
        assert stats.completed == 1
        assert np.isfinite(stats.throughput_rps)
        assert stats.throughput_rps == 0.0  # zero wall and zero service
        assert np.isfinite(stats.latency_p99_ms)
        assert "inf" not in stats.render()

    def test_single_request_stats_with_ticking_clock(self):
        session = _session(tick=0.25)
        pattern = longformer_pattern(24, 6, (0,))
        session.submit(pattern, *_data(24, 8, 0))
        session.drain()
        stats = session.stats()
        assert stats.completed == 1 and stats.batches == 1
        assert 0 < stats.throughput_rps < float("inf")
        assert stats.latency_p50_ms == stats.latency_p99_ms

    def test_submit_metadata_rides_the_request(self):
        session = _session()
        pattern = longformer_pattern(24, 6, (0,))
        session.submit(
            pattern, *_data(24, 8, 0), request_id="d",
            arrival_s=40.0, deadline_s=0.5, slo_class="interactive",
        )
        (key, members), = session.scheduler.group_items()
        assert members[0].arrival_s == 40.0
        assert members[0].deadline_s == 0.5
        assert members[0].slo_class == "interactive"
        assert members[0].absolute_deadline_s == pytest.approx(40.5)
        session.drain()
        # queue_s clamps at 0: the arrival override lies beyond dispatch.
        assert session.results["d"].queue_s == 0.0

    def test_step_idle_returns_none(self):
        assert _session().step() is None

    def test_duplicate_request_id_rejected(self):
        session = _session()
        pattern = longformer_pattern(24, 6, (0,))
        session.submit(pattern, *_data(24, 8, 0), request_id="x")
        session.drain()
        with pytest.raises(ValueError):
            session.submit(pattern, *_data(24, 8, 1), request_id="x")

    def test_auto_ids_unique(self):
        session = _session()
        pattern = longformer_pattern(24, 6, (0,))
        ids = {session.submit(pattern, *_data(24, 8, i)) for i in range(4)}
        assert len(ids) == 4

    def test_duplicate_pending_id_rejected(self):
        session = _session()
        pattern = longformer_pattern(24, 6, (0,))
        session.submit(pattern, *_data(24, 8, 0), request_id="x")
        with pytest.raises(ValueError):  # still queued, not yet completed
            session.submit(pattern, *_data(24, 8, 1), request_id="x")

    def test_opaque_pattern_rejected_at_submit(self):
        """SALO cannot schedule mask-only patterns; submit fails fast
        instead of crashing a later drain with other requests queued."""
        from repro.patterns.base import AttentionPattern

        class Opaque(AttentionPattern):
            def row_keys(self, i):
                return np.asarray([i], dtype=np.int64)

        session = _session()
        z = np.zeros((16, 4))
        with pytest.raises(ValueError, match="band structure"):
            session.submit(Opaque(16), z, z, z)
        assert session.pending == 0

    def test_auto_serial_skips_user_taken_ints(self):
        session = _session()
        pattern = longformer_pattern(24, 6, (0,))
        session.submit(pattern, *_data(24, 8, 0), request_id=1)
        auto = session.submit(pattern, *_data(24, 8, 1))
        assert auto != 1
        results = session.drain()
        assert len(results) == 2  # neither request's result was overwritten


class TestSessionAdmission:
    def _admitting_session(self, admission, max_batch_size=8):
        salo = SALO(HardwareConfig(pe_rows=4, pe_cols=4).exact())
        return ServingSession(
            salo=salo,
            max_batch_size=max_batch_size,
            admission=admission,
            clock=FakeClock(),
        )

    def test_depth_cap_rejects_and_counts_per_class(self):
        from repro.serving import QueueDepthCap

        session = self._admitting_session(QueueDepthCap(max_depth=2))
        pattern = longformer_pattern(24, 6, (0,))
        ids = [
            session.submit(pattern, *_data(24, 8, seed=i), heads=2, slo_class="gold")
            for i in range(4)
        ]
        assert ids[0] is not None and ids[1] is not None
        assert ids[2] is None and ids[3] is None  # bounced at the door
        assert session.rejected == {"gold": 2}
        assert session.pending == 2
        results = session.drain()
        assert len(results) == 2
        assert session.stats().rejected == 2
        assert "rejected 2" in session.stats().render()

    def test_per_client_token_bucket_at_the_session_door(self):
        """submit(client_id=...) feeds composite token-bucket quotas."""
        from repro.serving import TokenBucketAdmission

        session = self._admitting_session(
            TokenBucketAdmission(rates={("gold", "flood"): 1.0}, burst=1.0)
        )
        pattern = longformer_pattern(24, 6, (0,))
        ids = [
            session.submit(
                pattern, *_data(24, 8, seed=i), heads=2,
                slo_class="gold", client_id="flood",
            )
            for i in range(3)
        ]
        assert ids[0] is not None and ids[1] is None and ids[2] is None
        # A different client of the same class has no contracted quota.
        assert session.submit(
            pattern, *_data(24, 8, seed=9), heads=2, slo_class="gold", client_id="ok"
        ) is not None
        assert session.rejected == {"gold": 2}

    def test_rejected_id_stays_usable(self):
        from repro.serving import QueueDepthCap

        session = self._admitting_session(QueueDepthCap(max_depth=1))
        pattern = longformer_pattern(24, 6, (0,))
        assert session.submit(pattern, *_data(24, 8, 0), heads=2, request_id="a")
        assert session.submit(pattern, *_data(24, 8, 1), heads=2, request_id="b") is None
        session.drain()
        # The rejected id was never consumed: resubmitting it works.
        assert session.submit(pattern, *_data(24, 8, 1), heads=2, request_id="b") == "b"

    def test_estimated_wait_cap_rejects_doomed_deadline(self):
        from repro.serving import EstimatedWaitCap

        session = self._admitting_session(EstimatedWaitCap(slack=1.0))
        pattern = longformer_pattern(24, 6, (0,))
        # An impossible budget: tighter than the request's own service
        # estimate, so the wait cap refuses it even on an empty queue.
        assert (
            session.submit(pattern, *_data(24, 8, 0), heads=2, deadline_s=1e-12)
            is None
        )
        # A generous budget sails through.
        assert session.submit(pattern, *_data(24, 8, 1), heads=2, deadline_s=10.0)

    def test_no_admission_policy_admits_everything(self):
        session = _session()
        pattern = longformer_pattern(24, 6, (0,))
        for i in range(20):
            assert session.submit(pattern, *_data(24, 8, i), heads=2) is not None
        assert session.rejected == {}


class TestTraceReplay:
    def test_replay_verifies_outputs_and_reports(self):
        spec = TraceSpec(num_requests=12, n=64, window=8, heads=2, head_dim=4, seed=3)
        requests = synthetic_trace(spec)
        assert len(requests) == 12
        report = replay(requests, max_batch_size=4)
        assert report.stats.completed == 12
        assert report.speedup is not None and report.speedup > 0
        assert "speedup" in report.render()

    def test_replay_without_baseline(self):
        spec = TraceSpec(num_requests=6, n=64, window=8, heads=1, head_dim=8, mixed=False)
        report = replay(synthetic_trace(spec), compare_sequential=False)
        assert report.sequential_s is None and report.speedup is None

    def test_open_loop_trace_stamps_monotone_timestamps(self):
        spec = TraceSpec(num_requests=20, n=64, window=8, heads=2, head_dim=4, seed=5)
        requests = open_loop(spec, PoissonProcess(1000.0)).requests
        times = [r.arrival_s for r in requests]
        assert times == sorted(times)
        assert times[-1] > 0
        # mean gap ~ 1/rate
        assert times[-1] / len(times) == pytest.approx(1e-3, rel=0.5)
        # same seed -> same trace, timestamps included
        again = [r.arrival_s for r in open_loop(spec, PoissonProcess(1000.0)).requests]
        assert times == again

    def test_open_loop_trace_custom_process(self):
        spec = TraceSpec(num_requests=5, n=64, window=8, heads=2, head_dim=4, seed=0)
        times = [r.arrival_s for r in open_loop(spec, FixedGaps(0.25)).requests]
        assert times == pytest.approx([0.25, 0.5, 0.75, 1.0, 1.25])

    def test_replay_forwards_trace_arrivals(self):
        spec = TraceSpec(num_requests=8, n=64, window=8, heads=2, head_dim=4, seed=1)
        requests = open_loop(spec, FixedGaps(10.0)).requests  # huge gaps
        report = replay(requests, compare_sequential=False)
        # Queueing delay is measured from *trace* arrival time; the whole
        # drain happens long "before" the late synthetic arrivals, so the
        # clamped queue delays collapse to ~0 instead of reflecting the
        # submit-loop wall time.
        assert report.stats.completed == 8
        assert report.stats.queue_p50_ms == pytest.approx(0.0, abs=1e-6)

    def test_replay_draws_operands_before_either_clock(self, monkeypatch):
        """An open-loop trace draws its operands on first read; replay
        draws them all before the sequential baseline's clock starts."""
        events = []
        arrays = OperandDraw.arrays
        monkeypatch.setattr(
            OperandDraw, "arrays", lambda draw: events.append("draw") or arrays(draw))
        clock = lambda: events.append("clock") or time.perf_counter()  # noqa: E731
        monkeypatch.setattr(trace_module, "time", SimpleNamespace(perf_counter=clock))
        spec = TraceSpec(num_requests=6, n=64, window=8, heads=2, head_dim=4, seed=2)
        requests = open_loop(spec, PoissonProcess(1000.0)).requests
        assert not any("q" in vars(r) for r in requests)
        report = replay(requests, max_batch_size=4)
        assert report.stats.completed == 6
        assert events.count("draw") == 6
        assert "draw" not in events[events.index("clock"):]

    def test_replay_refuses_a_bad_cap_before_the_baseline(self, monkeypatch):
        """The session, and so its batch-size check, is built before the
        sequential baseline runs a single request."""
        attended = []
        attend = SALO.attend
        monkeypatch.setattr(
            SALO, "attend", lambda salo, *a, **k: attended.append(1) or attend(salo, *a, **k))
        spec = TraceSpec(num_requests=4, n=64, window=8, heads=2, head_dim=4, seed=4)
        with pytest.raises(ValueError, match="max_batch_size"):
            replay(synthetic_trace(spec), max_batch_size=0)
        assert attended == []
