"""Arrival processes and request sources."""

import copy
import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import (
    DEFAULT_SLO_CLASSES,
    ClosedLoopSource,
    CostModelClock,
    OnOffProcess,
    PoissonProcess,
    RequestFactory,
    SimConfig,
    SLOClass,
    WorkloadSpec,
    open_loop,
    simulate,
)
from repro.cluster.arrivals import ArrivalProcess
from repro.core.salo import pattern_structure_key
from repro.patterns.library import longformer_pattern
from repro.serving import AttentionRequest, TraceSpec
from repro.serving.request import OperandDraw
from repro.serving.trace import pattern_families


class TestProcesses:
    def test_poisson_mean_rate(self):
        rng = np.random.default_rng(0)
        times = PoissonProcess(rate_rps=1000.0).times(rng, 4000)
        assert np.all(np.diff(times) >= 0)
        mean_gap = times[-1] / len(times)
        assert mean_gap == pytest.approx(1e-3, rel=0.1)

    def test_poisson_seeded_reproducible(self):
        t1 = PoissonProcess(500.0).times(np.random.default_rng(7), 100)
        t2 = PoissonProcess(500.0).times(np.random.default_rng(7), 100)
        np.testing.assert_array_equal(t1, t2)

    def test_on_off_is_burstier_than_poisson(self):
        """Same mean rate, higher inter-arrival variance (the MMPP point)."""
        rng1, rng2 = np.random.default_rng(1), np.random.default_rng(1)
        n = 4000
        poisson = PoissonProcess(rate_rps=1000.0).times(rng1, n)
        bursty = OnOffProcess(
            rate_on_rps=2000.0, rate_off_rps=0.0, mean_on_s=0.01, mean_off_s=0.01
        ).times(rng2, n)
        assert np.all(np.diff(bursty) >= 0)
        # mean rates comparable...
        assert bursty[-1] / n == pytest.approx(poisson[-1] / n, rel=0.35)
        # ...but the on-off gaps have a heavier tail
        cv_p = np.std(np.diff(poisson)) / np.mean(np.diff(poisson))
        cv_b = np.std(np.diff(bursty)) / np.mean(np.diff(bursty))
        assert cv_b > cv_p * 1.2

    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonProcess(rate_rps=0.0)
        with pytest.raises(ValueError):
            OnOffProcess(rate_on_rps=-1.0)

    def test_open_loop_refuses_a_negative_gap(self):
        class Backwards(ArrivalProcess):
            name = "backwards"

            def times(self, rng, count):
                return np.arange(count, 0, -1, dtype=np.float64)

        spec = TraceSpec(num_requests=3, n=64, window=8, heads=2, head_dim=4)
        with pytest.raises(ValueError, match="backwards produced non-monotone times"):
            open_loop(spec, Backwards())


class TestFactoryAndSources:
    def test_factory_assigns_slo_classes_by_share(self):
        spec = WorkloadSpec(
            num_requests=300,
            n=64,
            window=8,
            heads=2,
            head_dim=4,
            slo_classes=(
                SLOClass("tight", 0.001, share=0.25),
                SLOClass("loose", 0.1, share=0.75),
            ),
            seed=2,
        )
        factory = RequestFactory(spec)
        reqs = [factory.make(0.0) for _ in range(300)]
        tight = sum(1 for r in reqs if r.slo_class == "tight")
        assert 40 < tight < 110  # ~75 expected
        assert all(r.deadline_s in (0.001, 0.1) for r in reqs)

    def test_open_loop_same_workload_across_processes(self):
        """Arrival timing and request mix draw from separate streams, so
        two processes see identical work at different times."""
        spec = WorkloadSpec(num_requests=32, n=64, window=8, heads=2, head_dim=4, seed=5)
        from repro.core.salo import pattern_structure_key

        a = open_loop(spec, PoissonProcess(1000.0)).requests
        b = open_loop(spec, PoissonProcess(250.0)).requests
        for ra, rb in zip(a, b):
            assert pattern_structure_key(ra.pattern) == pattern_structure_key(rb.pattern)
            np.testing.assert_array_equal(ra.q, rb.q)
        assert [r.arrival_s for r in a] != [r.arrival_s for r in b]

    def test_best_effort_stream_draws_no_class(self):
        """A TraceSpec without SLO classes times the same requests the
        factory makes, best effort, at the process's timestamps."""
        spec = TraceSpec(num_requests=16, n=64, window=8, heads=2, head_dim=4, seed=3)
        source = open_loop(spec, PoissonProcess(5000.0))
        times = PoissonProcess(5000.0).times(np.random.default_rng(3 + 0x9E3779B9), 16)
        assert [r.arrival_s for r in source.initial()] == [float(t) for t in times]
        assert all((r.deadline_s, r.slo_class) == (None, "default") for r in source.requests)
        factory = RequestFactory(spec)
        for request in source.requests:
            same = factory.make(request.arrival_s)
            assert same.request_id == request.request_id
            assert same.q.tobytes() == request.q.tobytes()

    def test_workload_spec_is_a_trace_spec_with_slo_classes(self):
        assert issubclass(WorkloadSpec, TraceSpec)
        geometry = dict(num_requests=8, n=64, window=8, heads=2, head_dim=4, seed=1)
        assert WorkloadSpec(**geometry).slo_classes == DEFAULT_SLO_CLASSES
        assert WorkloadSpec(**geometry, slo_classes=()).slo_classes == ()
        assert TraceSpec(**geometry).slo_classes == ()

    def test_closed_loop_budget_and_feedback(self):
        spec = WorkloadSpec(num_requests=10, n=64, window=8, heads=2, head_dim=4, seed=1)
        source = ClosedLoopSource(spec, clients=4, think_time_s=0.0)
        first = source.initial()
        assert len(first) == 4
        emitted = len(first)
        for req in list(first):
            nxt = source.on_complete(req, now=1.0)
            emitted += len(nxt)
            for r in nxt:
                assert r.arrival_s >= 1.0
        # budget caps total emission
        while True:
            nxt = source.on_complete(first[0], now=2.0)
            if not nxt:
                break
            emitted += len(nxt)
        assert emitted == spec.num_requests


def _eager_requests(spec, arrivals):
    """The reference: ``RequestFactory.make`` as it drew before requests
    held their operands undrawn — the same one stream, arrays up front."""
    families = pattern_families(spec)
    rng = np.random.default_rng(spec.seed)
    shares = np.asarray([c.share for c in spec.slo_classes], dtype=np.float64)
    requests = []
    for rid, arrival_s in enumerate(arrivals, start=1):
        pattern = families[int(rng.integers(len(families)))]
        hidden = spec.heads * spec.head_dim
        q, k, v = (rng.standard_normal((pattern.n, hidden)) for _ in range(3))
        cls = spec.slo_classes[int(rng.choice(len(spec.slo_classes), p=shares / shares.sum()))]
        requests.append(AttentionRequest(
            rid, pattern, q, k, v, heads=spec.heads, arrival_s=arrival_s,
            deadline_s=cls.deadline_s, slo_class=cls.name,
        ))
    return requests


def _drawn(request):
    return "q" in vars(request)


def _assert_same_traffic(lazy, eager):
    assert len(lazy) == len(eager)
    for a, b in zip(lazy, eager):
        assert not _drawn(a)
        assert (a.request_id, a.slo_class, a.deadline_s, a.arrival_s) == (
            b.request_id, b.slo_class, b.deadline_s, b.arrival_s)
        assert pattern_structure_key(a.pattern) == pattern_structure_key(b.pattern)
        assert (a.n, a.hidden, a.head_dim) == (b.n, b.hidden, b.head_dim)
        assert not _drawn(a)  # the layout reads need no operands
        for name in "qkv":
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


_SPECS = [
    WorkloadSpec(num_requests=40, n=256, window=32, heads=2, head_dim=8, seed=0),
    WorkloadSpec(num_requests=40, n=64, window=8, heads=2, head_dim=4, seed=3),
    WorkloadSpec(num_requests=40, n=128, window=16, heads=4, head_dim=4, mixed=False,
                 global_tokens=(0, 5), seed=11),
    WorkloadSpec(num_requests=40, n=64, window=8, heads=2, head_dim=4, seed=1234,
                 slo_classes=(SLOClass("tight", 0.001, share=0.25),
                              SLOClass("loose", 0.1, share=0.5),
                              SLOClass("best-effort", None, share=0.25))),
]


class TestLazyOperands:
    """Factory requests hold their operands as the generator state they
    were drawn from, and produce the same bytes the eager draw did."""

    @pytest.mark.parametrize("spec", _SPECS)
    def test_open_loop_matches_the_eager_draw(self, spec):
        source = open_loop(spec, PoissonProcess(1000.0))
        arrivals = [r.arrival_s for r in source.requests]
        times = PoissonProcess(1000.0).times(
            np.random.default_rng(spec.seed + 0x9E3779B9), spec.num_requests)
        assert arrivals == [float(t) for t in times]
        _assert_same_traffic(source.requests, _eager_requests(spec, arrivals))

    @pytest.mark.parametrize("spec", _SPECS)
    def test_closed_loop_matches_the_eager_draw(self, spec):
        source = ClosedLoopSource(spec, clients=3, think_time_s=0.002)
        lazy = source.initial()
        think = np.random.default_rng(spec.seed + 0x51F15EED)
        arrivals = [0.0] * len(lazy)
        for step in range(spec.num_requests):
            nxt = source.on_complete(lazy[step], now=float(step))
            if nxt:
                arrivals.append(step + float(think.exponential(0.002)))
            lazy += nxt
        _assert_same_traffic(lazy, _eager_requests(spec, arrivals))

    def test_copies_of_an_undrawn_request_draw_the_same_bytes(self):
        (request, *_) = open_loop(_SPECS[1], PoissonProcess(1000.0)).requests
        copies = [pickle.loads(pickle.dumps(request)), copy.deepcopy(request)]
        assert not any(_drawn(r) for r in (request, *copies))
        for other in copies:
            assert (other.request_id, other.n, other.hidden) == (
                request.request_id, request.n, request.hidden)
            for name in "qkv":
                assert getattr(other, name).tobytes() == getattr(request, name).tobytes()

    def test_operands_are_drawn_once_and_kept(self):
        (request, *_) = open_loop(_SPECS[0], PoissonProcess(1000.0)).requests
        q, k, v = request.operands()
        assert _drawn(request) and request.q is q and request.k is k and request.v is v
        assert q.shape == (request.n, request.hidden) and q.dtype == np.float64


class TestTheSimulatorDrawsNothing:
    def test_flat_clock_simulation_materialises_no_operands(self):
        spec = WorkloadSpec(num_requests=200, n=256, window=32, heads=2, head_dim=8, seed=4)
        source = open_loop(spec, PoissonProcess(4000.0))
        report = simulate(source, SimConfig(workers=2, service=CostModelClock.flat()))
        assert report.completed > 0
        assert not any(_drawn(r) for r in source.requests)

    def test_building_a_source_holds_no_operands(self):
        """1000 requests: ~78 MB of float64 q/k/v when drawn eagerly; the
        generator states and request records stay well under 8 MB."""
        spec = WorkloadSpec(num_requests=1000, n=256, window=32, heads=2, head_dim=8)
        open_loop(replace(spec, num_requests=4), PoissonProcess(1000.0))  # warm imports
        tracemalloc.start()
        try:
            source = open_loop(spec, PoissonProcess(1000.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(source.requests) == 1000
        assert peak < 8 * 2**20


class TestDoorsOnDrawnRequests:
    """The doors run at construction, from the shape, with the messages
    an array-holding request gets."""

    @pytest.mark.parametrize("shape, heads, match", [
        ((17, 8), 2, "pattern is for n=16, request data has n=17"),
        ((16, 8), 3, "hidden size 8 not divisible by heads 3"),
        ((16, 8), 0, "hidden size 8 not divisible by heads 0"),
        ((16, 0), 1, r"request 'r-1': operands have zero width, shape \(16, 0\)"),
    ])
    def test_layout_doors(self, shape, heads, match):
        pattern = longformer_pattern(16, 4, (0,))
        operands = OperandDraw.take(np.random.default_rng(0), np.empty(shape), "r-1")
        with pytest.raises(ValueError, match=match):
            AttentionRequest.drawn(operands, request_id="r-1", pattern=pattern, heads=heads)
        arrays = operands.arrays()
        with pytest.raises(ValueError, match=match):
            AttentionRequest("r-1", pattern, *arrays, heads=heads)

    @pytest.mark.parametrize("timing, match", [
        (dict(deadline_s=0.0), "deadline_s must be positive"),
        (dict(arrival_s=float("nan")), "arrival_s is NaN"),
    ])
    def test_timing_doors(self, timing, match):
        """The deadline and arrival doors run on a drawn request too."""
        operands = OperandDraw.take(np.random.default_rng(0), np.empty((16, 8)), 0)
        with pytest.raises(ValueError, match=match):
            AttentionRequest.drawn(
                operands, request_id=0, pattern=longformer_pattern(16, 4, (0,)), **timing)

    def test_operands_are_not_a_field(self):
        operands = OperandDraw.take(np.random.default_rng(0), np.empty((16, 8)), 0)
        with pytest.raises(TypeError, match=r"takes no field\(s\) \['q'\]"):
            AttentionRequest.drawn(operands, request_id=0, q=np.zeros((16, 8)),
                                   pattern=longformer_pattern(16, 4, (0,)))

    @pytest.mark.parametrize("poisoned", [0, 1, 2])
    def test_a_non_finite_draw_fails_make_by_request_id(self, poisoned):
        class Poisoned:
            """The factory's generator, emitting NaN on one operand draw."""

            def __init__(self, rng):
                self.rng, self.normals = rng, 0

            def __getattr__(self, name):
                return getattr(self.rng, name)

            def standard_normal(self, *args, **kwargs):
                out = self.rng.standard_normal(*args, **kwargs)
                if self.normals == poisoned:
                    out[1, 2] = np.nan
                self.normals += 1
                return out

        factory = RequestFactory(
            WorkloadSpec(num_requests=2, n=64, window=8, heads=2, head_dim=8, seed=9))
        factory.make(0.0)
        factory.rng = Poisoned(factory.rng)
        with pytest.raises(ValueError, match=f"request 2: {'qkv'[poisoned]} holds non-finite"):
            factory.make(1.0)
