"""Decode-phase cluster simulation: TTFT/ITL metrics, continuous
batching on the cost-model clock, conservation at both granularities
(every run's events keep :func:`repro.cluster.events.check`'s laws)."""

import dataclasses
import hashlib
import json

import pytest

from repro.cluster import (
    DEFAULT_DECODE_SLO_CLASSES,
    ContinuousBatching,
    CrashSpec,
    DecodeClusterSimulator,
    DecodeSimConfig,
    DecodeSLOClass,
    DecodeWorkloadSpec,
    EDFPolicy,
    FaultInjector,
    RecoveryConfig,
    StragglerSpec,
    TransientSpec,
    make_admission,
)
from repro.cluster.events import check
from repro.core.config import HardwareConfig
from repro.core.salo import SALO
from repro.decode import step_window


def _spec(**overrides):
    defaults = dict(sequences=40, rate_rps=2500.0, prompt_min=4, prompt_max=40,
                    mean_new_tokens=12.0, max_new_tokens=48, seed=11)
    defaults.update(overrides)
    return DecodeWorkloadSpec(**defaults)


def _run(spec=None, **cfg):
    sim, events = DecodeClusterSimulator(DecodeSimConfig(**cfg)), []
    sim.listen(events.append)
    report = sim.run(spec if spec is not None else _spec())
    assert not check(events)  # sequence and token conservation among them
    return report


def _digest(obj):
    text = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


_OVERLOAD = dict(sequences=60, rate_rps=20000.0, global_tokens=(20,), seed=3)

# name -> (spec, config kwargs, sha256 of the report).  A change to the
# cluster layer that means to keep decode behaviour must reproduce every
# number of every report; one that means to move them re-pins here.
_PINNED = {
    "smoke": (
        lambda: DecodeWorkloadSpec(sequences=48, rate_rps=2500, window=8,
                                   heads=2, head_dim=8, seed=0),
        lambda: dict(workers=2, max_batch_size=4),
        "3acf6028c1be24a5bb2df6a37e813943c51559d3da52544d4bb3a01c09faca70",
    ),
    "smoke-faults": (
        lambda: DecodeWorkloadSpec(sequences=32, rate_rps=2500, seed=0),
        lambda: dict(workers=2, max_batch_size=8,
                     admission=make_admission("est-wait", slack=1.0),
                     faults=FaultInjector([TransientSpec(prob=0.2, worker=0)], seed=0)),
        "a61846afb91b45afabc286e779eab8655bf77cb1a35d32973853919c2a8cb421",
    ),
    "retry-budget": (
        _spec,
        lambda: dict(workers=2, max_batch_size=4, recovery=RecoveryConfig(max_retries=2),
                     faults=FaultInjector([TransientSpec(prob=0.6, worker=0)], seed=5)),
        "1d91b629fab38eb89a0f8d314e824b3e26d43dabb3249bfffeba6858caef7d29",
    ),
    "est-wait": (
        _spec,
        lambda: dict(workers=1, max_batch_size=2,
                     admission=make_admission("est-wait", slack=1.0)),
        "9bdbbaa659262788a68cb8243b17ced105a6fe95a7832d4d45705066bb660c5b",
    ),
    # Lanes on either side of global token 20 step as two groups (two
    # launches, two batch overheads), as DecodeScheduler runs them.
    "overload-global": (
        lambda: DecodeWorkloadSpec(**_OVERLOAD),
        lambda: dict(workers=2, max_batch_size=4),
        "e6f3d8c9b2a87c13b34df45199aee81e16e890cae481eed604c491dc6e378e63",
    ),
    "overload-depth-cap": (
        lambda: DecodeWorkloadSpec(**_OVERLOAD),
        lambda: dict(workers=2, max_batch_size=2,
                     admission=make_admission("queue-depth", max_depth=3)),
        "a7643447c0e6e1d1490c8106b7df0707499d7b26ef863b2edabaefcecc8e6ae5",
    ),
}


class TestPinnedReports:
    """Every field of the report, on scenarios that shed, reject, retry,
    exhaust retry budgets and activate a global token."""

    @pytest.mark.parametrize("name", sorted(_PINNED))
    def test_report_is_byte_identical(self, name):
        spec, cfg, want = _PINNED[name]
        report = _run(spec(), **cfg())
        assert _digest(dataclasses.asdict(report)) == want

    @pytest.mark.parametrize("miss", [0.1, 1.0])
    @pytest.mark.parametrize("name", ["smoke", "overload-global"])
    def test_lanes_route_alike_at_any_affinity_miss_probability(self, name, miss):
        """A lane queue's route key is ``None``, which no worker's warm
        set holds: every worker scores at the miss probability, so lanes
        route by (depth, worker id) whatever its value.  That is why a
        decode config does not pin ``affinity_miss_prob``."""
        spec, cfg, want = _PINNED[name]
        report = _run(spec(), affinity_miss_prob=miss, **cfg())
        assert _digest(dataclasses.asdict(report)) == want

    @pytest.mark.parametrize("fast, want", [
        (True, "d6f9e28b009e78132f72703f3ece76bc94fb4eb0e0ab59d2a8f6ce535a340e44"),
        (False, "306fa9418fdcb408bac1210ac733ec1d9c79821f5b6143012b1feda05cb443dc"),
    ])
    def test_decode_scaling_rows_are_byte_identical(self, fast, want):
        from repro.experiments import decode_scaling

        assert _digest(decode_scaling.run(fast=fast).rows) == want


class TestConservation:
    def test_sequence_and_token_laws_hold(self):
        report = _run(workers=2, max_batch_size=4)
        assert report.submitted == 40
        assert report.tokens_completed > 0

    def test_laws_hold_under_admission_rejection(self):
        report = _run(workers=1, max_batch_size=2,
                      admission=make_admission("est-wait", slack=1.0))
        assert report.rejected > 0  # overloaded single worker turns some away

    def test_laws_hold_under_transient_faults(self):
        inj = FaultInjector([TransientSpec(prob=0.6, worker=0)], seed=5)
        report = _run(workers=2, max_batch_size=4, faults=inj, recovery=RecoveryConfig(max_retries=2))
        assert report.retries > 0
        assert report.failed > 0  # budget of 2 exhausted under p=0.6
        # a failed sequence splits its tokens: produced stay completed
        assert report.tokens_failed > 0


class TestContinuousBatchingOnClock:
    def test_lanes_bound_concurrency(self):
        narrow = _run(workers=1, max_batch_size=2)
        wide = _run(workers=1, max_batch_size=8)
        assert narrow.mean_concurrency <= 2 + 1e-9
        assert wide.mean_concurrency <= 8 + 1e-9
        assert wide.mean_concurrency > narrow.mean_concurrency

    def test_batch_amortisation_raises_tokens_per_s(self):
        """More lanes amortise the per-step batch overhead: same trace,
        wider worker, strictly higher token throughput."""
        narrow = _run(workers=1, max_batch_size=1)
        wide = _run(workers=1, max_batch_size=8)
        assert wide.tokens_per_s > narrow.tokens_per_s

    def test_cold_compiles_bounded_by_buckets(self):
        """Per-worker warm-plan tracking mirrors the real decode path:
        each (bucket, structure) costs one cold compile per worker."""
        report = _run(workers=2, max_batch_size=4)
        for w in report.workers:
            assert 0 < w["cold_compiles"] <= 4  # buckets 16/32/64/128 at most
            info = w["plan_cache"]
            assert info["misses"] == w["cold_compiles"]
            for counters in info["buckets"].values():
                assert counters["misses"] == 1

    def test_run_is_deterministic(self):
        a = _run(workers=2, max_batch_size=4)
        b = _run(workers=2, max_batch_size=4)
        assert a.tokens_completed == b.tokens_completed
        assert a.steps == b.steps
        assert a.ttft_p99_s == b.ttft_p99_s
        assert a.itl_p99_s == b.itl_p99_s


class TestAdmissionEstimate:
    def test_a_step_is_priced_as_the_policy_runs_it(self):
        """Lanes either side of a global token step as two launches, and
        the admission estimate prices the step that way: each group's
        latency times its lanes, plus one batch overhead per group."""
        spec = _spec(global_tokens=(20,))
        sim = DecodeClusterSimulator(DecodeSimConfig(workers=1, max_batch_size=4))
        worker, policy = sim.pool.workers[0], sim.config.policy
        lanes = spec.draw()[:3]
        for seq, n in zip(lanes, (10, 12, 30)):
            seq.prompt_n = n
        worker.queue.lanes = lanes[:]
        arriving = spec.draw()[3]
        bands = spec.bands()

        def priced(active, lengths):
            bucket = max(step_window(bands, active, n, 16)[1] for n in lengths)
            stats = worker.salo.estimate(policy.pattern(spec.band_triples, active, bucket),
                                         heads=spec.heads, head_dim=spec.head_dim)
            return stats.latency_s * len(lengths) + sim.executor.batch_overhead_s

        step_s = sim._admission_context(worker, arriving, 0.0).estimated_service_s
        assert step_s == priced((), (10, 12)) + priced((20,), (30,))


class TestDecodeMetrics:
    def test_ttft_and_itl_populated(self):
        report = _run(workers=2, max_batch_size=4)
        assert report.ttft_p50_s > 0
        assert report.ttft_p99_s >= report.ttft_p50_s
        assert report.itl_p50_s > 0
        assert report.itl_p99_s >= report.itl_p50_s
        assert report.tokens_per_s > 0
        assert report.makespan_s > 0

    def test_per_class_reports(self):
        report = _run(workers=2, max_batch_size=8)
        names = {c.name for c in report.classes}
        assert names <= {c.name for c in DEFAULT_DECODE_SLO_CLASSES}
        for c in report.classes:
            assert 0.0 <= c.ttft_attainment <= 1.0
            assert 0.0 <= c.itl_attainment <= 1.0

    def test_render_mentions_decode_quantities(self):
        text = _run(workers=2, max_batch_size=4).render()
        for needle in ("tokens/s", "TTFT", "ITL", "concurrency", "cold compiles"):
            assert needle in text

    def test_ttft_doomed_queued_sequences_are_shed(self):
        """A tight TTFT class on an overloaded worker sheds instead of
        serving hopeless first tokens."""
        tight = (DecodeSLOClass("tight", deadline_s=1e-4, share=1.0,
                                itl_deadline_s=None),)
        report = _run(_spec(slo_classes=tight, rate_rps=10000.0),
                      workers=1, max_batch_size=2)
        assert report.shed > 0


class TestSpecValidation:
    def test_trace_is_a_pure_function_of_the_spec(self):
        a, b = _spec().draw(), _spec().draw()
        assert [(s.arrival_s, s.prompt_n, s.target_tokens, s.slo_class)
                for s in a] == [
               (s.arrival_s, s.prompt_n, s.target_tokens, s.slo_class)
                for s in b]
        budgets = [s.target_tokens for s in a]
        assert all(1 <= t <= 48 for t in budgets)
        assert len(set(budgets)) > 1  # actually a distribution

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            _spec(sequences=0)
        with pytest.raises(ValueError):
            _spec(prompt_min=10, prompt_max=4)
        with pytest.raises(ValueError):
            _spec(mean_new_tokens=100.0, max_new_tokens=10)
        with pytest.raises(ValueError):
            DecodeSLOClass("x", deadline_s=1.0, itl_deadline_s=-1.0)
        with pytest.raises(ValueError, match="max_batch_size"):
            DecodeClusterSimulator(DecodeSimConfig(max_batch_size=0))


class TestValidation:
    """Each door names the field it refuses, before anything is submitted."""

    @pytest.mark.parametrize("field, value", [("window", -3), ("heads", 0), ("head_dim", 0)])
    def test_workload_refuses_by_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be >= "):
            _spec(**{field: value})

    def test_window_zero_is_a_self_only_band(self):
        report = _run(_spec(sequences=8, window=0))
        assert report.completed == 8

    @pytest.mark.parametrize("field, cfg", [
        ("policy", dict(policy=EDFPolicy())),
        ("steal", dict(steal=True)),
        ("pad_to_bucket", dict(pad_to_bucket=True)),
        ("drop_expired", dict(drop_expired=True)),
    ])
    def test_config_refuses_what_decode_does_not_model(self, field, cfg):
        with pytest.raises(ValueError, match=f"^{field}: "):
            DecodeSimConfig(**cfg)

    @pytest.mark.parametrize("factor", [0.5, float("nan")])
    def test_itl_shed_factor_below_one_refused(self, factor):
        with pytest.raises(ValueError, match="itl_shed_factor"):
            ContinuousBatching(factor)

    def test_no_itl_shed_factor_never_sheds_a_lagging_lane(self):
        """Slow, failing steps stretch the lanes' gaps past their ITL
        budget: the default factor sheds them, ``None`` sheds none."""
        tight = (DecodeSLOClass("tight", deadline_s=None, share=1.0, itl_deadline_s=1e-3),)
        spec = DecodeWorkloadSpec(sequences=12, slo_classes=tight, seed=0)
        slow = StragglerSpec(worker=0, start_s=0.0, duration_s=10.0, factor=3.0)

        def run(**policy):
            faults = FaultInjector([TransientSpec(prob=0.4), slow], seed=0)
            return _run(spec, workers=1, max_batch_size=4, faults=faults, **policy)

        assert run().shed > 0
        kept = run(policy=ContinuousBatching(None))
        assert kept.shed == 0 and kept.completed + kept.failed == spec.sequences


class TestDoor:
    """Bad input is refused by name before the first event."""

    def _refused(self, spec, **cfg):
        sim = DecodeClusterSimulator(DecodeSimConfig(**cfg))
        with pytest.raises(ValueError, match="global_tokens") as err:
            sim.run(spec)
        assert "bound" in str(err.value)
        # nothing arrived, and no worker's engine was asked anything
        assert sim.metrics.counts["arrive"] == 0
        for w in sim.pool.workers:
            info = w.salo.cache_info()
            assert info["hits"] == info["misses"] == 0

    def test_global_tokens_past_the_hardware_bound(self):
        self._refused(DecodeWorkloadSpec(sequences=8, global_tokens=(0, 20)))

    def test_bound_is_checked_where_each_global_turns_active(self):
        """The bound grows with the bucket: eight globals fit the widest
        step (bucket 256) but not the step they turn active in (bucket 16)."""
        spec = DecodeWorkloadSpec(
            sequences=6, window=64, global_tokens=tuple(range(8)), prompt_min=9,
            prompt_max=12, mean_new_tokens=100.0, max_new_tokens=200,
        )
        self._refused(spec, salo_factory=lambda: SALO(HardwareConfig(pe_rows=4, pe_cols=4)))

    def test_one_global_token_is_served(self):
        report = _run(DecodeWorkloadSpec(sequences=8, global_tokens=(20,)))
        assert report.completed == 8

    def test_crash_spec_refused_by_name(self):
        inj = FaultInjector([CrashSpec(worker=0, at_s=1e-3)])
        with pytest.raises(ValueError, match="CrashSpec"):
            DecodeSimConfig(faults=inj)

    def test_fault_spec_naming_a_missing_worker_refused(self):
        inj = FaultInjector([TransientSpec(prob=0.1, worker=2)])
        with pytest.raises(ValueError, match="worker 2"):
            DecodeClusterSimulator(DecodeSimConfig(workers=2, faults=inj))


class TestStragglers:
    """Steps are launches: a straggler window slows them like any batch."""

    _SLOW = StragglerSpec(worker=0, start_s=0.0, duration_s=10.0, factor=5.0)
    _PATIENT = (DecodeSLOClass("only", deadline_s=None, share=1.0),)

    def test_slowed_worker_paces_its_tokens_slower(self):
        spec = _spec(slo_classes=self._PATIENT)
        base = _run(spec, workers=1, max_batch_size=4)
        slow = _run(spec, workers=1, max_batch_size=4, faults=FaultInjector([self._SLOW]))
        assert slow.itl_p99_s > 4.0 * base.itl_p99_s
        assert slow.completed == base.completed == 40

    def test_only_the_named_worker_is_stretched(self):
        report = _run(workers=2, max_batch_size=4, faults=FaultInjector([self._SLOW]))
        step_s = [w["busy_s"] / w["steps"] for w in report.workers]
        assert step_s[0] > 3.0 * step_s[1]

    def test_a_lane_shed_after_a_retry_leaves_nothing_on_the_books(self):
        """Slow steps that also fail: lanes survive an attempt, then lag
        past their ITL budget and are shed — their attempt count goes too."""
        tight = (DecodeSLOClass("tight", deadline_s=None, share=1.0, itl_deadline_s=1e-3),)
        slow = StragglerSpec(worker=0, start_s=0.0, duration_s=10.0, factor=3.0)
        sim, events = DecodeClusterSimulator(DecodeSimConfig(
            workers=1, max_batch_size=4,
            faults=FaultInjector([TransientSpec(prob=0.4), slow], seed=0),
        )), []
        sim.listen(events.append)
        report = sim.run(DecodeWorkloadSpec(sequences=12, slo_classes=tight, seed=0))
        assert report.retries > 0 and report.shed > 0 and not check(events)
        assert not sim._attempts and not sim._routed
