"""Runtime facade + backend threading through serving, cluster and CLI."""

import numpy as np
import pytest

from repro.api import Runtime, RuntimeConfig, engine_factory, CapabilityError
from repro.cli import main as cli_main
from repro.cluster import (
    DecodeSimConfig,
    EnginePool,
    GreedyFIFOPolicy,
    PoissonProcess,
    SimConfig,
    WorkloadSpec,
    open_loop,
    simulate,
)
from repro.core.config import HardwareConfig
from repro.core.salo import SALO
from repro.patterns.library import longformer_pattern
from repro.serving import ServingSession, TraceSpec, replay, synthetic_trace


def _small_workload(num_requests=16, seed=0):
    return WorkloadSpec(
        num_requests=num_requests, n=64, window=8, heads=2, head_dim=4, seed=seed
    )


class TestRuntimeFacade:
    def test_functional_runtime_matches_direct_salo(self):
        pattern = longformer_pattern(64, 8, (0,))
        rng = np.random.default_rng(0)
        q, k, v = (rng.standard_normal((64, 8)) for _ in range(3))
        runtime = Runtime()
        direct = SALO().attend(pattern, q, k, v, heads=2)
        via_api = runtime.attend(pattern, q, k, v, heads=2)
        assert np.array_equal(direct.output, via_api.output)
        assert via_api.stats.latency_s == direct.stats.latency_s
        assert via_api.backend == "functional"
        assert via_api.raw.plan is not None  # engine-native result rides along

    def test_runtime_estimate_is_typed(self):
        est = Runtime().estimate(longformer_pattern(64, 8, (0,)), heads=2, head_dim=4)
        assert est.latency_s > 0 and est.cycles > 0 and est.energy_j > 0

    def test_runtime_shares_plan_cache_across_calls(self):
        pattern = longformer_pattern(64, 8, (0,))
        rng = np.random.default_rng(1)
        q, k, v = (rng.standard_normal((64, 8)) for _ in range(3))
        runtime = Runtime()
        runtime.attend(pattern, q, k, v, heads=2)
        runtime.attend(pattern, q, k, v, heads=2)
        assert runtime.cache_info()["hits"] >= 1

    @pytest.mark.parametrize("backend", ["functional", "functional-legacy"])
    @pytest.mark.parametrize("batch", [None, 2], ids=["single", "batched"])
    def test_non_finite_operand_fails_at_the_door(self, backend, batch):
        pattern = longformer_pattern(64, 8, (0,))
        rng = np.random.default_rng(2)
        shape = (64, 8) if batch is None else (batch, 64, 8)
        q, k, v = (rng.standard_normal(shape) for _ in range(3))
        k[(batch - 1, 5, 3) if batch else (5, 3)] = np.nan
        where = "sequence 1, row 5, column 3" if batch else "row 5, column 3"
        with pytest.raises(ValueError, match=rf"^k holds nan at {where};"):
            Runtime(backend=backend).attend(pattern, q, k, v, heads=2)

    def test_engine_factory_maps_names(self):
        salo = engine_factory("functional-legacy")()
        assert isinstance(salo, SALO) and salo.backend == "functional-legacy"
        oracle = engine_factory("dense")()
        assert oracle.name == "dense"
        with pytest.raises(CapabilityError, match="can_execute"):
            engine_factory("sanger")
        with pytest.raises(KeyError):
            engine_factory("no-such-backend")


class TestServingThreading:
    def _serve(self, **session_kwargs):
        spec = TraceSpec(num_requests=10, n=64, window=8, heads=2, head_dim=4, seed=2)
        requests = synthetic_trace(spec)
        session = ServingSession(max_batch_size=4, **session_kwargs)
        for req in requests:
            session.submit(req.pattern, req.q, req.k, req.v, heads=req.heads,
                           request_id=req.request_id)
        session.drain()
        return session

    def test_legacy_backend_session_is_bit_identical(self):
        default = self._serve()
        legacy = self._serve(salo=SALO(backend="functional-legacy"))
        assert default.results.keys() == legacy.results.keys()
        for rid, res in default.results.items():
            assert np.array_equal(res.output, legacy.results[rid].output)

    def test_serial_fallback_serves_non_batch_engines(self):
        """A systolic-backed session works; batches run as per-request loops."""
        salo = SALO(
            HardwareConfig(pe_rows=4, pe_cols=4),
            strict_global_bound=False,
            backend="systolic",
        )
        pattern = longformer_pattern(16, 4, (0,))
        rng = np.random.default_rng(3)
        session = ServingSession(salo=salo, max_batch_size=4)
        singles = {}
        for i in range(3):
            q, k, v = (rng.standard_normal((16, 8)) for _ in range(3))
            session.submit(pattern, q, k, v, heads=2, request_id=i)
            singles[i] = (q, k, v)
        session.drain()
        assert len(session.results) == 3
        reference = SALO(
            HardwareConfig(pe_rows=4, pe_cols=4),
            strict_global_bound=False,
            backend="systolic",
        )
        for i, (q, k, v) in singles.items():
            direct = reference.attend(pattern, q, k, v, heads=2).output
            assert np.array_equal(session.results[i].output, direct)

    def test_serial_fallback_keeps_per_request_stats(self):
        """A mixed-length batch served by the per-request loop must
        report each request's own plan stats, not the last member's."""
        from repro.patterns.base import Band
        from repro.patterns.hybrid import HybridSparsePattern

        def small_systolic():
            return SALO(
                HardwareConfig(pe_rows=4, pe_cols=4),
                strict_global_bound=False,
                backend="systolic",
            )

        session = ServingSession(
            salo=small_systolic(), max_batch_size=4, pad_to_bucket=True, bucket_floor=8
        )
        rng = np.random.default_rng(7)
        lengths = (24, 20)  # both in the 32 bucket -> one padded group
        for i, n in enumerate(lengths):
            pattern = HybridSparsePattern(n, [Band(-4, 4, 1)], ())
            q, k, v = (rng.standard_normal((n, 8)) for _ in range(3))
            session.submit(pattern, q, k, v, heads=2, request_id=i)
        batch = session.step()
        assert batch is not None and batch.size == 2  # one padded group
        oracle = small_systolic()
        for i, n in enumerate(lengths):
            pattern = HybridSparsePattern(n, [Band(-4, 4, 1)], ())
            expected = oracle.estimate(pattern, heads=2, head_dim=4).latency_s
            assert session.results[i].stats.latency_s == expected

    def test_replay_backend_outputs_match_sequential(self):
        spec = TraceSpec(num_requests=8, n=64, window=8, heads=2, head_dim=4, seed=4)
        report = replay(synthetic_trace(spec), backend="functional-legacy",
                        max_batch_size=4)
        assert report.stats.completed == 8  # replay itself asserts bitwise equality

    def test_replay_on_an_engine_without_schedule(self):
        """The dense oracle has no plan-level ``schedule``: both sides skip
        the warm step, and the baseline is a fresh oracle of the same
        backend, still bit-equal to the batched outputs."""
        assert not hasattr(engine_factory("dense")(), "schedule")
        spec = TraceSpec(num_requests=8, n=64, window=8, heads=2, head_dim=4, seed=4)
        report = replay(synthetic_trace(spec), backend="dense", max_batch_size=4)
        assert report.stats.completed == 8 and report.sequential_s is not None


class TestClusterThreading:
    def test_simconfig_backend_builds_matching_workers(self):
        config = SimConfig(workers=2, backend="functional-legacy")
        source = open_loop(_small_workload(), PoissonProcess(rate_rps=1e5))
        report = simulate(source, config)
        assert report.completed == 16

    def test_backend_and_custom_factory_conflict(self):
        with pytest.raises(ValueError, match="^salo_factory"):
            SimConfig(workers=1, backend="functional-legacy", salo_factory=lambda: SALO())
        with pytest.raises(ValueError, match="^salo_factory"):
            DecodeSimConfig(backend="dense", salo_factory=lambda: SALO())

    def test_engine_pool_backend_kwarg(self):
        from repro.cluster import ClusterSimulator

        pool = EnginePool(workers=2, salo_factory=engine_factory("functional-legacy"))
        assert all(w.salo.backend == "functional-legacy" for w in pool.workers)
        plane = ClusterSimulator(SimConfig(workers=2, backend="functional-legacy"))
        assert all(w.salo.backend == "functional-legacy" for w in plane.pool.workers)

    def test_cost_model_reports_identical_across_functional_backends(self):
        """The cost-model clock derives from plans, not executors, so the
        simulated report is backend-independent across the SALO modes."""
        def run(backend):
            source = open_loop(_small_workload(seed=5), PoissonProcess(rate_rps=2e5))
            return simulate(
                source, SimConfig(workers=2, policy=GreedyFIFOPolicy(), backend=backend)
            )

        fifo = run("functional")
        legacy = run("functional-legacy")
        assert fifo.completed == legacy.completed
        assert fifo.deadline_met_rate == legacy.deadline_met_rate
        assert fifo.goodput_rps == legacy.goodput_rps


class TestUseCompiledShim:
    """The shim is retired; what is left of the surface is ``mode``."""

    def _plan(self):
        salo = SALO(HardwareConfig(pe_rows=4, pe_cols=4), strict_global_bound=False)
        return salo.schedule(longformer_pattern(16, 4, (0,)), heads=1, head_dim=8)

    def test_unknown_mode_rejected(self):
        from repro.accelerator.functional import FunctionalEngine

        with pytest.raises(ValueError, match="unknown engine mode"):
            FunctionalEngine(self._plan(), mode="turbo")


class TestCli:
    def test_engines_list(self, capsys):
        assert cli_main(["engines", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("functional", "functional-legacy", "systolic", "dense",
                     "sparse-reference", "sanger"):
            assert name in out
        assert "batch" in out and "exact" in out  # capability columns

    def test_serve_unknown_backend_exits_2(self, capsys):
        assert cli_main(["serve", "--requests", "2", "--backend", "nope"]) == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_serve_estimate_only_backend_exits_2(self, capsys):
        assert cli_main(["serve", "--requests", "2", "--backend", "sanger"]) == 2
        assert "can_execute" in capsys.readouterr().err

    def test_simulate_rejects_cost_model_less_backend_up_front(self, capsys):
        """sparse-reference executes but cannot estimate: the default
        cost-model clock must refuse it at the door, not crash mid-run."""
        rc = cli_main([
            "simulate", "--workers", "1", "--requests", "4",
            "--backend", "sparse-reference",
        ])
        assert rc == 2
        assert "has no cost model" in capsys.readouterr().err

    def test_run_rejects_cost_model_less_backend_up_front(self, capsys):
        rc = cli_main(["run", "serving_capacity", "--fast",
                       "--backend", "sparse-reference"])
        assert rc == 2
        assert "has no cost model" in capsys.readouterr().err

    def test_simulate_backend_smoke(self, capsys):
        rc = cli_main([
            "simulate", "--workers", "1", "--requests", "8", "--n", "64",
            "--window", "8", "--heads", "2", "--head-dim", "4",
            "--backend", "functional-legacy", "--seed", "0",
        ])
        assert rc == 0
        assert "completed" in capsys.readouterr().out

    def test_run_rejects_backend_for_cost_model_experiments(self, capsys):
        rc = cli_main(["run", "seq_scaling", "--fast", "--backend", "dense"])
        assert rc == 2
        assert "no execution-backend axis" in capsys.readouterr().err
