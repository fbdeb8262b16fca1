"""Cross-cutting integration tests: the whole stack working together.

These tests exercise paths that span multiple subsystems — pattern →
scheduler → engines → statistics — including determinism guarantees,
failure injection, and consistency between the estimation path
(``SALO.estimate``) and the execution path (``SALO.attend``).
"""

import numpy as np
import pytest

from repro import (
    SALO,
    Band,
    HardwareConfig,
    HybridSparsePattern,
    NumericsConfig,
    SchedulerError,
    longformer_pattern,
    star_transformer_pattern,
    vil_pattern,
)
from repro.accelerator.functional import FunctionalEngine
from repro.accelerator.systolic import SystolicSimulator
from repro.baselines import masked_attention
from repro.workloads import AttentionWorkload, random_qkv


class TestDeterminism:
    def test_attend_is_reproducible(self):
        salo = SALO(HardwareConfig(pe_rows=4, pe_cols=4))
        pattern = longformer_pattern(20, 6, (0,))
        rng = np.random.default_rng(0)
        q, k, v = (rng.standard_normal((20, 8)) for _ in range(3))
        a = salo.attend(pattern, q, k, v, heads=1)
        b = salo.attend(pattern, q, k, v, heads=1)
        assert np.array_equal(a.output, b.output)
        assert a.stats.cycles == b.stats.cycles

    def test_plan_is_stable_across_instances(self):
        p1 = SALO().schedule(longformer_pattern(128, 16, (0,)), heads=2, head_dim=32)
        p2 = SALO().schedule(longformer_pattern(128, 16, (0,)), heads=2, head_dim=32)
        assert [tp.q_positions for tp in p1.passes] == [tp.q_positions for tp in p2.passes]
        assert [tp.segments for tp in p1.passes] == [tp.segments for tp in p2.passes]


class TestEngineAgreement:
    @pytest.mark.parametrize(
        "pattern_factory",
        [
            lambda: longformer_pattern(18, 6, (0,)),
            lambda: vil_pattern(4, 4, 3, (0,)),
            lambda: star_transformer_pattern(18),
            lambda: HybridSparsePattern(20, [Band(-4, 4, 2)], (0, 9)),
        ],
    )
    def test_three_way_agreement(self, pattern_factory):
        """functional == micro-sim (bit-exact) ~= oracle (quantisation)."""
        pattern = pattern_factory()
        config = HardwareConfig(pe_rows=4, pe_cols=4)
        plan = SALO(config).schedule(pattern, heads=1, head_dim=8)
        rng = np.random.default_rng(1)
        q, k, v = (rng.standard_normal((pattern.n, 8)) for _ in range(3))
        func = FunctionalEngine(plan).run(q, k, v)
        sim = SystolicSimulator(plan).run(q, k, v)
        ref = masked_attention(q, k, v, pattern)
        assert np.array_equal(func.output, sim.output)
        assert np.max(np.abs(func.output - ref)) < 0.3


class TestEstimateExecuteConsistency:
    def test_same_stats(self):
        w = AttentionWorkload("ViL-8x8", 64, 32, 2, 9, 1, "vil", grid=(8, 8))
        salo = SALO(HardwareConfig(pe_rows=8, pe_cols=8))
        q, k, v = random_qkv(w.n, w.hidden, seed=4)
        res = salo.attend(w.pattern(), q, k, v, heads=w.heads)
        est = salo.estimate(w.pattern(), heads=w.heads, head_dim=w.head_dim)
        assert res.stats.cycles == est.cycles
        assert res.stats.energy_j == pytest.approx(est.energy_j)
        assert res.stats.traffic.dram_total == est.traffic.dram_total


class TestFailureInjection:
    def test_nan_inputs_rejected_with_clear_error(self):
        """A NaN query row is refused at the door, by operand and cell,
        before any engine starves the query of softmax weight."""
        salo = SALO(HardwareConfig(pe_rows=4, pe_cols=4).exact())
        pattern = longformer_pattern(12, 4, ())
        q = np.zeros((12, 8))
        q[3, :] = np.nan
        k, v = np.ones((12, 8)), np.ones((12, 8))
        with pytest.raises(ValueError, match="q holds nan at row 3, column 0"):
            salo.attend(pattern, q, k, v, heads=1)

    def test_extreme_activations_saturate_gracefully(self):
        """1e6-scale activations saturate the Q8.4 quantiser instead of
        overflowing (outputs stay within the value range plus rounding)."""
        salo = SALO(HardwareConfig(pe_rows=4, pe_cols=4))
        pattern = longformer_pattern(12, 4, (0,))
        rng = np.random.default_rng(2)
        q, k, v = (rng.standard_normal((12, 8)) * 1e6 for _ in range(3))
        res = salo.attend(pattern, q, k, v, heads=1)
        assert np.isfinite(res.output).all()
        assert np.abs(res.output).max() <= 8.5

    def test_pattern_with_empty_row_rejected(self):
        """A band fully outside the sequence leaves rows keyless."""
        pattern = HybridSparsePattern(8, [Band(10, 12)])
        salo = SALO(HardwareConfig(pe_rows=4, pe_cols=4).exact())
        x = np.random.default_rng(3).standard_normal((8, 8))
        with pytest.raises(Exception):
            salo.attend(pattern, x, x, x, heads=1)

    def test_unschedulable_pattern_raises_scheduler_error(self):
        from repro.patterns import ExplicitMaskPattern

        salo = SALO()
        with pytest.raises(SchedulerError):
            salo.schedule(ExplicitMaskPattern(np.eye(8, dtype=bool)))


class TestNumericsSweep:
    @pytest.mark.parametrize("frac_bits,bound", [(2, 1.2), (4, 0.35), (6, 0.2)])
    def test_error_decreases_with_precision(self, frac_bits, bound):
        numerics = NumericsConfig(input_frac_bits=frac_bits)
        config = HardwareConfig(pe_rows=4, pe_cols=4).with_numerics(numerics)
        salo = SALO(config)
        pattern = longformer_pattern(16, 4, (0,))
        rng = np.random.default_rng(5)
        q, k, v = (rng.standard_normal((16, 8)) for _ in range(3))
        res = salo.attend(pattern, q, k, v, heads=1)
        ref = masked_attention(q, k, v, pattern)
        assert np.max(np.abs(res.output - ref)) < bound


class TestScaleArgument:
    def test_custom_scale_respected(self):
        salo = SALO(HardwareConfig(pe_rows=4, pe_cols=4).exact())
        pattern = longformer_pattern(12, 4, ())
        rng = np.random.default_rng(6)
        q, k, v = (rng.standard_normal((12, 8)) for _ in range(3))
        res = salo.attend(pattern, q, k, v, heads=1)
        plan = salo.schedule(pattern, heads=1, head_dim=8)
        res2 = FunctionalEngine(plan).run(q, k, v, scale=1.0)
        ref2 = masked_attention(q, k, v, pattern, scale=1.0)
        assert np.allclose(res2.output, ref2, atol=1e-12)
        assert not np.allclose(res.output, res2.output)
