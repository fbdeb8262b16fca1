"""Tests for the top-level SALO engine."""

import numpy as np
import pytest

from repro.baselines.sparse_reference import masked_attention
from repro.core.config import HardwareConfig
from repro.core.salo import SALO
from repro.patterns.library import longformer_pattern, vil_pattern


class TestAttend:
    def test_matches_oracle_exact_mode(self, tiny_config):
        salo = SALO(tiny_config)
        pattern = longformer_pattern(20, 6, (0,))
        rng = np.random.default_rng(0)
        q, k, v = (rng.standard_normal((20, 8)) for _ in range(3))
        res = salo.attend(pattern, q, k, v, heads=1)
        assert np.allclose(res.output, masked_attention(q, k, v, pattern), atol=1e-12)

    def test_multihead_output_shape(self, tiny_config):
        salo = SALO(tiny_config)
        pattern = longformer_pattern(16, 4, (0,))
        rng = np.random.default_rng(1)
        q, k, v = (rng.standard_normal((16, 12)) for _ in range(3))
        res = salo.attend(pattern, q, k, v, heads=3)
        assert res.output.shape == (16, 12)

    def test_rejects_indivisible_heads(self, tiny_config):
        salo = SALO(tiny_config)
        pattern = longformer_pattern(16, 4, (0,))
        x = np.zeros((16, 10))
        with pytest.raises(ValueError):
            salo.attend(pattern, x, x, x, heads=3)

    def test_buffer_check_can_reject(self):
        config = HardwareConfig(
            pe_rows=4, pe_cols=4, key_buffer_bytes=8, value_buffer_bytes=8
        ).exact()
        salo = SALO(config)
        pattern = longformer_pattern(16, 4, (0,))
        x = np.zeros((16, 8))
        with pytest.raises(ValueError):
            salo.attend(pattern, x, x, x, heads=1)
        # And can be bypassed explicitly.
        salo.attend(pattern, x + 0.1, x + 0.2, x + 0.3, heads=1, check_buffers=False)


class TestNonFiniteOperands:
    """NaN / ±inf fail at the door, naming the operand and the cell —
    not as a cast warning plus an engine error about uncovered queries."""

    PATTERN = longformer_pattern(20, 6, (0,))

    def _operands(self, batch=None):
        rng = np.random.default_rng(2)
        shape = (20, 8) if batch is None else (batch, 20, 8)
        return {name: rng.standard_normal(shape) for name in "qkv"}

    @pytest.mark.parametrize("name", ["q", "k", "v"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_single_sequence(self, name, bad):
        ops = self._operands()
        ops[name][5, 3] = bad
        ops[name][7, 0] = np.nan  # a later bad cell is not the one named
        with pytest.raises(ValueError, match=rf"^{name} holds {bad} at row 5, column 3;"):
            SALO().attend(self.PATTERN, **ops, heads=2)

    @pytest.mark.parametrize("name", ["q", "v"])
    def test_batched(self, name):
        ops = self._operands(batch=3)
        ops[name][1, 19, 6] = -np.inf
        where = "sequence 1, row 19, column 6"
        with pytest.raises(ValueError, match=rf"^{name} holds -inf at {where};"):
            SALO().attend(self.PATTERN, **ops, heads=2)

    def test_mixed_infinities_name_the_first(self):
        ops = self._operands()
        ops["k"][0, 1], ops["k"][0, 2] = np.inf, -np.inf  # their sum is nan
        with pytest.raises(ValueError, match=r"^k holds inf at row 0, column 1;"):
            SALO().attend(self.PATTERN, **ops, heads=2)

    def test_a_finite_operand_whose_sum_overflows_passes(self):
        ops = self._operands()
        ops["q"][:] = 1e307  # saturates the quantiser; its sum is inf
        out = SALO().attend(self.PATTERN, **ops, heads=2).output
        assert np.isfinite(out).all()


class TestScaleDoor:
    """A score ``scale`` that is not a finite positive number fails at
    both doors by name — NaN and ±inf used to reach the engine as cast
    warnings plus an error about queries left without keys, and a zero or
    negative scale ran silently."""

    PATTERN = longformer_pattern(20, 6, (0,))
    BAD = [float("nan"), float("inf"), 0.0, -0.25]

    def _operands(self):
        rng = np.random.default_rng(3)
        return [rng.standard_normal((20, 8)) for _ in range(3)]

    @pytest.mark.parametrize("scale", BAD, ids=["nan", "inf", "zero", "negative"])
    def test_attend(self, scale):
        with pytest.raises(ValueError, match=rf"^scale must be a finite positive number, got {scale}$"):
            SALO().attend(self.PATTERN, *self._operands(), heads=2, scale=scale)

    @pytest.mark.parametrize("scale", BAD, ids=["nan", "inf", "zero", "negative"])
    def test_attend_codes(self, scale):
        windows = [np.zeros((1, 2, 20, 4), dtype=np.float32) for _ in range(3)]
        with pytest.raises(ValueError, match=rf"^scale must be a finite positive number, got {scale}$"):
            SALO().attend_codes(self.PATTERN, *windows, heads=2, scale=scale)

    def test_runtime_attend_reaches_the_door(self):
        from repro import Runtime

        with pytest.raises(ValueError, match="^scale must be a finite positive number"):
            Runtime().attend(self.PATTERN, *self._operands(), heads=2, scale=float("nan"))


class TestCountDoors:
    """``heads`` / ``head_dim`` must be positive integers, refused by name
    before the plan cache: a float ``heads`` used to cache a plan with
    float dims (numpy's shape error on that call *and* on every later
    ``heads=2`` attend of the structure, whose cache key compared equal),
    ``heads=0`` divided by zero and ``head_dim=True`` ran as 1."""

    PATTERN = longformer_pattern(64, 8, (0,))
    BAD = [2.0, 0, -1, True, np.bool_(True), "2", None]
    IDS = ["float", "zero", "negative", "bool", "numpy-bool", "str", "none"]

    def _operands(self):
        rng = np.random.default_rng(4)
        return [rng.standard_normal((64, 16)) for _ in range(3)]

    def _refused(self, salo, name, call):
        before = salo.cache_info()
        with pytest.raises(ValueError, match=rf"^{name} must be a positive integer, got "):
            call()
        assert salo.cache_info() == before

    @pytest.mark.parametrize("bad", BAD, ids=IDS)
    def test_attend(self, bad):
        salo = SALO()
        ops = self._operands()
        self._refused(salo, "heads", lambda: salo.attend(self.PATTERN, *ops, heads=bad))
        assert salo.attend(self.PATTERN, *self._operands(), heads=2).output.shape == (64, 16)

    @pytest.mark.parametrize("bad", BAD, ids=IDS)
    def test_attend_codes(self, bad):
        salo = SALO()
        windows = [np.zeros((1, 2, 64, 8), dtype=np.float32) for _ in range(3)]
        self._refused(salo, "heads", lambda: salo.attend_codes(self.PATTERN, *windows, heads=bad))
        assert salo.attend_codes(self.PATTERN, *windows, heads=2).output.shape == (1, 64, 16)

    @pytest.mark.parametrize("name", ["heads", "head_dim"])
    @pytest.mark.parametrize("bad", BAD, ids=IDS)
    @pytest.mark.parametrize("door", ["schedule", "estimate"])
    def test_schedule_and_estimate(self, door, bad, name):
        salo = SALO()
        dims = {"heads": 2, "head_dim": 8, name: bad}
        self._refused(salo, name, lambda: getattr(salo, door)(self.PATTERN, **dims))
        assert getattr(salo, door)(self.PATTERN, heads=2, head_dim=8) is not None

    def test_runtime_reaches_the_door_and_stays_usable(self):
        from repro import Runtime

        rt = Runtime()
        with pytest.raises(ValueError, match=r"^heads must be a positive integer, got 2\.0$"):
            rt.attend(self.PATTERN, *self._operands(), heads=2.0)
        with pytest.raises(ValueError, match=r"^head_dim must be a positive integer, got True$"):
            rt.estimate(self.PATTERN, heads=2, head_dim=True)
        assert rt.cache_info()["misses"] == 0
        assert rt.attend(self.PATTERN, *self._operands(), heads=2).output.shape == (64, 16)

    def test_numpy_integers_are_normalised(self):
        salo = SALO()
        plan = salo.schedule(self.PATTERN, heads=np.int64(2), head_dim=np.int32(8))
        assert type(plan.heads) is int and type(plan.head_dim) is int
        assert salo.schedule(self.PATTERN, heads=2, head_dim=8) is plan

    def test_execution_plan_checks_the_type(self):
        from repro.scheduler.plan import ExecutionPlan

        for name in ("heads", "head_dim"):
            dims = {"heads": 2, "head_dim": 8, name: 2.0}
            with pytest.raises(ValueError, match=rf"^{name} must be an integer, got 2\.0$"):
                ExecutionPlan(n=8, config=HardwareConfig(), passes=[], global_tokens=(), **dims)


class TestEstimate:
    def test_estimate_without_data(self):
        salo = SALO()
        stats = salo.estimate(longformer_pattern(512, 64, (0,)), heads=2, head_dim=64)
        assert stats.latency_s > 0
        assert stats.energy_j > 0
        assert 0 < stats.utilization <= 1

    def test_estimate_matches_attend_stats(self, tiny_config):
        salo = SALO(tiny_config)
        pattern = longformer_pattern(16, 4, (0,))
        rng = np.random.default_rng(2)
        q, k, v = (rng.standard_normal((16, 8)) for _ in range(3))
        res = salo.attend(pattern, q, k, v, heads=1)
        est = salo.estimate(pattern, heads=1, head_dim=8)
        assert res.stats.cycles == est.cycles

    def test_summary_renders(self):
        stats = SALO().estimate(vil_pattern(8, 8, 3, (0,)), heads=1, head_dim=64)
        text = stats.summary()
        assert "latency" in text and "utilization" in text.lower()


class TestDefaults:
    def test_default_config_is_table1(self):
        assert SALO().config.pe_rows == 32

    def test_scheduler_shared_config(self):
        salo = SALO()
        assert salo.scheduler.config is salo.config
