"""Tests for the Table 2 workload definitions."""

import pytest

from repro.workloads.configs import (
    LONGFORMER_BASE_4096,
    PAPER_WORKLOADS,
    VIL_STAGE1,
    VIL_STAGE2,
    AttentionWorkload,
    bert_base_workload,
    longformer_workload,
)


class TestTable2Parameters:
    def test_longformer_row(self):
        w = LONGFORMER_BASE_4096
        assert (w.n, w.window, w.hidden, w.num_global) == (4096, 512, 768, 1)
        assert w.head_dim == 64

    def test_vil_stage1_row(self):
        w = VIL_STAGE1
        assert (w.n, w.window, w.hidden) == (3136, 225, 192)
        assert w.grid == (56, 56)

    def test_vil_stage2_row(self):
        w = VIL_STAGE2
        assert (w.n, w.window, w.hidden) == (784, 225, 384)

    def test_nominal_sparsity_column(self):
        assert LONGFORMER_BASE_4096.window / LONGFORMER_BASE_4096.n == pytest.approx(0.125)
        assert VIL_STAGE1.window / VIL_STAGE1.n == pytest.approx(0.072, abs=0.001)
        assert VIL_STAGE2.window / VIL_STAGE2.n == pytest.approx(0.287, abs=0.001)

    def test_paper_workloads_registry(self):
        assert set(PAPER_WORKLOADS) == {"Longformer", "ViL-stage1", "ViL-stage2"}


class TestPatternFactories:
    def test_longformer_pattern_built(self):
        p = LONGFORMER_BASE_4096.pattern()
        assert p.n == 4096
        assert p.global_tokens() == (0,)

    def test_vil_pattern_built(self):
        p = VIL_STAGE1.pattern()
        assert len(p.bands()) == 15

    def test_dense_pattern_is_full(self):
        w = bert_base_workload(32)
        assert w.pattern().sparsity() == 1.0

    def test_dense_flops(self):
        w = bert_base_workload(128)
        assert w.dense_flops() == 4 * 128 * 128 * 768


class TestCustomFactories:
    def test_longformer_workload(self):
        w = longformer_workload(1024, window=128)
        assert w.n == 1024 and w.window == 128

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ValueError):
            AttentionWorkload("bad", 16, 10, 3, 4, 0, "longformer")

    def test_unknown_kind_rejected(self):
        import dataclasses

        w = dataclasses.replace(LONGFORMER_BASE_4096, kind="magic")
        with pytest.raises(ValueError):
            w.pattern()
