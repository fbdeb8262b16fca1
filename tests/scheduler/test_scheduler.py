"""Tests for the data scheduler: constraint checks and plan correctness.

The central correctness property: the plan's covered (query, key) pairs —
window passes + global PE row + global PE column — equal the pattern's
mask *exactly*, each pair computed exactly once (no double softmax
counting).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import HardwareConfig
from repro.patterns.base import AttentionPattern, Band
from repro.patterns.hybrid import HybridSparsePattern
from repro.patterns.library import (
    longformer_pattern,
    sparse_transformer_pattern,
    star_transformer_pattern,
    vil_pattern,
)
from repro.patterns.mask_ops import ExplicitMaskPattern
from repro.patterns.global_attn import GlobalAttentionPattern
from repro.scheduler.scheduler import DataScheduler, SchedulerError, check_band_overlap


def _coverage_ok(plan, pattern):
    cov = plan.covered_pairs()
    mask = pattern.mask()
    assert np.array_equal(cov > 0, mask), "covered pairs != pattern mask"
    assert cov.max() <= 1, "some pair computed more than once"


class TestBandOverlap:
    def test_disjoint_ok(self):
        check_band_overlap([Band(-2, 0), Band(1, 3)])

    def test_overlap_rejected(self):
        with pytest.raises(SchedulerError):
            check_band_overlap([Band(-2, 2), Band(2, 4)])

    def test_dilated_interleave_ok(self):
        # {0,2,4} and {1,3,5} don't intersect
        check_band_overlap([Band(0, 4, 2), Band(1, 5, 2)])

    def test_dilated_collision_rejected(self):
        with pytest.raises(SchedulerError):
            check_band_overlap([Band(0, 4, 2), Band(0, 6, 3)])


class TestSchedulerValidation:
    def test_rejects_unstructured_pattern(self):
        scheduler = DataScheduler(HardwareConfig(pe_rows=4, pe_cols=4))
        pattern = ExplicitMaskPattern(np.eye(8, dtype=bool))
        with pytest.raises(SchedulerError):
            scheduler.schedule(pattern)

    def test_rejects_too_many_globals(self):
        config = HardwareConfig(pe_rows=4, pe_cols=4)
        scheduler = DataScheduler(config)
        n, window = 16, 4
        bound = config.max_global_tokens(n, window)
        pattern = longformer_pattern(n, window, tuple(range(bound + 1)))
        with pytest.raises(SchedulerError):
            scheduler.schedule(pattern)

    def test_lenient_mode_allows_extra_globals(self):
        config = HardwareConfig(pe_rows=4, pe_cols=4)
        scheduler = DataScheduler(config, strict_global_bound=False)
        pattern = longformer_pattern(16, 4, tuple(range(5)))
        plan = scheduler.schedule(pattern)
        assert plan.global_tokens == tuple(range(5))

    def test_rejects_globals_without_global_pes(self):
        config = HardwareConfig(pe_rows=4, pe_cols=4, global_rows=0, global_cols=0)
        with pytest.raises(SchedulerError):
            DataScheduler(config).schedule(longformer_pattern(16, 4, (0,)))

    def test_bands_selecting_no_pair_are_named(self):
        """A band wholly outside the sequence is not a missing band."""
        pattern = HybridSparsePattern(64, [Band(100, 110, 1)], ())
        with pytest.raises(SchedulerError, match=r"\[Band\(\[100, 110\]\)\] select no .* n=64$"):
            DataScheduler(HardwareConfig(pe_rows=4, pe_cols=4)).schedule(pattern)

    def test_pattern_without_bands_or_globals(self):
        class Empty(AttentionPattern):
            def row_keys(self, i):
                return np.empty(0, dtype=np.int64)

            def bands(self):
                return []

        with pytest.raises(SchedulerError, match=r"\(no bands, no global tokens\)$"):
            DataScheduler(HardwareConfig(pe_rows=4, pe_cols=4)).schedule(Empty(8))


class TestCoverage:
    def _schedule(self, pattern, rows=4, cols=4, **kw):
        config = HardwareConfig(pe_rows=rows, pe_cols=cols, **kw)
        return DataScheduler(config).schedule(pattern)

    def test_longformer_cover(self):
        pattern = longformer_pattern(24, 8, (0,))
        _coverage_ok(self._schedule(pattern), pattern)

    def test_longformer_multiple_globals(self):
        pattern = longformer_pattern(32, 8, (0, 17))
        _coverage_ok(self._schedule(pattern), pattern)

    def test_vil_cover(self):
        pattern = vil_pattern(6, 6, 3, (0,))
        _coverage_ok(self._schedule(pattern), pattern)

    def test_star_cover(self):
        pattern = star_transformer_pattern(20)
        _coverage_ok(self._schedule(pattern), pattern)

    def test_sparse_transformer_cover(self):
        pattern = sparse_transformer_pattern(24, block=4)
        _coverage_ok(self._schedule(pattern), pattern)

    def test_pure_global_cover(self):
        pattern = GlobalAttentionPattern(12, [0, 5])
        plan = self._schedule(pattern)
        assert plan.global_only_passes > 0
        _coverage_ok(plan, pattern)

    def test_no_packing_cover(self):
        pattern = vil_pattern(6, 6, 3, (0,))
        plan = self._schedule(pattern, pack_bands=False)
        _coverage_ok(plan, pattern)

    def test_dilated_cover(self):
        pattern = HybridSparsePattern(30, [Band(-6, 6, 3)], (0,))
        plan = self._schedule(pattern)
        assert plan.reorder_applied
        _coverage_ok(plan, pattern)

    @given(
        n=st.integers(6, 40),
        window=st.integers(1, 10),
        dilation=st.integers(1, 4),
        use_global=st.booleans(),
        rows=st.sampled_from([2, 4, 8]),
        cols=st.sampled_from([2, 4, 8]),
    )
    @settings(max_examples=60, deadline=None)
    def test_coverage_property(self, n, window, dilation, use_global, rows, cols):
        """Any banded hybrid pattern is scheduled exactly."""
        half = window // 2
        band = Band(-half * dilation, (window - 1 - half) * dilation, dilation)
        tokens = (0,) if use_global else ()
        pattern = HybridSparsePattern(n, [band], tokens)
        config = HardwareConfig(pe_rows=rows, pe_cols=cols)
        scheduler = DataScheduler(config, strict_global_bound=False)
        plan = scheduler.schedule(pattern)
        _coverage_ok(plan, pattern)

    def test_passes_fit_array(self):
        pattern = longformer_pattern(64, 16, (0,))
        plan = self._schedule(pattern, rows=8, cols=8)
        for tp in plan.passes:
            assert tp.rows_used <= 8
            assert tp.cols_used <= 8


class TestPlanShape:
    def test_longformer_pass_count(self):
        """n=4096, w=512 on 32x32: 128 blocks x 16 chunks, minus none."""
        pattern = longformer_pattern(4096, 512, (0,))
        plan = DataScheduler(HardwareConfig()).schedule(pattern, heads=12, head_dim=64)
        # Edge blocks lose fully-clipped chunks; the bulk remains.
        assert 1900 <= len(plan.passes) <= 2048

    def test_vil_packing_pass_count(self):
        """ViL: 15 bands of 15 pack into 8 column groups per block."""
        pattern = vil_pattern(56, 56, 15, (0,))
        plan = DataScheduler(HardwareConfig()).schedule(pattern, heads=3, head_dim=64)
        blocks = -(-3136 // 32)
        assert len(plan.passes) <= blocks * 8
        assert len(plan.passes) >= blocks * 6  # some edge passes drop out

    def test_metadata_flags(self):
        pattern = HybridSparsePattern(32, [Band(-4, 4, 2)])
        plan = DataScheduler(HardwareConfig(pe_rows=4, pe_cols=4)).schedule(pattern)
        assert plan.reorder_applied
        pattern2 = longformer_pattern(32, 4, ())
        plan2 = DataScheduler(HardwareConfig(pe_rows=4, pe_cols=4)).schedule(pattern2)
        assert not plan2.reorder_applied


class TestFirstQuery:
    """A late first query filters the full tiling; it never re-tiles it."""

    @staticmethod
    def _plans(bands, n, first, rows=4, cols=4):
        scheduler = DataScheduler(HardwareConfig(pe_rows=rows, pe_cols=cols))
        full = scheduler.schedule(HybridSparsePattern(n, bands))
        step = scheduler.schedule(HybridSparsePattern(n, bands, first_query=first))
        return full, step

    def test_decode_stream_step_runs_two_of_three_passes(self):
        full, step = self._plans([Band(-63, 0)], 64, 48, rows=32, cols=32)
        assert (len(full.passes), len(step.passes)) == (3, 2)
        assert (full.first_query, step.first_query) == (0, 48)
        assert all(tp.query_ids().min() == 32 for tp in step.passes)

    def test_dilated_band_keeps_the_blocks_of_both_residues(self):
        """Group positions of a dilation-2 band run over ``n / 2``: a
        filter on ``q_positions`` would drop every pass of the band."""
        full, step = self._plans([Band(-8, 0, 2)], 32, 24)
        assert step.reorder_applied
        kept = [tp for tp in full.passes if tp.query_ids().max() >= 24]
        assert step.passes == kept
        assert {tp.query_residue for tp in step.passes} == {0, 1}
        assert all(max(tp.q_positions) < 24 for tp in step.passes)

    @given(
        n=st.integers(8, 64),
        window=st.integers(1, 10),
        dilation=st.integers(1, 3),
        first_frac=st.floats(0.0, 0.99),
        rows=st.sampled_from([2, 4, 8]),
        cols=st.sampled_from([2, 4, 8]),
    )
    @settings(max_examples=60, deadline=None)
    def test_step_plan_is_the_full_plan_minus_passes_below(
        self, n, window, dilation, first_frac, rows, cols
    ):
        first = int(first_frac * n)
        bands = [Band(-(window - 1) * dilation, 0, dilation)]
        full, step = self._plans(bands, n, first, rows, cols)
        assert step.passes == [tp for tp in full.passes if tp.query_ids().max() >= first]
        # rows from the first query on are covered exactly as the pattern says
        cov = step.covered_pairs()
        pattern = HybridSparsePattern(n, bands, first_query=first)
        assert np.array_equal(cov[first:] > 0, pattern.mask()[first:])
        assert cov.max() <= 1
        assert not pattern.mask()[:first].any()
