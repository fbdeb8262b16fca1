"""Tests for the pattern base abstractions (Band, AttentionPattern)."""

import numpy as np
import pytest

from repro.patterns.base import AttentionPattern, Band, PatternError, merge_key_arrays


class TestBand:
    def test_width_simple(self):
        assert Band(-2, 2).width == 5

    def test_width_dilated(self):
        assert Band(-4, 4, dilation=2).width == 5

    def test_offsets(self):
        assert Band(-2, 2).offsets().tolist() == [-2, -1, 0, 1, 2]

    def test_offsets_dilated(self):
        assert Band(-4, 4, dilation=4).offsets().tolist() == [-4, 0, 4]

    def test_rejects_bad_dilation(self):
        with pytest.raises(PatternError):
            Band(0, 4, dilation=0)

    def test_rejects_reversed_bounds(self):
        with pytest.raises(PatternError):
            Band(3, 1)

    def test_rejects_misaligned_span(self):
        with pytest.raises(PatternError):
            Band(0, 5, dilation=2)

    def test_keys_for_clips_low(self):
        assert Band(-3, 0).keys_for(1, 10).tolist() == [0, 1]

    def test_keys_for_clips_high(self):
        assert Band(0, 3).keys_for(8, 10).tolist() == [8, 9]

    def test_keys_for_interior(self):
        assert Band(-1, 1).keys_for(5, 10).tolist() == [4, 5, 6]

    def test_keys_for_dilated(self):
        assert Band(-4, 4, dilation=2).keys_for(4, 10).tolist() == [0, 2, 4, 6, 8]

    def test_keys_for_fully_clipped(self):
        assert Band(5, 8).keys_for(7, 10).size == 0

    def test_shifted(self):
        b = Band(-1, 1).shifted(10)
        assert (b.lo, b.hi) == (9, 11)


class _TwoKeyPattern(AttentionPattern):
    """Minimal concrete pattern: query i attends {i, 0}."""

    def row_keys(self, i):
        self._check_row(i)
        return np.unique(np.array([0, i], dtype=np.int64))


class TestAttentionPattern:
    def test_rejects_nonpositive_length(self):
        with pytest.raises(PatternError):
            _TwoKeyPattern(0)

    def test_mask_shape(self):
        assert _TwoKeyPattern(5).mask().shape == (5, 5)

    def test_mask_contents(self):
        m = _TwoKeyPattern(3).mask()
        expected = np.array(
            [[1, 0, 0], [1, 1, 0], [1, 0, 1]], dtype=bool
        )
        assert np.array_equal(m, expected)

    def test_nnz(self):
        assert _TwoKeyPattern(4).nnz() == 1 + 2 + 2 + 2

    def test_sparsity(self):
        p = _TwoKeyPattern(4)
        assert p.sparsity() == pytest.approx(7 / 16)

    def test_flops_counts_two_matmuls(self):
        p = _TwoKeyPattern(4)
        assert p.flops(head_dim=8, heads=2) == 2 * 7 * 8 * 2

    def test_row_count_out_of_range(self):
        with pytest.raises(PatternError):
            _TwoKeyPattern(4).row_keys(4)

    def test_equality_same_structure(self):
        assert _TwoKeyPattern(4) == _TwoKeyPattern(4)

    def test_inequality_different_length(self):
        assert _TwoKeyPattern(4) != _TwoKeyPattern(5)


class TestMergeKeyArrays:
    def test_union_sorted_unique(self):
        out = merge_key_arrays([np.array([3, 1]), np.array([2, 3])])
        assert out.tolist() == [1, 2, 3]

    def test_empty_input(self):
        assert merge_key_arrays([]).size == 0
