"""Tests for the sparse attention references and online-softmax merging."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.dense_attention import dense_attention
from repro.baselines.sparse_reference import (
    masked_attention,
    online_softmax_merge,
    sparse_attention_rowwise,
    split_window_attention,
)
from repro.decode.session import decode_pattern
from repro.patterns.base import Band
from repro.patterns.hybrid import HybridSparsePattern
from repro.patterns.library import longformer_pattern
from repro.patterns.window import SlidingWindowPattern


def _data(n=16, d=8, seed=0):
    rng = np.random.default_rng(seed)
    return tuple(rng.standard_normal((n, d)) for _ in range(3))


class TestMaskedAttention:
    def test_full_mask_equals_dense(self):
        q, k, v = _data()
        full = SlidingWindowPattern(16, -15, 15)
        assert np.allclose(masked_attention(q, k, v, full), dense_attention(q, k, v))

    def test_identity_mask_returns_own_value(self):
        q, k, v = _data()
        self_only = SlidingWindowPattern(16, 0, 0)
        assert np.allclose(masked_attention(q, k, v, self_only), v)

    def test_rejects_length_mismatch(self):
        q, k, v = _data()
        with pytest.raises(ValueError):
            masked_attention(q, k, v, SlidingWindowPattern(8, 0, 0))


class TestRowwise:
    def test_matches_masked(self):
        q, k, v = _data()
        pattern = longformer_pattern(16, 4, (0,))
        assert np.allclose(
            sparse_attention_rowwise(q, k, v, pattern),
            masked_attention(q, k, v, pattern),
        )

    @given(window=st.integers(1, 8), seed=st.integers(0, 20))
    @settings(max_examples=25, deadline=None)
    def test_matches_masked_property(self, window, seed):
        q, k, v = _data(seed=seed)
        pattern = longformer_pattern(16, window, ())
        assert np.allclose(
            sparse_attention_rowwise(q, k, v, pattern),
            masked_attention(q, k, v, pattern),
            atol=1e-12,
        )


class TestOnlineSoftmaxMerge:
    def test_merge_weights(self):
        out, w = online_softmax_merge(
            np.ones((2, 3)), np.array([1.0, 1.0]), np.zeros((2, 3)), np.array([3.0, 1.0])
        )
        assert np.allclose(out[0], 0.25)
        assert np.allclose(out[1], 0.5)
        assert w.tolist() == [4.0, 2.0]

    def test_rejects_zero_weights(self):
        with pytest.raises(ValueError):
            online_softmax_merge(np.ones((1, 2)), np.array([0.0]), np.ones((1, 2)), np.array([0.0]))


class TestSplitWindow:
    """Eq. 2 / Appendix A: split computation is exact."""

    def test_matches_unsplit(self):
        q, k, v = _data()
        pattern = longformer_pattern(16, 8, (0,))
        for split in (1, 2, 3, 5, 100):
            out = split_window_attention(q, k, v, pattern, split=split)
            assert np.allclose(out, sparse_attention_rowwise(q, k, v, pattern), atol=1e-10)

    @given(split=st.integers(1, 9), seed=st.integers(0, 10))
    @settings(max_examples=30, deadline=None)
    def test_split_invariance_property(self, split, seed):
        q, k, v = _data(seed=seed)
        pattern = longformer_pattern(16, 6, (0,))
        out = split_window_attention(q, k, v, pattern, split=split)
        ref = sparse_attention_rowwise(q, k, v, pattern)
        assert np.allclose(out, ref, atol=1e-10)

    def test_rejects_bad_split(self):
        q, k, v = _data()
        with pytest.raises(ValueError):
            split_window_attention(q, k, v, longformer_pattern(16, 4, ()), split=0)

    def test_late_start_rows_read_zero(self):
        """Rows below ``first_query`` hold no query: 0.0, as in the rowwise oracle."""
        q, k, v = _data(n=64)
        pattern = decode_pattern((Band(-63, 0),), (), 64, 64, first_query=32)
        ref = sparse_attention_rowwise(q, k, v, pattern)
        for split in (1, 7, 64):
            out = split_window_attention(q, k, v, pattern, split=split)
            assert np.allclose(out, ref, atol=1e-10)
            assert not out[:32].any()

    def test_keyless_row_at_or_above_first_query_raises(self):
        q, k, v = _data(n=8)
        pattern = HybridSparsePattern(8, [Band(5, 5)], (), first_query=2)  # rows 3.. keyless
        with pytest.raises(ValueError, match="query 3 attends to no keys"):
            split_window_attention(q, k, v, pattern, split=2)
