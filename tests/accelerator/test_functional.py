"""Tests for the vectorised functional engine.

The key invariant: with the exact float datapath, the engine's output
matches the masked-attention oracle to float precision for *any*
schedulable pattern — proving the tile decomposition, global PE handling
and weighted-sum merging introduce no algorithmic error.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerator.functional import EngineError, FunctionalEngine
from repro.baselines.sparse_reference import masked_attention
from repro.core.config import HardwareConfig
from repro.patterns.base import Band
from repro.patterns.hybrid import HybridSparsePattern
from repro.patterns.library import (
    longformer_pattern,
    sparse_transformer_pattern,
    star_transformer_pattern,
    vil_pattern,
)
from repro.scheduler.scheduler import DataScheduler


def _run(pattern, heads=1, head_dim=8, rows=4, cols=4, seed=0, quantize=False):
    config = HardwareConfig(pe_rows=rows, pe_cols=cols)
    if not quantize:
        config = config.exact()
    plan = DataScheduler(config, strict_global_bound=False).schedule(
        pattern, heads=heads, head_dim=head_dim
    )
    rng = np.random.default_rng(seed)
    hidden = heads * head_dim
    q, k, v = (rng.standard_normal((pattern.n, hidden)) for _ in range(3))
    out = FunctionalEngine(plan).run(q, k, v)
    ref = np.concatenate(
        [
            masked_attention(
                q[:, h * head_dim : (h + 1) * head_dim],
                k[:, h * head_dim : (h + 1) * head_dim],
                v[:, h * head_dim : (h + 1) * head_dim],
                pattern,
            )
            for h in range(heads)
        ],
        axis=1,
    )
    return out, ref


class TestExactEquivalence:
    def test_longformer(self):
        out, ref = _run(longformer_pattern(24, 8, (0,)))
        assert np.allclose(out.output, ref, atol=1e-12)

    def test_longformer_multihead(self):
        out, ref = _run(longformer_pattern(24, 8, (0,)), heads=3, head_dim=4)
        assert np.allclose(out.output, ref, atol=1e-12)

    def test_vil(self):
        out, ref = _run(vil_pattern(5, 5, 3, (0,)))
        assert np.allclose(out.output, ref, atol=1e-12)

    def test_star(self):
        out, ref = _run(star_transformer_pattern(20))
        assert np.allclose(out.output, ref, atol=1e-12)

    def test_sparse_transformer(self):
        out, ref = _run(sparse_transformer_pattern(24, block=4))
        assert np.allclose(out.output, ref, atol=1e-12)

    def test_dilated(self):
        pattern = HybridSparsePattern(30, [Band(-6, 6, 3)], (0,))
        out, ref = _run(pattern)
        assert np.allclose(out.output, ref, atol=1e-12)

    def test_multiple_globals(self):
        out, ref = _run(longformer_pattern(32, 8, (0, 15)))
        assert np.allclose(out.output, ref, atol=1e-12)

    def test_no_globals(self):
        out, ref = _run(longformer_pattern(24, 8, ()))
        assert np.allclose(out.output, ref, atol=1e-12)

    @given(
        n=st.integers(6, 32),
        window=st.integers(1, 8),
        dilation=st.integers(1, 3),
        use_global=st.booleans(),
        heads=st.integers(1, 2),
    )
    @settings(max_examples=30, deadline=None)
    def test_equivalence_property(self, n, window, dilation, use_global, heads):
        half = window // 2
        band = Band(-half * dilation, (window - 1 - half) * dilation, dilation)
        pattern = HybridSparsePattern(n, [band], (0,) if use_global else ())
        out, ref = _run(pattern, heads=heads, head_dim=4)
        assert np.allclose(out.output, ref, atol=1e-11)


class TestQuantizedBehaviour:
    def test_bounded_error(self):
        pattern = longformer_pattern(24, 8, (0,))
        out, ref = _run(pattern, quantize=True)
        assert np.max(np.abs(out.output - ref)) < 0.2

    def test_deterministic(self):
        pattern = longformer_pattern(24, 8, (0,))
        a, _ = _run(pattern, quantize=True)
        b, _ = _run(pattern, quantize=True)
        assert np.array_equal(a.output, b.output)

    def test_outputs_are_representable(self):
        """Every output element is a multiple of the output LSB."""
        pattern = longformer_pattern(24, 8, (0,))
        out, _ = _run(pattern, quantize=True)
        scaled = out.output * 256  # Q16.8 LSB = 1/256
        assert np.allclose(scaled, np.rint(scaled), atol=1e-9)


class TestBookkeeping:
    def test_parts_counted(self):
        pattern = longformer_pattern(24, 8, (0,))
        out, _ = _run(pattern)
        assert out.parts.shape == (1, 24)
        assert (out.parts >= 1).all()

    def test_window_split_parts(self):
        """Window 8 on 4 columns: interior queries get 2 window parts +
        1 global-column part."""
        pattern = longformer_pattern(24, 8, (0,))
        out, _ = _run(pattern)
        assert out.parts[0, 12] == 3

    def test_merges_positive_when_split(self):
        out, _ = _run(longformer_pattern(24, 8, (0,)))
        assert out.merges > 0


class TestErrors:
    def test_shape_mismatch(self):
        pattern = longformer_pattern(16, 4, (0,))
        config = HardwareConfig(pe_rows=4, pe_cols=4).exact()
        plan = DataScheduler(config).schedule(pattern, heads=1, head_dim=8)
        engine = FunctionalEngine(plan)
        bad = np.zeros((15, 8))
        with pytest.raises(EngineError):
            engine.run(bad, bad, bad)

    def test_hidden_mismatch(self):
        pattern = longformer_pattern(16, 4, (0,))
        config = HardwareConfig(pe_rows=4, pe_cols=4).exact()
        plan = DataScheduler(config).schedule(pattern, heads=2, head_dim=8)
        engine = FunctionalEngine(plan)
        bad = np.zeros((16, 8))  # needs 16
        with pytest.raises(EngineError):
            engine.run(bad, bad, bad)


class TestTransposedBand:
    """Stage 1 writes its score rectangle transposed (``K @ Q^T``); the
    band read through :func:`_band_t` must be the band :func:`_band`
    reads off the untransposed rectangle."""

    @given(
        rows=st.integers(1, 9),
        width=st.integers(1, 12),
        extra=st.integers(0, 5),
        offset=st.integers(0, 4),
        lead=st.lists(st.integers(1, 3), max_size=3),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_band_of_the_transposed_rectangle(self, rows, width, extra, offset, lead, seed):
        from repro.accelerator.functional import _band, _band_t

        span = offset + rows + width - 1 + extra
        rect_t = np.random.default_rng(seed).standard_normal(tuple(lead) + (span, rows))
        rect_t = rect_t.astype(np.float32)
        got = _band_t(rect_t[..., offset:, :], width)
        want = _band(rect_t.swapaxes(-1, -2)[..., offset:], width)
        assert got.shape == tuple(lead) + (rows, width)
        assert np.array_equal(got, want)
