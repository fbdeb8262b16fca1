"""Tests for the trainable sparse attention layer."""

import numpy as np
import pytest

from repro.baselines.sparse_reference import masked_attention
from repro.core.config import NumericsConfig
from repro.core.salo import SALO
from repro.nn.attention import AttentionQuantizer, SparseMultiHeadAttention
from repro.nn.autograd import Tensor, no_grad
from repro.patterns.library import longformer_pattern, vil_pattern
from repro.patterns.mask_ops import ExplicitMaskPattern
from repro.patterns.window import SlidingWindowPattern


def _layer(n=12, dim=8, heads=2, pattern=None, quantizer=None, seed=0):
    pattern = pattern or longformer_pattern(n, 4, (0,))
    rng = np.random.default_rng(seed)
    return SparseMultiHeadAttention(dim, heads, pattern, rng, quantizer=quantizer)


class TestForward:
    def test_output_shape(self):
        layer = _layer()
        out = layer(Tensor(np.random.default_rng(1).standard_normal((3, 12, 8))))
        assert out.shape == (3, 12, 8)

    def test_rejects_wrong_length(self):
        layer = _layer(n=12)
        with pytest.raises(ValueError):
            layer(Tensor(np.zeros((1, 10, 8))))

    def test_unbatched_input_routes_through_batched_path(self):
        """(n, dim) input == batch-of-one, returned unbatched."""
        layer = _layer()
        x = np.random.default_rng(7).standard_normal((12, 8))
        out2d = layer(Tensor(x))
        out3d = layer(Tensor(x[None]))
        assert out2d.shape == (12, 8)
        assert np.array_equal(out2d.numpy(), out3d.numpy()[0])

    def test_unbatched_gradients_flow(self):
        layer = _layer()
        x = Tensor(np.random.default_rng(8).standard_normal((12, 8)), requires_grad=True)
        layer(x).sum().backward()
        assert x.grad is not None and x.grad.shape == (12, 8)

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ValueError):
            _layer(dim=10, heads=3)

    def test_mask_respected(self):
        """With identity projections, the layer must equal the masked
        attention oracle."""
        n, dim = 10, 4
        pattern = SlidingWindowPattern(n, -1, 1)
        layer = SparseMultiHeadAttention(dim, 1, pattern, np.random.default_rng(0))
        eye = np.eye(dim)
        for lin in (layer.wq, layer.wk, layer.wv, layer.wo):
            lin.weight.data[...] = eye
            lin.bias.data[...] = 0.0
        x = np.random.default_rng(2).standard_normal((1, n, dim))
        out = layer(Tensor(x)).data[0]
        ref = masked_attention(x[0], x[0], x[0], pattern)
        assert np.allclose(out, ref, atol=1e-10)

    def test_grad_flows_to_all_params(self):
        layer = _layer()
        x = Tensor(np.random.default_rng(3).standard_normal((2, 12, 8)), requires_grad=True)
        layer(x).sum().backward()
        for p in layer.parameters():
            assert p.grad is not None


class TestQuantizedForward:
    def test_close_to_float(self):
        layer = _layer(seed=4)
        x = Tensor(np.random.default_rng(5).standard_normal((1, 12, 8)))
        float_out = layer(x).data
        layer.set_quantizer(AttentionQuantizer())
        quant_out = layer(x).data
        assert np.max(np.abs(float_out - quant_out)) < 0.5
        assert not np.array_equal(float_out, quant_out)

    def test_grad_flows_through_quantized_path(self):
        layer = _layer(quantizer=AttentionQuantizer())
        x = Tensor(np.random.default_rng(6).standard_normal((1, 12, 8)), requires_grad=True)
        layer(x).sum().backward()
        assert x.grad is not None
        assert np.abs(x.grad).max() > 0

    def test_quantizer_swap(self):
        layer = _layer()
        assert layer.quantizer is None
        layer.set_quantizer(AttentionQuantizer())
        assert layer.quantizer is not None
        layer.set_quantizer(None)
        assert layer.quantizer is None


def _engine_layer(pattern, quantizer=None, dim=16, heads=2, seed=0):
    """Layer whose output is its attention: identity ``wo``, zero bias."""
    layer = SparseMultiHeadAttention(
        dim, heads, pattern, np.random.default_rng(seed), quantizer=quantizer
    )
    layer.wo.weight.data[...] = np.eye(dim)
    layer.wo.bias.data[...] = 0.0
    return layer


_ENGINE_PATTERNS = {
    "longformer": longformer_pattern(64, 16, (0,)),
    "vil": vil_pattern(8, 8, 3, (0,)),
}


class TestEngineForward:
    """The quantised forward value *is* ``SALO.attend`` on the projections."""

    @pytest.mark.parametrize("name", sorted(_ENGINE_PATTERNS))
    @pytest.mark.parametrize("shape", [(3, 64, 16), (64, 16)], ids=["batched", "unbatched"])
    def test_eval_forward_is_engine(self, name, shape):
        pattern = _ENGINE_PATTERNS[name]
        layer = _engine_layer(pattern, AttentionQuantizer()).eval()
        x = Tensor(np.random.default_rng(9).standard_normal(shape))
        with no_grad():
            out = layer(x).data
            q, k, v = (lin(x).data for lin in (layer.wq, layer.wk, layer.wv))
        ref = SALO().attend(pattern, q, k, v, heads=layer.heads).output
        assert np.array_equal(out, ref)

    def test_ste_value_is_engine_gradient_is_float(self):
        """With grad on, the value is the engine's and every gradient the
        value does not feed (all but ``wo.weight``'s) is the float layer's."""
        pattern = _ENGINE_PATTERNS["longformer"]
        rng = np.random.default_rng(10)
        x_data = rng.standard_normal((2, 64, 16))
        upstream = rng.standard_normal((2, 64, 16))

        def run(quantizer):
            layer = _engine_layer(pattern, quantizer)
            x = Tensor(x_data, requires_grad=True)
            out = layer(x)
            (out * Tensor(upstream)).sum().backward()
            grads = dict(layer.named_parameters())
            del grads["wo.weight"]
            return layer, out.data, x.grad, {k: p.grad for k, p in grads.items()}

        layer, out, x_grad, grads = run(AttentionQuantizer())
        _, float_out, float_x_grad, float_grads = run(None)
        q, k, v = (lin(Tensor(x_data)).data for lin in (layer.wq, layer.wk, layer.wv))
        assert np.array_equal(out, SALO().attend(pattern, q, k, v, heads=2).output)
        assert not np.array_equal(out, float_out)
        assert np.array_equal(x_grad, float_x_grad)
        for name, grad in grads.items():
            assert np.array_equal(grad, float_grads[name]), name

    def test_exact_numerics_match_float_layer(self):
        pattern = _ENGINE_PATTERNS["longformer"]
        x = Tensor(np.random.default_rng(11).standard_normal((2, 64, 16)))
        float_out = _engine_layer(pattern)(x).data
        exact = _engine_layer(pattern, AttentionQuantizer(NumericsConfig.exact()))
        assert np.allclose(exact(x).data, float_out, atol=1e-10)


class TestRefusedAtTheDoor:
    """A pattern the engine cannot schedule fails when the quantizer is set."""

    def test_mask_only_pattern(self):
        pattern = ExplicitMaskPattern(np.tril(np.ones((12, 12), dtype=bool)))
        with pytest.raises(ValueError, match="ExplicitMaskPattern.*band structure"):
            _layer(pattern=pattern, quantizer=AttentionQuantizer())
        layer = _layer(pattern=pattern)
        with pytest.raises(ValueError, match="ExplicitMaskPattern"):
            layer.set_quantizer(AttentionQuantizer())
        assert layer.quantizer is None

    def test_globals_past_the_bound(self):
        pattern = longformer_pattern(64, 8, (0, 1))  # bound is 1 on 32x32
        layer = _layer(n=64, pattern=pattern)
        with pytest.raises(ValueError, match="HybridSparsePattern.*exceed the supported bound"):
            layer.set_quantizer(AttentionQuantizer())

    def test_float_mode_accepts_mask_only_pattern(self):
        mask = np.tril(np.ones((12, 12), dtype=bool))
        layer = _layer(pattern=ExplicitMaskPattern(mask))
        x = np.random.default_rng(12).standard_normal((12, 8))
        out = layer(Tensor(x[None])).data[0]
        assert out.shape == (12, 8) and np.all(np.isfinite(out))
