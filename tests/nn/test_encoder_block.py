"""Tests for encoder blocks whose attention runs on the SALO engine
(Figure 3 integration): ``nn.EncoderBlock`` in eval mode under an
``AttentionQuantizer``."""

import numpy as np
import pytest

from repro.baselines.sparse_reference import masked_attention
from repro.core.config import NumericsConfig
from repro.nn.attention import AttentionQuantizer
from repro.nn.autograd import Tensor, no_grad
from repro.nn.model import EncoderBlock
from repro.patterns.library import longformer_pattern

N, DIM, HEADS = 64, 16, 2
PATTERN = longformer_pattern(N, 16, (0,))


def _blocks(count=1, quantizer=None, dim=DIM, heads=HEADS, seed=0):
    rng = np.random.default_rng(seed)
    blocks = [EncoderBlock(dim, heads, 4 * dim, PATTERN, rng).eval() for _ in range(count)]
    for block in blocks:
        block.attn.set_quantizer(quantizer if quantizer is not None else AttentionQuantizer())
    return blocks


def _run(blocks, x):
    out = Tensor(x)
    with no_grad():
        for block in blocks:
            out = block(out)
    return out.data


def _numpy_block(block, x):
    """Pure numpy forward of ``block`` with float attention."""

    def ln(mod, h):
        mu = h.mean(axis=-1, keepdims=True)
        var = ((h - mu) ** 2).mean(axis=-1, keepdims=True)
        return (h - mu) / np.sqrt(var + mod.eps) * mod.gamma.data + mod.beta.data

    def lin(mod, h):
        return h @ mod.weight.data + mod.bias.data

    def gelu(h):
        return 0.5 * h * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (h + 0.044715 * h**3)))

    attn = block.attn
    h = ln(block.ln1, x)
    q, k, v = lin(attn.wq, h), lin(attn.wk, h), lin(attn.wv, h)
    d = attn.head_dim
    ctx = np.concatenate(
        [
            masked_attention(q[:, i*d:(i+1)*d], k[:, i*d:(i+1)*d], v[:, i*d:(i+1)*d], PATTERN)
            for i in range(attn.heads)
        ],
        axis=1,
    )
    x = x + lin(attn.wo, ctx)
    return x + lin(block.ffn.fc2, gelu(lin(block.ffn.fc1, ln(block.ln2, x))))


class TestBlockForward:
    def test_output_shape(self):
        x = np.random.default_rng(0).standard_normal((N, DIM))
        assert _run(_blocks(), x).shape == (N, DIM)

    def test_matches_pure_software_block(self):
        """With exact numerics, the engine-backed block equals a pure numpy
        implementation of the same block."""
        (block,) = _blocks(quantizer=AttentionQuantizer(NumericsConfig.exact()))
        x = np.random.default_rng(1).standard_normal((N, DIM))
        assert np.allclose(_run([block], x), _numpy_block(block, x), atol=1e-10)

    def test_rejects_wrong_dim(self):
        (block,) = _blocks()
        with pytest.raises(ValueError, match="dim=16"):
            block.attn(Tensor(np.zeros((N, 8))))

    def test_rejects_wrong_length(self):
        (block,) = _blocks()
        with pytest.raises(ValueError, match=f"n={N}"):
            _run([block], np.zeros((N // 2, DIM)))

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ValueError):
            _blocks(dim=15, heads=2)

    def test_quantized_close_to_exact(self):
        x = np.random.default_rng(2).standard_normal((N, DIM))
        exact = _run(_blocks(quantizer=AttentionQuantizer(NumericsConfig.exact()), seed=5), x)
        quant = _run(_blocks(seed=5), x)
        assert np.max(np.abs(exact - quant)) < 1.0
        assert not np.array_equal(exact, quant)


class TestBatchedForward:
    def test_batched_block_equals_looped(self):
        """(b, n, dim) forward == per-sequence forwards."""
        blocks = _blocks()
        x = np.random.default_rng(4).standard_normal((3, N, DIM))
        out = _run(blocks, x)
        assert out.shape == (3, N, DIM)
        for b in range(3):
            assert np.allclose(out[b], _run(blocks, x[b]), rtol=0, atol=1e-12)

    def test_batched_stack(self):
        blocks = _blocks(count=2)
        x = np.random.default_rng(6).standard_normal((3, N, DIM))
        out = _run(blocks, x)
        assert out.shape == (3, N, DIM)
        for b in range(3):
            assert np.allclose(out[b], _run(blocks, x[b]), rtol=0, atol=1e-12)

    def test_rejects_bad_rank(self):
        (block,) = _blocks()
        with pytest.raises(ValueError, match="expected"):
            _run([block], np.zeros((2, 2, N, DIM)))


class TestEncoderStack:
    def test_stack_runs(self):
        x = np.random.default_rng(3).standard_normal((N, DIM))
        out = _run(_blocks(count=3), x)
        assert out.shape == (N, DIM) and np.all(np.isfinite(out))

    def test_layers_differ(self):
        first, second = _blocks(count=2)
        assert not np.allclose(first.attn.wq.weight.data, second.attn.wq.weight.data)

    def test_layers_share_one_engine_plan(self):
        """Every block under one quantizer runs on its one engine, and the
        pattern is scheduled once for the whole stack."""
        quantizer = AttentionQuantizer()
        blocks = _blocks(count=3, quantizer=quantizer)
        _run(blocks, np.random.default_rng(7).standard_normal((2, N, DIM)))
        assert all(block.attn.quantizer.salo is quantizer.salo for block in blocks)
        assert quantizer.salo.plan_cache_misses == 1
        assert quantizer.salo.plan_cache_hits >= 3
