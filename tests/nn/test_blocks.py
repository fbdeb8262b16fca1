"""Tests for the transformer building blocks the encoder is made of:
GELU, affine projections, layer norm and the FFN."""

import numpy as np
import pytest

from repro.nn.autograd import Tensor
from repro.nn.layers import FeedForward, LayerNorm, Linear


def _gelu(x):
    return Tensor(np.asarray(x, dtype=float)).gelu().data


class TestGelu:
    def test_zero(self):
        assert _gelu([0.0])[0] == 0.0

    def test_large_positive_identity(self):
        assert _gelu([10.0])[0] == pytest.approx(10.0, rel=1e-4)

    def test_large_negative_zero(self):
        assert _gelu([-10.0])[0] == pytest.approx(0.0, abs=1e-4)

    def test_monotone_above_dip(self):
        # GELU is monotone only above its minimum near x ~ -0.75.
        xs = np.linspace(-0.7, 5, 100)
        assert (np.diff(_gelu(xs)) > 0).all()

    def test_has_negative_dip(self):
        assert _gelu([-0.75])[0] < 0.0


class TestLinear:
    def test_affine(self):
        rng = np.random.default_rng(0)
        lin = Linear(4, 3, rng)
        lin.bias.data[...] = rng.standard_normal(3)
        x = rng.standard_normal((5, 4))
        assert np.allclose(lin(Tensor(x)).data, x @ lin.weight.data + lin.bias.data)

    def test_features(self):
        lin = Linear(4, 3, np.random.default_rng(0))
        assert lin.weight.shape == (4, 3) and lin.bias.shape == (3,)

    def test_zero_bias_init(self):
        lin = Linear(4, 3, np.random.default_rng(0))
        assert np.all(lin.bias.data == 0)


class TestLayerNorm:
    def test_gamma_beta(self):
        ln = LayerNorm(4)
        ln.gamma.data[...] = 2.0
        ln.beta.data[...] = 1.0
        out = ln(Tensor(np.random.default_rng(2).standard_normal((3, 4)))).data
        assert np.allclose(out.mean(axis=-1), 1.0, atol=1e-6)
        assert np.allclose(out.std(axis=-1), 2.0, atol=1e-2)


class TestFfn:
    def test_shapes(self):
        ffn = FeedForward(8, 32, np.random.default_rng(3))
        out = ffn(Tensor(np.ones((5, 8))))
        assert out.shape == (5, 8)
        assert ffn.fc1.weight.shape == (8, 32)
