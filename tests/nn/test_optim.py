"""Tests for optimisers and losses."""

import numpy as np
import pytest

from repro.nn.autograd import Tensor
from repro.nn.optim import Adam, clip_grad_norm, cross_entropy


class TestAdam:
    def test_descends_quadratic(self):
        w = Tensor(np.array([3.0, -4.0]), requires_grad=True)
        opt = Adam([w], lr=0.1)
        for _ in range(200):
            loss = (w * w).sum()
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert np.abs(w.data).max() < 1e-2

    def test_weight_decay_shrinks(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([w], lr=0.01, weight_decay=1.0)
        for _ in range(100):
            loss = (w * 0.0).sum()  # zero gradient; only decay acts
            opt.zero_grad()
            loss.backward()
            opt.step()
        assert abs(w.data[0]) < 0.5

    def test_skips_gradless_params(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        Adam([w], lr=0.1).step()  # no grad yet; must not crash
        assert w.data[0] == 1.0


class TestCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        logits = Tensor(np.array([[10.0, -10.0]]))
        assert cross_entropy(logits, np.array([0])).item() < 1e-4

    def test_uniform_prediction(self):
        logits = Tensor(np.zeros((1, 4)))
        assert cross_entropy(logits, np.array([2])).item() == pytest.approx(np.log(4))

    def test_grad_direction(self):
        logits = Tensor(np.zeros((1, 2)), requires_grad=True)
        cross_entropy(logits, np.array([1])).backward()
        assert logits.grad[0, 1] < 0 < logits.grad[0, 0]

    def test_batch_mean(self):
        logits = Tensor(np.zeros((4, 2)))
        assert cross_entropy(logits, np.zeros(4, dtype=int)).item() == pytest.approx(np.log(2))


class TestClipGradNorm:
    def test_clips_large(self):
        w = Tensor(np.zeros(4), requires_grad=True)
        w.grad = np.full(4, 10.0)
        norm = clip_grad_norm([w], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(w.grad) == pytest.approx(1.0)

    def test_leaves_small(self):
        w = Tensor(np.zeros(4), requires_grad=True)
        w.grad = np.full(4, 0.1)
        clip_grad_norm([w], max_norm=5.0)
        assert np.allclose(w.grad, 0.1)
