"""Tests for the numpy autograd engine, including numerical grad checks."""

import numpy as np
import pytest

from repro.nn.autograd import Tensor, no_grad


def numerical_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar fn wrt x."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def check_op(op, shape=(3, 4), seed=0, atol=1e-5):
    """Autograd gradient must match the numerical gradient."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    t = Tensor(x.copy(), requires_grad=True)
    out = op(t)
    loss = out.sum() if not np.isscalar(out.data) and out.data.ndim else out
    loss.backward()
    num = numerical_grad(lambda arr: float(np.sum(op(Tensor(arr)).data)), x.copy())
    assert np.allclose(t.grad, num, atol=atol), f"{op}: {np.abs(t.grad - num).max()}"


class TestElementwiseGrads:
    def test_add(self):
        check_op(lambda t: t + 2.0)

    def test_mul(self):
        check_op(lambda t: t * 3.0)

    def test_neg_sub(self):
        check_op(lambda t: (5.0 - t) - t)

    def test_div(self):
        check_op(lambda t: t / 2.0)

    def test_rdiv(self):
        check_op(lambda t: 1.0 / (t + 10.0))

    def test_pow(self):
        check_op(lambda t: (t + 10.0) ** 3)

    def test_exp(self):
        check_op(lambda t: t.exp())

    def test_log(self):
        check_op(lambda t: (t + 10.0).log())

    def test_relu(self):
        check_op(lambda t: t.relu(), seed=3)

    def test_gelu(self):
        check_op(lambda t: t.gelu())

    def test_tanh(self):
        check_op(lambda t: t.tanh())

    def test_clamp(self):
        check_op(lambda t: t.clamp(-0.5, 0.5), seed=4)


class TestShapeGrads:
    def test_matmul(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((4, 5))
        check_op(lambda t: t @ Tensor(w))

    def test_matmul_batched(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((2, 4, 5))
        check_op(lambda t: Tensor(w) @ t, shape=(2, 5, 3))

    def test_transpose(self):
        check_op(lambda t: t.transpose(0, 1) * 2.0)

    def test_reshape(self):
        check_op(lambda t: t.reshape(4, 3) * 1.5)

    def test_getitem(self):
        check_op(lambda t: t[1:, :2])

    def test_broadcast_add(self):
        rng = np.random.default_rng(3)
        b = rng.standard_normal(4)
        check_op(lambda t: t + Tensor(b))

    def test_broadcast_grad_accumulates(self):
        b = Tensor(np.zeros(4), requires_grad=True)
        x = Tensor(np.ones((3, 4)))
        (x + b).sum().backward()
        assert np.allclose(b.grad, 3.0)


class TestReductionGrads:
    def test_sum_all(self):
        check_op(lambda t: t.sum())

    def test_sum_axis(self):
        check_op(lambda t: t.sum(axis=0))

    def test_sum_keepdims(self):
        check_op(lambda t: t.sum(axis=1, keepdims=True))

    def test_mean(self):
        check_op(lambda t: t.mean(axis=1))

    def test_max(self):
        check_op(lambda t: t.max(axis=1), seed=5)

    def test_softmax(self):
        check_op(lambda t: t.softmax(axis=-1))


class TestCustomOps:
    def test_fake_quant_is_ste(self):
        t = Tensor(np.array([0.3, -0.7]), requires_grad=True)
        out = t.fake_quant(lambda x: np.round(x * 4) / 4)
        out.sum().backward()
        assert np.allclose(t.grad, 1.0)

    def test_masked_fill_blocks_grad(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        mask = np.array([[True, False], [False, False]])
        t.masked_fill(mask, -1e9).sum().backward()
        assert t.grad[0, 0] == 0.0 and t.grad[1, 1] == 1.0


class TestGraphMechanics:
    def test_grad_accumulates_over_uses(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        (t * 2 + t * 3).backward()
        assert t.grad[0] == 5.0

    def test_diamond_graph(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        a = t * 3
        b = t * 4
        (a * b).backward()  # d/dt (12 t^2) = 24t = 48
        assert t.grad[0] == pytest.approx(48.0)

    def test_no_grad_context(self):
        with no_grad():
            t = Tensor(np.ones(3), requires_grad=True)
            out = t * 2
        assert not out.requires_grad

    def test_backward_without_grad_raises(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(2)).backward()

    def test_detach_cuts_graph(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        (t.detach() * 5 + t).backward()
        assert t.grad[0] == 1.0

    def test_deep_chain_no_recursion_error(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        x = t
        for _ in range(2000):
            x = x + 1.0
        x.backward()
        assert t.grad[0] == 1.0

    def test_zero_grad(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        (t * 2).backward()
        t.zero_grad()
        assert t.grad is None
