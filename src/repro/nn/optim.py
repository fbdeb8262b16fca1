"""Optimisers and loss functions for the NN substrate."""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from .autograd import Tensor

__all__ = ["Adam", "cross_entropy", "clip_grad_norm"]


class Adam:
    """Adam with decoupled weight decay (AdamW)."""

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        self.params: List[Tensor] = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1c = 1.0 - self.beta1**self._t
        b2c = 1.0 - self.beta2**self._t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / b1c) / (np.sqrt(v / b2c) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data -= self.lr * update

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of ``(batch, classes)`` logits vs integer labels."""
    labels = np.asarray(labels, dtype=np.int64)
    batch = logits.shape[0]
    shifted = logits - logits.max(axis=-1, keepdims=True).detach()
    log_z = shifted.exp().sum(axis=-1, keepdims=True).log()
    log_probs = shifted - log_z
    picked = log_probs[np.arange(batch), labels]
    return -picked.mean()


def clip_grad_norm(params: Iterable[Tensor], max_norm: float) -> float:
    """Clip global gradient norm in place; returns the pre-clip norm."""
    params = [p for p in params if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad**2).sum()) for p in params)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in params:
            p.grad *= scale
    return total
