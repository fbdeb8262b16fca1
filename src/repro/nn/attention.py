"""Sparse multi-head attention modules for the NN substrate.

:class:`SparseMultiHeadAttention` implements the hybrid sparse attention of
the paper's workloads as a trainable layer: the pattern's mask restricts
the score matrix, so the layer computes exactly what SALO accelerates.  An
optional :class:`AttentionQuantizer` makes the layer's forward value the
SALO engine's output (:meth:`SALO.attend`: Q8.4 operands, per-pass PWL
exponential and LUT reciprocal, Eq. 2 merges), with the float masked
attention as the straight-through gradient path — the mechanism behind the
Table 3 quantisation study, mirroring the paper's QPyTorch-instrumented
layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.config import HardwareConfig, NumericsConfig
from ..core.salo import SALO
from ..patterns.base import AttentionPattern
from ..scheduler.scheduler import SchedulerError
from .autograd import Tensor, is_grad_enabled
from .layers import Dropout, Linear, Module

__all__ = ["AttentionQuantizer", "SparseMultiHeadAttention"]

_NEG_INF = -1.0e9


@dataclass
class AttentionQuantizer:
    """Routes attention through one SALO engine.

    ``numerics`` defaults to the paper's deployment precision (8-bit Q/K/V
    with 4 fractional bits, 16-bit outputs, PWL exp, LUT reciprocal).  The
    engine is Table 1's 32 x 32 array with these numerics; every layer the
    quantizer is set on shares it (and its plan cache).
    """

    numerics: NumericsConfig = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.numerics is None:
            self.numerics = NumericsConfig()
        self.salo = SALO(HardwareConfig(numerics=self.numerics))


class SparseMultiHeadAttention(Module):
    """Multi-head attention restricted to a sparse pattern.

    Parameters
    ----------
    dim, heads:
        Model width and number of heads (``dim % heads == 0``).
    pattern:
        The hybrid sparse attention pattern (its mask gates the scores).
    rng:
        Initialisation source.
    dropout:
        Attention-output dropout probability.
    quantizer:
        When set, the attention runs on the quantizer's SALO engine; a
        pattern the engine cannot schedule raises ``ValueError`` here.
    """

    def __init__(
        self,
        dim: int,
        heads: int,
        pattern: AttentionPattern,
        rng: np.random.Generator,
        dropout: float = 0.0,
        quantizer: Optional[AttentionQuantizer] = None,
    ) -> None:
        super().__init__()
        if dim % heads != 0:
            raise ValueError(f"dim {dim} not divisible by heads {heads}")
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self.pattern = pattern
        self.mask = pattern.mask()  # (n, n) boolean
        self.wq = Linear(dim, dim, rng)
        self.wk = Linear(dim, dim, rng)
        self.wv = Linear(dim, dim, rng)
        self.wo = Linear(dim, dim, rng)
        self.drop = Dropout(dropout, rng)
        self.set_quantizer(quantizer)

    # ------------------------------------------------------------------
    def set_quantizer(self, quantizer: Optional[AttentionQuantizer]) -> None:
        """Swap the numeric mode (None = float).

        The pattern is scheduled on the quantizer's engine once, here, so
        a pattern SALO cannot run fails now rather than inside a step.
        """
        if quantizer is not None:
            try:
                quantizer.salo.estimate(self.pattern, heads=self.heads, head_dim=self.head_dim)
            except SchedulerError as exc:
                raise ValueError(
                    f"{type(self.pattern).__name__} cannot run on the SALO engine: {exc}"
                ) from exc
        self.quantizer = quantizer

    def _split_heads(self, x: Tensor, batch: int, n: int) -> Tensor:
        return x.reshape(batch, n, self.heads, self.head_dim).transpose(1, 2)

    def _masked_attention(self, q: Tensor, k: Tensor, v: Tensor) -> Tensor:
        """Float masked attention on ``(batch, n, dim)`` projections."""
        batch, n, _ = q.shape
        q, k, v = (self._split_heads(t, batch, n) for t in (q, k, v))
        scores = (q @ k.transpose(-1, -2)) * (1.0 / np.sqrt(self.head_dim))
        probs = scores.masked_fill(~self.mask, _NEG_INF).softmax(axis=-1)
        return (probs @ v).transpose(1, 2).reshape(batch, n, self.dim)

    def forward(self, x: Tensor) -> Tensor:
        """(batch, n, dim) → (batch, n, dim); also accepts unbatched
        ``(n, dim)`` input, which is routed through the batched path as a
        batch of one and returned unbatched.

        Under a quantizer the attention is one batched ``SALO.attend``
        dispatch.  With grad enabled its output replaces the float
        attention's value while the gradient stays the float graph's
        (straight-through); under ``no_grad`` only the engine runs.
        """
        if x.ndim not in (2, 3):
            raise ValueError(f"expected (n, dim) or (batch, n, dim) input, got shape {x.shape}")
        if x.shape[-1] != self.dim:
            raise ValueError(f"layer is for dim={self.dim}, input has dim={x.shape[-1]}")
        if x.ndim == 2:
            n, dim = x.shape
            return self.forward(x.reshape(1, n, dim)).reshape(n, dim)
        n = x.shape[1]
        if n != self.pattern.n:
            raise ValueError(f"pattern is for n={self.pattern.n}, input has n={n}")
        q, k, v = self.wq(x), self.wk(x), self.wv(x)
        if self.quantizer is None:
            ctx = self._masked_attention(q, k, v)
        else:
            out = self.quantizer.salo.attend(
                self.pattern, q.data, k.data, v.data, heads=self.heads
            ).output
            if is_grad_enabled():
                ctx = self._masked_attention(q, k, v).fake_quant(lambda _: out)
            else:
                ctx = Tensor(out)
        return self.drop(self.wo(ctx))
