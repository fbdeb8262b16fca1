"""Seeded synthetic Q/K/V generators.

The paper evaluates latency on real model weights, but attention latency
is data-independent (the pattern is static), so synthetic inputs suffice
for performance work.  For *numerical* work (quantisation studies) the
generators produce activations with realistic statistics: unit-variance
Gaussians give post-scaling scores distributed ~N(0, 1), which sit well
inside the PWL exponential's input range, mirroring a calibrated
deployment.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["random_qkv", "correlated_qkv"]


def random_qkv(
    n: int,
    hidden: int,
    seed: int = 0,
    std: float = 1.0,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Independent Gaussian Q, K, V of shape ``(n, hidden)``."""
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((n, hidden)) * std
    k = rng.standard_normal((n, hidden)) * std
    v = rng.standard_normal((n, hidden)) * std
    return q, k, v


def correlated_qkv(
    n: int,
    hidden: int,
    seed: int = 0,
    correlation: float = 0.5,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Q/K/V derived from a shared token embedding, as in a real layer.

    Real projections of the same token stream are correlated, which makes
    attention distributions peaky (large positive scores on matching
    pairs) — the stressful case for the PWL exponential's clamp range.
    """
    if not 0.0 <= correlation <= 1.0:
        raise ValueError("correlation must be in [0, 1]")
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n, hidden))
    mix = np.sqrt(1.0 - correlation**2)
    q = correlation * base + mix * rng.standard_normal((n, hidden))
    k = correlation * base + mix * rng.standard_normal((n, hidden))
    v = correlation * base + mix * rng.standard_normal((n, hidden))
    return q, k, v
