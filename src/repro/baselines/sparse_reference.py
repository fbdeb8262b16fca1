"""Masked sparse attention reference.

Computes attention restricted to an arbitrary :class:`AttentionPattern` by
masking scores to :math:`-\\infty` before the softmax.  Quadratic in ``n``
(it materialises the dense score matrix) but exact — this is the oracle the
SALO engines are validated against.

Also provides a row-streaming variant that never materialises the dense
matrix, used to validate long-sequence runs where the quadratic oracle is
too slow, and an *online softmax* implementation demonstrating the
split-window renormalisation of Eq. 2 / Appendix A in pure software.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..patterns.base import AttentionPattern

__all__ = [
    "masked_attention",
    "sparse_attention_rowwise",
    "online_softmax_merge",
    "split_window_attention",
]


def masked_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    pattern: AttentionPattern,
    scale: Optional[float] = None,
) -> np.ndarray:
    """Exact sparse attention via dense masking (oracle; O(n^2) memory).

    Rows below ``pattern.first_query`` hold no query: they are not
    computed and read 0.0, as on the engine.  A row at or above it that
    attends no key raises :class:`ValueError`.
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    n = q.shape[0]
    if pattern.n != n:
        raise ValueError(f"pattern length {pattern.n} != sequence length {n}")
    if scale is None:
        scale = 1.0 / np.sqrt(q.shape[1])
    first = pattern.first_query
    s = (q[first:] @ k.T) * scale
    mask = pattern.mask()[first:]
    if not mask.any(axis=1).all():
        raise ValueError("pattern leaves some query with no attended key")
    s = np.where(mask, s, -np.inf)
    s -= np.max(s, axis=1, keepdims=True)
    e = np.exp(s)
    e = np.where(mask, e, 0.0)
    denom = e.sum(axis=1, keepdims=True)
    out = (e / denom) @ v
    if first:  # only a late-start pattern pays for a second output buffer
        out = np.concatenate([np.zeros((first, out.shape[1])), out])
    return out


def sparse_attention_rowwise(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    pattern: AttentionPattern,
    scale: Optional[float] = None,
) -> np.ndarray:
    """Exact sparse attention computed row by row (O(n·w) memory); rows
    below ``pattern.first_query`` read 0.0, as in :func:`masked_attention`."""
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    n, d = q.shape
    if pattern.n != n:
        raise ValueError(f"pattern length {pattern.n} != sequence length {n}")
    if scale is None:
        scale = 1.0 / np.sqrt(d)
    out = np.zeros((n, v.shape[1]), dtype=np.float64)
    for i in range(pattern.first_query, n):
        keys = pattern.row_keys(i)
        if len(keys) == 0:
            raise ValueError(f"query {i} attends to no keys")
        s = (k[keys] @ q[i]) * scale
        s -= s.max()
        e = np.exp(s)
        out[i] = (e @ v[keys]) / e.sum()
    return out


def online_softmax_merge(
    out1: np.ndarray,
    w1: np.ndarray,
    out2: np.ndarray,
    w2: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge two partial softmax-weighted outputs (paper Eq. 2).

    ``out_k`` are the normalised partial outputs over token subsets
    ``T_k`` and ``w_k = sum_{j in T_k} exp(S_ij)`` their exponential-sum
    weights.  Returns the merged output and the combined weight
    ``w1 + w2`` so that merges can be chained over any number of window
    splits (Appendix A generalises Eq. 2 to K parts by induction).
    """
    w1 = np.asarray(w1, dtype=np.float64)
    w2 = np.asarray(w2, dtype=np.float64)
    total = w1 + w2
    if np.any(total <= 0):
        raise ValueError("merge weights must be positive")
    a1 = (w1 / total)[..., None]
    a2 = (w2 / total)[..., None]
    return a1 * np.asarray(out1) + a2 * np.asarray(out2), total


def split_window_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    pattern: AttentionPattern,
    split: int,
    scale: Optional[float] = None,
) -> np.ndarray:
    """Sparse attention computed in window splits merged via Eq. 2.

    Splits every query's key list into chunks of ``split`` keys, computes a
    locally-normalised partial attention per chunk, and merges the chunks
    with :func:`online_softmax_merge`.  Software model of the weighted-sum
    module + window splitting pipeline; must agree with
    :func:`sparse_attention_rowwise` to float precision, rows below
    ``pattern.first_query`` included (they read 0.0).
    """
    if split < 1:
        raise ValueError(f"split must be >= 1, got {split}")
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    n, d = q.shape
    if scale is None:
        scale = 1.0 / np.sqrt(d)
    out = np.zeros((n, v.shape[1]), dtype=np.float64)
    for i in range(pattern.first_query, n):
        keys = pattern.row_keys(i)
        if len(keys) == 0:
            raise ValueError(f"query {i} attends to no keys")
        acc_out: Optional[np.ndarray] = None
        acc_w = np.zeros(())
        for start in range(0, len(keys), split):
            part = keys[start : start + split]
            s = (k[part] @ q[i]) * scale
            e = np.exp(s)
            w = e.sum()
            part_out = (e @ v[part]) / w
            if acc_out is None:
                acc_out, acc_w = part_out, w
            else:
                acc_out, acc_w = online_softmax_merge(acc_out, acc_w, part_out, w)
        out[i] = acc_out
    return out
