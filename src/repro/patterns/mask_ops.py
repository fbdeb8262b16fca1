"""Mask algebra and pattern/mask interoperation utilities.

These helpers operate on dense boolean masks (for testing, visualisation
and unstructured patterns) and provide conversions between masks and the
structured pattern representation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .base import AttentionPattern, PatternError

__all__ = [
    "ExplicitMaskPattern",
    "union",
    "intersection",
    "coverage",
    "render_ascii",
]


class ExplicitMaskPattern(AttentionPattern):
    """Pattern backed by a dense boolean mask (unstructured fallback)."""

    def __init__(self, mask: np.ndarray) -> None:
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
            raise PatternError(f"mask must be square 2-D, got shape {mask.shape}")
        super().__init__(mask.shape[0])
        self._mask = mask.copy()

    def row_keys(self, i: int) -> np.ndarray:
        self._check_row(i)
        return np.flatnonzero(self._mask[i]).astype(np.int64)

    def mask(self) -> np.ndarray:
        return self._mask.copy()

    def nnz(self) -> int:
        return int(self._mask.sum())


def union(*patterns: AttentionPattern) -> ExplicitMaskPattern:
    """Set union of patterns (all on the same sequence length)."""
    _check_same_length(patterns)
    out = np.zeros((patterns[0].n, patterns[0].n), dtype=bool)
    for p in patterns:
        out |= p.mask()
    return ExplicitMaskPattern(out)


def intersection(*patterns: AttentionPattern) -> ExplicitMaskPattern:
    """Set intersection of patterns (all on the same sequence length)."""
    _check_same_length(patterns)
    out = np.ones((patterns[0].n, patterns[0].n), dtype=bool)
    for p in patterns:
        out &= p.mask()
    return ExplicitMaskPattern(out)


def _check_same_length(patterns: Sequence[AttentionPattern]) -> None:
    if not patterns:
        raise PatternError("need at least one pattern")
    lengths = {p.n for p in patterns}
    if len(lengths) != 1:
        raise PatternError(f"patterns have differing lengths: {sorted(lengths)}")


def coverage(pattern: AttentionPattern, reference: AttentionPattern) -> float:
    """Fraction of ``reference``'s positions also present in ``pattern``."""
    ref = reference.mask()
    total = int(ref.sum())
    if total == 0:
        return 1.0
    return float((pattern.mask() & ref).sum()) / total


def render_ascii(pattern: AttentionPattern, max_n: int = 64) -> str:
    """ASCII-art rendering of a pattern mask (■ attended / · skipped).

    Handy for examples and debugging; refuses to render very long
    sequences.
    """
    if pattern.n > max_n:
        raise PatternError(f"sequence length {pattern.n} > render limit {max_n}")
    mask = pattern.mask()
    rows = ["".join("#" if v else "." for v in row) for row in mask]
    return "\n".join(rows)
