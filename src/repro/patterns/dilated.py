"""Dilated window attention (Section 2.3, grey pattern in Figure 2c).

An extension of sliding window attention with a dilation ``d`` — the size of
the gap inside the window.  Query ``q_i`` attends keys ``k_j`` with
``j - i`` in ``{a, a + d, ..., b}``.  Key reuse now exists between queries
``q_i`` and ``q_{i+d}``; SALO's data scheduler *reorders* queries with the
same residue modulo ``d`` into contiguous groups, turning the dilated window
into an ordinary sliding window the PE array supports directly (Section
4.2).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .base import AttentionPattern, Band, PatternError

__all__ = ["DilatedWindowPattern"]


class DilatedWindowPattern(AttentionPattern):
    """Dilated window with relative offsets ``{a, a + d, ..., b}``."""

    def __init__(self, n: int, a: int, b: int, dilation: int) -> None:
        super().__init__(n)
        if dilation < 1:
            raise PatternError(f"dilation must be >= 1, got {dilation}")
        if b < a:
            raise PatternError(f"window requires b >= a, got [{a}, {b}]")
        if (b - a) % dilation != 0:
            raise PatternError(
                f"offset span {b - a} must be a multiple of dilation {dilation}"
            )
        self.a = int(a)
        self.b = int(b)
        self.dilation = int(dilation)

    @classmethod
    def symmetric(cls, n: int, window: int, dilation: int) -> "DilatedWindowPattern":
        """Symmetric dilated window touching ``window`` keys spaced ``dilation`` apart."""
        if window < 1:
            raise PatternError(f"window size must be >= 1, got {window}")
        half = window // 2
        return cls(n, -half * dilation, (window - 1 - half) * dilation, dilation)

    @property
    def window_size(self) -> int:
        """Number of keys in the (unclipped) window."""
        return (self.b - self.a) // self.dilation + 1

    def row_keys(self, i: int) -> np.ndarray:
        self._check_row(i)
        keys = i + np.arange(self.a, self.b + 1, self.dilation, dtype=np.int64)
        return keys[(keys >= 0) & (keys < self._n)]

    def bands(self) -> Optional[List[Band]]:
        return [Band(self.a, self.b, self.dilation)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DilatedWindowPattern(n={self._n}, a={self.a}, b={self.b}, "
            f"dilation={self.dilation})"
        )
