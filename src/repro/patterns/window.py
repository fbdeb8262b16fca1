"""Sliding window attention (Section 2.3, blue pattern in Figure 2).

Given a relative position range ``[a, b]``, each query ``q_i`` attends to
keys ``k_j`` with ``a <= j - i <= b``; the window size is ``w = b - a + 1``.
Successive queries share ``w - 1`` key vectors, which is the data reuse the
SALO dataflow exploits through diagonal PE connections.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .base import AttentionPattern, Band, PatternError

__all__ = ["SlidingWindowPattern"]


class SlidingWindowPattern(AttentionPattern):
    """Sliding window attention with relative range ``[a, b]``.

    Parameters
    ----------
    n:
        Sequence length.
    a, b:
        Inclusive relative offset range; query ``i`` attends keys
        ``i + a .. i + b`` (clipped to the sequence).  A symmetric window of
        size ``w`` is obtained with ``a = -(w // 2)``, ``b = w - 1 - w // 2``.
    """

    def __init__(self, n: int, a: int, b: int) -> None:
        super().__init__(n)
        if b < a:
            raise PatternError(f"window requires b >= a, got [{a}, {b}]")
        self.a = int(a)
        self.b = int(b)

    @classmethod
    def symmetric(cls, n: int, window: int) -> "SlidingWindowPattern":
        """Symmetric window of total size ``window`` centred on the query.

        For even ``window`` the extra key lies on the *past* side, matching
        the Longformer convention of a ``window`` split evenly with the
        centre token included on the query's own position.
        """
        if window < 1:
            raise PatternError(f"window size must be >= 1, got {window}")
        half = window // 2
        return cls(n, -half, window - 1 - half)

    @classmethod
    def causal(cls, n: int, window: int) -> "SlidingWindowPattern":
        """Causal (past-only) window of size ``window`` including self."""
        if window < 1:
            raise PatternError(f"window size must be >= 1, got {window}")
        return cls(n, -(window - 1), 0)

    @property
    def window_size(self) -> int:
        """The window size ``w = b - a + 1``."""
        return self.b - self.a + 1

    def row_keys(self, i: int) -> np.ndarray:
        self._check_row(i)
        lo = max(0, i + self.a)
        hi = min(self._n - 1, i + self.b)
        if hi < lo:
            return np.empty(0, dtype=np.int64)
        return np.arange(lo, hi + 1, dtype=np.int64)

    def bands(self) -> Optional[List[Band]]:
        return [Band(self.a, self.b, 1)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SlidingWindowPattern(n={self._n}, a={self.a}, b={self.b})"
