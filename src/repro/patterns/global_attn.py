"""Global attention (Section 2.3).

A small set of pre-selected *global tokens* attends to the whole sequence
and is attended by the whole sequence: if ``g`` is global, row ``g`` and
column ``g`` of the attention mask are fully populated.  The choice of
global tokens is task-specific (e.g. Longformer uses the ``[CLS]`` token for
classification).  On SALO, global rows/columns are computed by the global PE
row and global PE column, reusing the q/k/v streams of the PE array.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .base import AttentionPattern, Band, PatternError

__all__ = ["GlobalAttentionPattern"]


class GlobalAttentionPattern(AttentionPattern):
    """Pure global attention for a set of global token indices."""

    def __init__(self, n: int, tokens: Sequence[int]) -> None:
        super().__init__(n)
        toks = sorted(set(int(t) for t in tokens))
        for t in toks:
            if not 0 <= t < n:
                raise PatternError(f"global token {t} out of range [0, {n})")
        self._tokens: Tuple[int, ...] = tuple(toks)

    @property
    def tokens(self) -> Tuple[int, ...]:
        return self._tokens

    def global_tokens(self) -> Tuple[int, ...]:
        return self._tokens

    def row_keys(self, i: int) -> np.ndarray:
        self._check_row(i)
        if i in self._tokens:
            return np.arange(self._n, dtype=np.int64)
        return np.asarray(self._tokens, dtype=np.int64)

    def bands(self) -> Optional[List[Band]]:
        # Global attention has no banded structure of its own.
        return []

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GlobalAttentionPattern(n={self._n}, tokens={list(self._tokens)})"
