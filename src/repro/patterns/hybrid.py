"""Hybrid sparse attention: banded windows + global tokens.

This is the pattern family SALO natively supports (the paper's "hybrid
sparse attention mechanism"): the union of one or more (possibly dilated)
relative-offset bands with a handful of global tokens.  Longformer is one
symmetric band plus global tokens; ViL is fifteen bands (one per image row
offset) plus a global token.

A pattern may also start its queries late: with ``first_query = f``
rows ``[0, f)`` are keys only — they attend nothing, so their mask rows
are empty — while rows from ``f`` on keep their full band structure.  A
decode step is the use: it wants the newest rows of its step window, and
the data scheduler leaves out every pass whose query block lies wholly
below ``f``.  Global tokens attend (and are attended by) every row, so
they cannot be combined with a late first query.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .base import AttentionPattern, Band, PatternError, merge_key_arrays

__all__ = ["HybridSparsePattern"]


class HybridSparsePattern(AttentionPattern):
    """Union of relative-offset bands and global-token rows/columns.

    Parameters
    ----------
    n:
        Sequence length.
    bands:
        Iterable of :class:`Band`.  Bands may overlap; overlapping positions
        are counted once (the mask is a set union).
    global_tokens:
        Indices whose full row and column are attended.
    first_query:
        First row holding a query, in ``[0, n)``; rows below it attend
        no keys.  Must be 0 when there are global tokens.
    """

    def __init__(
        self,
        n: int,
        bands: Iterable[Band] = (),
        global_tokens: Sequence[int] = (),
        first_query: int = 0,
    ) -> None:
        super().__init__(n)
        self._bands: Tuple[Band, ...] = tuple(bands)
        toks = sorted(set(int(t) for t in global_tokens))
        for t in toks:
            if not 0 <= t < n:
                raise PatternError(f"global token {t} out of range [0, {n})")
        self._global: Tuple[int, ...] = tuple(toks)
        if not self._bands and not self._global:
            raise PatternError("hybrid pattern needs at least one band or global token")
        if not 0 <= first_query < n:
            raise PatternError(f"first_query {first_query} out of range [0, {n})")
        if first_query and self._global:
            raise PatternError(
                f"first_query {first_query} > 0 cannot be combined with global tokens "
                f"{list(self._global)}: a global row attends every key"
            )
        self._first_query = int(first_query)

    # ------------------------------------------------------------------
    # Structured interface
    # ------------------------------------------------------------------
    def bands(self) -> List[Band]:
        return list(self._bands)

    def global_tokens(self) -> Tuple[int, ...]:
        return self._global

    @property
    def first_query(self) -> int:
        return self._first_query

    @property
    def num_global(self) -> int:
        return len(self._global)

    def window_size(self) -> int:
        """Total number of banded key offsets per query (the effective ``w``)."""
        return sum(b.width for b in self._bands)

    # ------------------------------------------------------------------
    # Pattern interface
    # ------------------------------------------------------------------
    def row_keys(self, i: int) -> np.ndarray:
        self._check_row(i)
        if i in self._global:
            return np.arange(self._n, dtype=np.int64)
        parts = [self.banded_row_keys(i)]
        parts.append(np.asarray(self._global, dtype=np.int64))
        return merge_key_arrays(parts)

    def banded_row_keys(self, i: int) -> np.ndarray:
        """Keys attended through bands only (ignoring global rows/columns)."""
        self._check_row(i)
        if i < self._first_query:
            return np.empty(0, dtype=np.int64)
        return merge_key_arrays([b.keys_for(i, self._n) for b in self._bands])

    def with_sequence_length(self, n: int) -> "HybridSparsePattern":
        """Same band/global structure on a different sequence length."""
        if self._first_query:
            raise PatternError(
                f"first_query {self._first_query} names a row of the length-{self._n} "
                "pattern; rebuild the pattern at the new length instead"
            )
        toks = [t for t in self._global if t < n]
        return HybridSparsePattern(n, self._bands, toks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        first = f", first_query={self._first_query}" if self._first_query else ""
        return (
            f"HybridSparsePattern(n={self._n}, bands={list(self._bands)}, "
            f"global_tokens={list(self._global)}{first})"
        )
