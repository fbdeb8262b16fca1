"""Core abstractions for sparse attention patterns.

A *sparse attention pattern* specifies, for every query position ``i`` in a
sequence of length ``n``, the set of key positions ``j`` the query attends
to.  Following the paper (Section 2.3), patterns are best viewed as boolean
masks over the :math:`n \\times n` score matrix ``S``: a position ``(i, j)``
present in the pattern means :math:`S_{ij}` participates in the softmax and
the subsequent weighted sum over value vectors.

SALO-schedulable patterns are *structured*: each query attends to a union of
relative-offset **bands** (sliding windows, possibly dilated) plus a small
set of **global tokens**.  The :class:`Band` dataclass captures one band and
is the common currency between the pattern library and the data scheduler.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Band",
    "AttentionPattern",
    "PatternError",
]


class PatternError(ValueError):
    """Raised when a pattern specification is inconsistent."""


@dataclass(frozen=True)
class Band:
    """A dilated band of relative offsets.

    A band with bounds ``(lo, hi)`` and dilation ``d`` makes query ``i``
    attend to keys ``j`` with ``j - i`` in ``{lo, lo + d, ..., hi}``
    (clipped to the valid key range ``[0, n)``).

    ``dilation == 1`` is an ordinary sliding window of width
    ``hi - lo + 1`` — the pattern highlighted in blue in Figure 2 of the
    paper.  ``dilation > 1`` is the dilated window attention of
    Sparse-Transformer / the y-axis window of ViL (grey in Figure 2c).
    """

    lo: int
    hi: int
    dilation: int = 1

    def __post_init__(self) -> None:
        if self.dilation < 1:
            raise PatternError(f"dilation must be >= 1, got {self.dilation}")
        if self.hi < self.lo:
            raise PatternError(f"band requires hi >= lo, got [{self.lo}, {self.hi}]")
        if (self.hi - self.lo) % self.dilation != 0:
            raise PatternError(
                f"band span {self.hi - self.lo} not a multiple of dilation {self.dilation}"
            )

    @property
    def width(self) -> int:
        """Number of key offsets in the band (the window size ``w``)."""
        return (self.hi - self.lo) // self.dilation + 1

    def offsets(self) -> np.ndarray:
        """All relative offsets in the band, ascending."""
        return np.arange(self.lo, self.hi + 1, self.dilation)

    def keys_for(self, i: int, n: int) -> np.ndarray:
        """Key indices query ``i`` attends to through this band, clipped to ``[0, n)``."""
        keys = i + self.offsets()
        return keys[(keys >= 0) & (keys < n)]

    def shifted(self, delta: int) -> "Band":
        """A copy of this band translated by ``delta`` offsets."""
        return Band(self.lo + delta, self.hi + delta, self.dilation)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.dilation == 1:
            return f"Band([{self.lo}, {self.hi}])"
        return f"Band([{self.lo}, {self.hi}], dilation={self.dilation})"


class AttentionPattern(abc.ABC):
    """Abstract base class for attention patterns over a length-``n`` sequence.

    Subclasses must implement :meth:`row_keys`.  Structured patterns should
    additionally expose :meth:`bands` and :meth:`global_tokens` so that the
    data scheduler can map them onto the accelerator without materialising
    the full :math:`n \\times n` mask.  A pattern that reports bands has
    exactly the rows they imply: from :attr:`first_query` on, row ``i``
    is its in-range band keys plus every global column, a global row is
    every key, and rows below :attr:`first_query` are empty.  The
    scheduler relies on this, and :meth:`mask` / :meth:`nnz` build from
    the structure without calling :meth:`row_keys`.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise PatternError(f"sequence length must be >= 1, got {n}")
        self._n = int(n)

    @property
    def n(self) -> int:
        """Sequence length."""
        return self._n

    # ------------------------------------------------------------------
    # Required interface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def row_keys(self, i: int) -> np.ndarray:
        """Sorted array of key indices query ``i`` attends to."""

    # ------------------------------------------------------------------
    # Structured interface (optional)
    # ------------------------------------------------------------------
    def bands(self) -> Optional[List[Band]]:
        """Relative-offset bands composing the windowed part, or ``None``.

        ``None`` signals an unstructured pattern that the scheduler must
        handle via the generic (mask-driven) path.
        """
        return None

    def global_tokens(self) -> Sequence[int]:
        """Indices of global tokens (empty for purely local patterns)."""
        return ()

    @property
    def first_query(self) -> int:
        """First row that holds a query; rows below it attend nothing."""
        return 0

    def structure_key(self) -> Optional[Tuple]:
        """``(n, bands, global tokens, first query)``, or ``None`` when opaque.

        Each band is its ``(lo, hi, dilation)`` triple, not a
        :class:`Band`: the key is ints and tuples of ints, so a lookup
        keyed on it hashes in C and runs no ``Band.__hash__``.
        Derived on the first call and kept: a pattern is a value, nothing
        changes it after construction, so every later call — one per
        request routed, queued or estimated — is an attribute read.
        :func:`repro.core.salo.pattern_structure_key` is the door.
        """
        try:
            return self._structure_key
        except AttributeError:
            bands = self.bands()
            key = None
            if bands is not None:
                triples = tuple((b.lo, b.hi, b.dilation) for b in bands)
                key = (self.n, triples, tuple(self.global_tokens()), self.first_query)
            self._structure_key = key
            return key

    # ------------------------------------------------------------------
    # Derived helpers
    # ------------------------------------------------------------------
    def _check_row(self, i: int) -> None:
        if not 0 <= i < self._n:
            raise PatternError(f"query index {i} out of range [0, {self._n})")

    def mask(self) -> np.ndarray:
        """Dense boolean mask of shape ``(n, n)``.

        Intended for reference computation and testing: it is still
        ``n**2`` bytes, so avoid on long sequences.  A structured pattern
        builds it from its bands and global tokens in a few strided
        writes; only an opaque one (``bands()`` is ``None``) loops over
        its rows in Python.
        """
        if self.bands() is not None:
            return self._mask_rows(0, self._n)
        m = np.zeros((self._n, self._n), dtype=bool)
        for i in range(self._n):
            m[i, self.row_keys(i)] = True
        return m

    def _mask_rows(self, start: int, stop: int) -> np.ndarray:
        """Rows ``[start, stop)`` of a structured pattern's mask: one strided
        diagonal write per band offset (clipped to the sequence and to rows
        from :attr:`first_query` on), one row and one column fill per global."""
        n = self._n
        top = max(start, self.first_query)
        block = np.zeros((stop - start, n), dtype=bool)
        flat = block.reshape(-1)
        for band in self.bands():
            for off in range(band.lo, band.hi + 1, band.dilation):
                lo, hi = max(top, -off), min(stop, n - off)
                if lo < hi:
                    # Cell (i, i + off) sits at flat index (i - start) * (n + 1) + start + off.
                    at = (lo - start) * (n + 1) + start + off
                    flat[at : at + (hi - lo) * (n + 1) : n + 1] = True
        for g in self.global_tokens():
            if top <= g < stop:
                block[g - start] = True
            block[top - start :, g] = True
        return block

    def row_count(self, i: int) -> int:
        """Number of keys attended by query ``i``."""
        return int(len(self.row_keys(i)))

    def nnz(self) -> int:
        """Total number of (query, key) pairs in the pattern.

        A structured pattern counts block by block (about ``2**22`` mask
        cells each), never holding its ``(n, n)`` mask.
        """
        if self.bands() is None:
            return sum(self.row_count(i) for i in range(self._n))
        step = max(1, (1 << 22) // self._n)
        blocks = (self._mask_rows(s, min(s + step, self._n)) for s in range(0, self._n, step))
        return sum(int(np.count_nonzero(block)) for block in blocks)

    def sparsity(self) -> float:
        """Fraction of the dense :math:`n^2` score matrix that is computed.

        This matches the "Sparsity" column of Table 2 in the paper (where
        *lower* means *sparser*); e.g. Longformer-4096 with a 512-wide
        window and one global token has sparsity ≈ 0.125.
        """
        return self.nnz() / float(self._n) ** 2

    def flops(self, head_dim: int, heads: int = 1) -> int:
        """Multiply-accumulate count for one attention computation.

        Each (query, key) pair costs ``head_dim`` MACs in :math:`QK^T` and
        ``head_dim`` MACs in :math:`S'V`.
        """
        return 2 * self.nnz() * int(head_dim) * int(heads)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AttentionPattern):
            return NotImplemented
        if self._n != other._n:
            return False
        return all(
            np.array_equal(self.row_keys(i), other.row_keys(i)) for i in range(self._n)
        )

    def __hash__(self) -> int:  # patterns are mutable-free but equality is deep
        return hash((type(self).__name__, self._n))


def merge_key_arrays(arrays: Iterable[np.ndarray]) -> np.ndarray:
    """Sorted union of several key-index arrays."""
    stacked = np.concatenate([np.asarray(a, dtype=np.int64) for a in arrays] or [np.empty(0, np.int64)])
    return np.unique(stacked)
