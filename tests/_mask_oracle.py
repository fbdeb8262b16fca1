"""Dense-mask oracles for the structured patterns.

Each builds a pattern component's ``(n, n)`` boolean mask directly from
its definition, so a structured pattern's ``mask()`` can be checked
against an independent union of its parts, or against its own rows
(:func:`row_mask`).
"""

from typing import Sequence

import numpy as np


def band_mask(n: int, band) -> np.ndarray:
    """Dense mask of a single band on a length-``n`` sequence."""
    m = np.zeros((n, n), dtype=bool)
    for i in range(n):
        m[i, band.keys_for(i, n)] = True
    return m


def global_mask(n: int, tokens: Sequence[int]) -> np.ndarray:
    """Dense mask of global rows + columns."""
    m = np.zeros((n, n), dtype=bool)
    toks = list(tokens)
    m[toks, :] = True
    m[:, toks] = True
    return m


def row_mask(pattern) -> np.ndarray:
    """Dense mask of any pattern, one :meth:`row_keys` call per row.

    The per-row loop ``AttentionPattern.mask`` ran before it built
    structured masks from their bands; kept as the oracle for that.
    """
    n = pattern.n
    m = np.zeros((n, n), dtype=bool)
    for i in range(n):
        m[i, pattern.row_keys(i)] = True
    return m
