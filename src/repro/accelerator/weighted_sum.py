"""Weighted-sum module: split-window renormalisation (Sections 4.2 & 5.3).

Window splitting divides a query's window across several passes; each pass
``k`` yields a locally-normalised output ``output_i^k`` and the weight
``W_k = sum_{j in T_k} exp(S_ij)``.  The weighted-sum module merges a new
partial output into the running one with

    ``output = W1/(W1+W2) * output^1 + W2/(W1+W2) * output^2``      (Eq. 2)

using two multipliers and an adder per PE row.  The normalised weights are
produced with the same reciprocal unit as the softmax denominator; the
complementary weight is formed as ``1 - a`` so the pair always sums to one
even after quantisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .arena import ARENA
from .datapath import Datapath

__all__ = ["WeightedSumModule"]


@dataclass
class WeightedSumModule:
    """Hardware-faithful pairwise merge of partial attention outputs."""

    datapath: Datapath

    def merge(
        self,
        out1: np.ndarray,
        w1: np.ndarray,
        out2: np.ndarray,
        w2: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Merge ``(out1, w1)`` with ``(out2, w2)``; returns ``(out, w1+w2)``.

        ``out*`` have shape ``(rows, d)``; ``w*`` shape ``(rows,)``.  The
        merge is associative up to quantisation error, so any number of
        window splits can be chained (Appendix A).
        """
        w1 = np.asarray(w1, dtype=np.float64)
        w2 = np.asarray(w2, dtype=np.float64)
        total = w1 + w2
        if np.any(total <= 0):
            raise ValueError("merge weights must be positive")
        a1 = self.datapath.quantize_prob(w1 * self.datapath.recip(total))
        a1 = np.clip(a1, 0.0, 1.0)
        a2 = 1.0 - a1
        merged = self.datapath.quantize_output(
            a1[..., None] * np.asarray(out1) + a2[..., None] * np.asarray(out2)
        )
        return merged, total

    def coefficients_into(
        self, w1: np.ndarray, total: np.ndarray, a1: np.ndarray, a2: np.ndarray
    ) -> None:
        """Eq. 2's coefficient half: ``a1 = W1/(W1+W2)``, ``a2 = 1 - a1``.

        Elementwise over any shape: ``w1`` is the running weight and
        ``total`` the summed one (``w1 + w2``, strictly positive: the
        caller's contract); ``a1`` goes through the reciprocal unit and
        the probability quantiser and is clipped to ``[0, 1]``, exactly as
        in :meth:`merge`.  ``a1`` / ``a2`` must not alias the inputs.
        """
        dp = self.datapath
        dp.recip_into(total, a1)
        np.multiply(a1, w1, out=a1)
        dp.quantize_prob_into(a1, a1)
        np.clip(a1, 0.0, 1.0, out=a1)
        np.subtract(1.0, a1, out=a2)

    @staticmethod
    def output_into(out1: np.ndarray, a1: np.ndarray, weighted: np.ndarray) -> None:
        """Eq. 2's output half on codes: ``out1 = rint(out1 * a1 + weighted)``.

        ``weighted`` is the second part already scaled by its ``a2``
        (``w*`` broadcast over the trailing feature axis of ``out*``).
        Codes differ from values by the power of two 2^k of the output
        format, and scaling by an exact power of two commutes with fp
        rounding (no over/underflow at these magnitudes), so the result
        is the codes of quantising the value combination.  No saturation
        pass: a convex combination of in-range codes stays in range.
        """
        np.multiply(out1, a1[..., None], out=out1)
        np.add(out1, weighted, out=out1)
        np.rint(out1, out=out1)

    def merge_into(
        self,
        out1: np.ndarray,
        w1: np.ndarray,
        out2: np.ndarray,
        w2: np.ndarray,
    ) -> None:
        """In-place Eq. 2 merge of ``(out2, w2)`` into the running pair, in
        output codes; the part ``out2`` is consumed.

        ``out1`` / ``out2`` hold output-format *codes* (float64): the
        merged codes are elementwise-identical to those of :meth:`merge`
        on the values ``codes * resolution`` for any array shapes (``w*``
        broadcast over a trailing feature axis of ``out*``).  Writes the
        merged codes into ``out1`` and the summed weight into ``w1``, and
        scales ``out2`` in place: the production path's parts are arena
        scratch, dead once merged.  It is the two halves,
        :meth:`coefficients_into` then :meth:`output_into`; its three
        row-sized temporaries are views of the process arena
        (:mod:`repro.accelerator.arena`).  A strictly positive ``w1 + w2``
        is the caller's contract (every part of the production path
        carries a positive weight on every row, see ``_band_epilogue``),
        and so is a quantised datapath: only the production path calls
        this, and its gate admits no other
        (``FunctionalEngine._supports_tiled``).  One call at a time per
        process: the engine holds the arena's lock around a run.
        """
        total = ARENA.buf("merge_total", w1.shape)
        a1 = ARENA.buf("merge_a1", w1.shape)
        a2 = ARENA.buf("merge_a2", w1.shape)
        np.add(w1, w2, out=total)
        self.coefficients_into(w1, total, a1, a2)
        np.multiply(out2, a2[..., None], out=out2)
        self.output_into(out1, a1, out2)
        np.copyto(w1, total)
