"""Reciprocal unit for the softmax denominator (paper Section 5.1, stage 3).

Dividers are expensive, so SALO computes the inverse of the exponential sum
once per row and broadcasts it back (Figure 5 shows the ``Shift``/``Frac``
LUT structure).  The unit normalises the operand to a mantissa in
``[1, 2)`` with a leading-one detector (a shift), looks the mantissa's
reciprocal up in a small LUT, and denormalises with the opposite shift:

    ``w = m * 2^e``  →  ``1/w ≈ LUT[m] * 2^-e``.

The LUT holds midpoint reciprocals of ``2**bits`` uniform mantissa bins,
quantised to the probability format.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.config import NumericsConfig
from .arena import ARENA
from .fixed_point import FixedPointFormat

__all__ = ["ReciprocalUnit"]


@dataclass
class ReciprocalUnit:
    """Shift-normalise + LUT reciprocal approximation."""

    lut_bits: int
    mantissa_format: FixedPointFormat
    table: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.lut_bits < 1:
            raise ValueError("lut_bits must be >= 1")
        bins = 1 << self.lut_bits
        mid = 1.0 + (np.arange(bins) + 0.5) / bins
        self.table = self.mantissa_format.quantize(1.0 / mid)

    @classmethod
    def from_numerics(cls, numerics: NumericsConfig) -> "ReciprocalUnit":
        fmt = FixedPointFormat(numerics.output_bits, numerics.prob_frac_bits, signed=False)
        return cls(lut_bits=numerics.recip_lut_bits, mantissa_format=fmt)

    def __call__(self, w: np.ndarray) -> np.ndarray:
        """Approximate ``1 / w`` for strictly positive ``w``."""
        w = np.asarray(w, dtype=np.float64)
        if np.any(w <= 0):
            raise ValueError("reciprocal unit requires strictly positive inputs")
        mant, exp = np.frexp(w)  # w = mant * 2**exp, mant in [0.5, 1)
        m = mant * 2.0  # [1, 2)
        e = exp - 1
        idx = np.minimum(
            ((m - 1.0) * (1 << self.lut_bits)).astype(np.int64),
            (1 << self.lut_bits) - 1,
        )
        # Exact shift by 2^-e (the denormalise step), identical to
        # multiplying by np.power(2.0, -e) but without the pow call.
        return np.ldexp(self.table[idx], -e)

    def into(self, w: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Allocation-free :meth:`__call__` (once the arena has grown).

        Same elementwise shift-normalise / LUT / denormalise sequence as
        :meth:`__call__`, so bit-identical — but the positivity check is
        the *caller's* contract (the fused epilogue substitutes a safe
        operand into empty rows before calling).  ``w`` may alias ``out``.
        The three temporaries are views of the process arena
        (:mod:`repro.accelerator.arena`), shared by every unit instance:
        one call at a time per process (the engine holds the arena's
        lock around a run).
        """
        mant = ARENA.buf("recip_mant", w.shape)
        e = ARENA.buf("recip_exp", w.shape, np.intc)
        idx = ARENA.buf("recip_idx", w.shape, np.int64)
        np.frexp(w, mant, e)  # w = mant * 2**e, mant in [0.5, 1)
        np.multiply(mant, 2.0, out=mant)  # [1, 2)
        np.subtract(e, 1, out=e)
        np.subtract(mant, 1.0, out=mant)
        np.multiply(mant, float(1 << self.lut_bits), out=mant)
        np.copyto(idx, mant, casting="unsafe")  # C cast == .astype(int64)
        np.minimum(idx, (1 << self.lut_bits) - 1, out=idx)
        np.take(self.table, idx, out=out, mode="clip")
        np.negative(e, out=e)
        np.ldexp(out, e, out=out)
        return out

    def product_bound(self) -> float:
        """``sup_{w > 0} w * self(w)``, read off the table (never attained).

        The shifts cancel, so the product is ``m * table[i]`` for a
        mantissa ``m`` in bin ``i``, i.e. ``m < 1 + (i + 1) / bins``.
        Both factors have few bits, so each candidate is exact.
        """
        bins = 1 << self.lut_bits
        return float(np.max((1.0 + np.arange(1, bins + 1) / bins) * self.table))

    def max_relative_error(self, samples: int = 8192) -> float:
        """Worst-case relative error over one mantissa octave."""
        w = np.linspace(1.0, 2.0, samples, endpoint=False)
        approx = self(w)
        return float(np.max(np.abs(approx * w - 1.0)))
