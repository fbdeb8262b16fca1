"""Piece-wise linear exponential unit (paper Section 5.1, stage 2).

SALO follows Softermax: the exponential of the attention score is
approximated with a piece-wise linear function evaluated on the PE's MAC
unit, with two lookup tables holding the slope and y-intercept of each
segment.

Range reduction goes through the identity ``exp(x) = 2^(x·log2 e) =
2^i · 2^f`` with ``i = floor(t)`` and ``f = t - i ∈ [0, 1)``.  The LUTs
linearise ``2^f`` over a single octave, where slopes (``[ln2, 2·ln2]``)
and intercepts (``[0, 1]``) are small and uniformly representable, and
the ``2^i`` factor is a pure shift — the ``Shift`` box of Figure 5.  The
approximation is monotone and its relative error is uniform across the
clamp range.

The unit has one evaluation, :meth:`PWLExpUnit.__call__`.  The
production engine reads it through a score-code table built from it
(``functional._exp_code_table``) and calls it directly at the scales no
table covers, so there is no second, in-place implementation to keep
bit-identical.

Inputs are clamped to ``[lo, hi]``; scores below ``lo`` contribute ≈0 and
scores above ``hi`` saturate, so the range must be sized to the calibrated
score distribution, exactly as on the real chip.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.config import NumericsConfig
from .fixed_point import FixedPointFormat

__all__ = ["PWLExpUnit", "max_pwl_error"]

_LOG2E = np.log2(np.e)


@dataclass
class PWLExpUnit:
    """LUT-driven piece-wise linear approximation of ``exp``.

    Parameters
    ----------
    segments:
        Number of PWL segments (LUT entries per table).
    lo, hi:
        Input clamp range.
    coeff_format:
        Quantisation of the slope/intercept tables.
    out_format:
        Quantisation of the exponential output.
    """

    segments: int
    lo: float
    hi: float
    coeff_format: FixedPointFormat
    out_format: FixedPointFormat
    slopes: np.ndarray = field(init=False, repr=False)
    intercepts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.segments < 2:
            raise ValueError("need at least 2 segments")
        if self.hi <= self.lo:
            raise ValueError("empty input range")
        edges = np.linspace(0.0, 1.0, self.segments + 1)
        x0, x1 = edges[:-1], edges[1:]
        y0, y1 = 2.0**x0, 2.0**x1
        slopes = (y1 - y0) / (x1 - x0)
        intercepts = y0 - slopes * x0
        self.slopes = self.coeff_format.quantize(slopes)
        self.intercepts = self.coeff_format.quantize(intercepts)

    @classmethod
    def from_numerics(cls, numerics: NumericsConfig) -> "PWLExpUnit":
        """Build the unit described by a :class:`NumericsConfig`."""
        # Octave coefficients live in [0, 1.4]; use deep fractions.
        coeff = FixedPointFormat(numerics.output_bits, numerics.output_bits - 2, signed=True)
        out = FixedPointFormat(numerics.output_bits, numerics.exp_frac_bits, signed=False)
        return cls(
            segments=numerics.exp_lut_segments,
            lo=numerics.exp_input_lo,
            hi=numerics.exp_input_hi,
            coeff_format=coeff,
            out_format=out,
        )

    # ------------------------------------------------------------------
    def segment_index(self, s: np.ndarray) -> np.ndarray:
        """LUT index for each (clamped) input."""
        s = np.clip(np.asarray(s, dtype=np.float64), self.lo, self.hi)
        t = s * _LOG2E
        frac = t - np.floor(t)
        idx = np.floor(frac * self.segments).astype(np.int64)
        return np.clip(idx, 0, self.segments - 1)

    def __call__(self, s: np.ndarray) -> np.ndarray:
        """Approximate ``exp(s)`` with quantised PWL arithmetic."""
        s = np.clip(np.asarray(s, dtype=np.float64), self.lo, self.hi)
        t = s * _LOG2E
        i = np.floor(t)
        f = t - i
        idx = np.clip((f * self.segments).astype(np.int64), 0, self.segments - 1)
        y = self.slopes[idx] * f + self.intercepts[idx]
        # ldexp is the Shift box of Figure 5: an exact scale by 2^i,
        # bit-identical to multiplying by np.power(2.0, i) but without
        # the transcendental pow call.  int32: ldexp has no int64
        # loop on LLP64 platforms, and |i| is tiny (s is clamped).
        y = np.ldexp(y, i.astype(np.int32))
        return self.out_format.quantize(np.maximum(y, 0.0))

    def lut_size_bits(self) -> int:
        """Total LUT storage (two tables of ``segments`` coefficients)."""
        return 2 * self.segments * self.coeff_format.total_bits


def max_pwl_error(unit: PWLExpUnit, samples: int = 4096) -> float:
    """Maximum absolute error of the unit against ``exp`` over its range."""
    xs = np.linspace(unit.lo, unit.hi, samples)
    return float(np.max(np.abs(unit(xs) - np.exp(xs))))
