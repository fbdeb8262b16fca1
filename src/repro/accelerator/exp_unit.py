"""Piece-wise linear exponential unit (paper Section 5.1, stage 2).

SALO follows Softermax: the exponential of the attention score is
approximated with a piece-wise linear function evaluated on the PE's MAC
unit, with two lookup tables holding the slope and y-intercept of each
segment.

Two styles are modelled:

* ``pow2`` (default, the Softermax approach): range reduction through the
  identity ``exp(x) = 2^(x·log2 e) = 2^i · 2^f`` with ``i = floor(t)`` and
  ``f = t - i ∈ [0, 1)``.  The LUTs linearise ``2^f`` over a single
  octave, where slopes (``[ln2, 2·ln2]``) and intercepts (``[0, 1]``) are
  small and uniformly representable, and the ``2^i`` factor is a pure
  shift — the ``Shift`` box of Figure 5.  The approximation is monotone
  and its relative error is uniform across the clamp range.
* ``direct``: uniform chords of ``exp`` straight over the clamp range —
  simpler control logic but orders of magnitude worse at the range edges;
  kept for the A4 ablation.

Inputs are clamped to ``[lo, hi]``; scores below ``lo`` contribute ≈0 and
scores above ``hi`` saturate, so the range must be sized to the calibrated
score distribution, exactly as on the real chip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..core.config import NumericsConfig
from .fixed_point import FixedPointFormat

__all__ = ["PWLExpUnit", "max_pwl_error", "max_pwl_relative_error"]

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
    style:
        ``'pow2'`` (octave range reduction + shift) or ``'direct'``
        (uniform chords over ``[lo, hi]``).
    """

    segments: int
    lo: float
    hi: float
    coeff_format: FixedPointFormat
    out_format: FixedPointFormat
    style: str = "pow2"
    slopes: np.ndarray = field(init=False, repr=False)
    intercepts: np.ndarray = field(init=False, repr=False)
    _scratch: Optional[tuple] = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        if self.segments < 2:
            raise ValueError("need at least 2 segments")
        if self.hi <= self.lo:
            raise ValueError("empty input range")
        if self.style not in ("pow2", "direct"):
            raise ValueError(f"style must be 'pow2' or 'direct', got {self.style!r}")
        if self.style == "pow2":
            edges = np.linspace(0.0, 1.0, self.segments + 1)
            y0, y1 = 2.0**edges[:-1], 2.0**edges[1:]
        else:
            edges = np.linspace(self.lo, self.hi, self.segments + 1)
            y0, y1 = np.exp(edges[:-1]), np.exp(edges[1:])
        x0, x1 = edges[:-1], edges[1:]
        slopes = (y1 - y0) / (x1 - x0)
        intercepts = y0 - slopes * x0
        self.slopes = self.coeff_format.quantize(slopes)
        self.intercepts = self.coeff_format.quantize(intercepts)
        # Identity-pass facts, proven once from the quantised tables so
        # the hot path can skip provably no-op passes (see ``into``):
        # with all-nonneg tables and a nonneg multiplier (pow2's
        # ``f in [0, 1)``; direct's ``s`` can be negative) the 0-floor
        # is a no-op, and when the largest reachable output code fits
        # the format the saturation clip is one too.
        self._nonneg = self.style == "pow2" and bool(
            (self.slopes >= 0).all() and (self.intercepts >= 0).all()
        )
        self._sat_free = False
        if self.style == "pow2":
            peak = float(np.max(self.slopes + self.intercepts))
            imax = int(np.floor(self.hi * _LOG2E)) + 1
            bound = np.ldexp(peak, imax)
            of = self.out_format
            self._sat_free = (
                self._nonneg
                and bound * (1 << of.frac_bits) <= of.max_code
            )

    @classmethod
    def from_numerics(cls, numerics: NumericsConfig) -> "PWLExpUnit":
        """Build the unit described by a :class:`NumericsConfig`."""
        style = getattr(numerics, "exp_pwl_style", "pow2")
        if style == "pow2":
            # Octave coefficients live in [0, 1.4]; use deep fractions.
            coeff = FixedPointFormat(numerics.output_bits, numerics.output_bits - 2, signed=True)
        else:
            # Direct chords need integer range up to ~exp(hi)·|lo|.
            coeff = FixedPointFormat(
                numerics.output_bits, numerics.exp_coeff_frac_bits, signed=True
            )
        out = FixedPointFormat(numerics.output_bits, numerics.exp_frac_bits, signed=False)
        return cls(
            segments=numerics.exp_lut_segments,
            lo=numerics.exp_input_lo,
            hi=numerics.exp_input_hi,
            coeff_format=coeff,
            out_format=out,
            style=style,
        )

    # ------------------------------------------------------------------
    def segment_index(self, s: np.ndarray) -> np.ndarray:
        """LUT index for each (clamped) input."""
        s = np.clip(np.asarray(s, dtype=np.float64), self.lo, self.hi)
        if self.style == "pow2":
            t = s * _LOG2E
            frac = t - np.floor(t)
            idx = np.floor(frac * self.segments).astype(np.int64)
        else:
            width = (self.hi - self.lo) / self.segments
            idx = np.floor((s - self.lo) / width).astype(np.int64)
        return np.clip(idx, 0, self.segments - 1)

    def __call__(self, s: np.ndarray) -> np.ndarray:
        """Approximate ``exp(s)`` with quantised PWL arithmetic."""
        s = np.clip(np.asarray(s, dtype=np.float64), self.lo, self.hi)
        if self.style == "pow2":
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
        else:
            idx = self.segment_index(s)
            y = self.slopes[idx] * s + self.intercepts[idx]
        return self.out_format.quantize(np.maximum(y, 0.0))

    def into(self, s: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Allocation-free :meth:`__call__` (once the scratch has grown).

        Evaluates the PWL exponential elementwise through ``out`` and
        one flat internal scratch set, sized by the largest request so
        far and handed out as reshaped views; ``s`` may alias ``out``.
        Every operation is the same elementwise op as in
        :meth:`__call__`, so the result is bit-identical.  Not
        thread-safe (the scratch is shared per unit instance, like the
        engine that owns it).
        """
        if self._scratch is None or self._scratch[0].size < s.size:
            self._scratch = (
                np.empty(s.size, dtype=np.float64),  # t (then f)
                np.empty(s.size, dtype=np.float64),  # i / chord product
                np.empty(s.size, dtype=np.int64),  # LUT index
                np.empty(s.size, dtype=np.int32),  # shift exponent
                np.empty(s.size, dtype=np.float64),  # intercept lookup
            )
        t, i, idx, i32, lut = (a[: s.size].reshape(s.shape) for a in self._scratch)
        np.clip(s, self.lo, self.hi, out=t)
        if self.style == "pow2":
            np.multiply(t, _LOG2E, out=t)
            np.floor(t, out=i)
            np.subtract(t, i, out=t)  # t = f in [0, 1)
            np.multiply(t, self.segments, out=lut)
            # The index clip of __call__ is an identity here: f < 1
            # strictly (even at 1 - ulp, f * segments rounds below
            # segments), so the truncating cast already lands the index
            # in [0, segments - 1]; NaN casts to INT64_MIN, which the
            # clip-mode takes send to 0 exactly like the explicit clip.
            np.copyto(idx, lut, casting="unsafe")  # C cast == .astype(int64)
            np.take(self.slopes, idx, out=out, mode="clip")
            np.multiply(out, t, out=out)
            np.take(self.intercepts, idx, out=lut, mode="clip")
            np.add(out, lut, out=out)
            np.copyto(i32, i, casting="unsafe")
            np.ldexp(out, i32, out=out)
        else:
            width = (self.hi - self.lo) / self.segments
            np.subtract(t, self.lo, out=i)
            np.divide(i, width, out=i)
            np.floor(i, out=i)
            np.copyto(idx, i, casting="unsafe")
            np.clip(idx, 0, self.segments - 1, out=idx)
            np.take(self.slopes, idx, out=out, mode="clip")
            np.multiply(out, t, out=out)
            np.take(self.intercepts, idx, out=lut, mode="clip")
            np.add(out, lut, out=out)
        if not self._nonneg:
            np.maximum(out, 0.0, out=out)
        return self.out_format.quantize_into(out, out, saturate=not self._sat_free)

    def lut_size_bits(self) -> int:
        """Total LUT storage (two tables of ``segments`` coefficients)."""
        return 2 * self.segments * self.coeff_format.total_bits


def max_pwl_error(unit: PWLExpUnit, samples: int = 4096) -> float:
    """Maximum absolute error of the unit against ``exp`` over its range."""
    xs = np.linspace(unit.lo, unit.hi, samples)
    return float(np.max(np.abs(unit(xs) - np.exp(xs))))


def max_pwl_relative_error(
    unit: PWLExpUnit, lo: float = -4.0, hi: float = None, samples: int = 4096
) -> float:
    """Maximum relative error over the softmax-dominant score range."""
    hi = unit.hi if hi is None else hi
    xs = np.linspace(lo, hi, samples)
    ref = np.exp(xs)
    return float(np.max(np.abs(unit(xs) - ref) / ref))
