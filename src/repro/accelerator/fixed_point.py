"""Fixed-point arithmetic for the SALO datapath (paper Section 6.4).

SALO quantises Q, K and V to 8-bit fixed point with 4 fractional bits and
produces 16-bit outputs.  A value is the integer code ``i`` of its format
times ``2**-frac_bits``.  The reference model (:meth:`FixedPointFormat.quantize`)
holds values as float64 arrays of exact multiples of ``2**-frac_bits``;
the production engine carries the codes themselves (:meth:`codes_into`)
— in float32 through its GEMMs, where the datapath's 24-bit proof
(``Datapath.supports_exact_gemm``) makes every product and sum exact,
and in float64 elsewhere — and applies the resolution once, to its
output.  Either way the representation is bit-faithful while staying
fully vectorised.

Rounding is round-half-to-even (``np.rint``), saturation clips to the
format's representable range; both behaviours are what a synthesised
rounding/saturating quantiser produces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FixedPointFormat", "FixedPointError"]


class FixedPointError(ValueError):
    """Raised for invalid fixed-point format specifications."""


@dataclass(frozen=True)
class FixedPointFormat:
    """A two's-complement (or unsigned) fixed-point format.

    ``total_bits`` includes the sign bit for signed formats.  The value of
    the integer code ``i`` is ``i * 2**-frac_bits``.
    """

    total_bits: int
    frac_bits: int
    signed: bool = True

    def __post_init__(self) -> None:
        if self.total_bits < 1:
            raise FixedPointError(f"total_bits must be >= 1, got {self.total_bits}")
        if self.frac_bits < 0:
            raise FixedPointError(f"frac_bits must be >= 0, got {self.frac_bits}")
        if self.signed and self.total_bits < 2:
            raise FixedPointError("signed formats need at least 2 bits")

    # ------------------------------------------------------------------
    @property
    def resolution(self) -> float:
        """Value of one least-significant bit."""
        return 2.0 ** -self.frac_bits

    @property
    def max_code(self) -> int:
        return (1 << (self.total_bits - 1)) - 1 if self.signed else (1 << self.total_bits) - 1

    @property
    def min_code(self) -> int:
        return -(1 << (self.total_bits - 1)) if self.signed else 0

    @property
    def max_value(self) -> float:
        return self.max_code * self.resolution

    @property
    def min_value(self) -> float:
        return self.min_code * self.resolution

    # ------------------------------------------------------------------
    def quantize(self, x: np.ndarray) -> np.ndarray:
        """Round ``x`` to the nearest representable value, saturating."""
        codes = np.rint(np.asarray(x, dtype=np.float64) * (1 << self.frac_bits))
        codes = np.clip(codes, self.min_code, self.max_code)
        return codes * self.resolution

    def codes_into(
        self, x: np.ndarray, out: np.ndarray, saturate: bool = True
    ) -> np.ndarray:
        """Allocation-free integer codes of :meth:`quantize` as floats.

        The scale / round-half-even / saturate steps of :meth:`quantize`
        without its final rescale, written through ``out`` (which may
        alias ``x``), so ``codes * resolution`` is bit-identical to
        :meth:`quantize`.  ``saturate=False`` skips the clip pass — only
        valid when the caller proves every input already lies inside the
        representable range (``rint`` of an in-range scaled value is
        in-range, so the clip is the identity).
        """
        np.multiply(x, float(1 << self.frac_bits), out=out)
        np.rint(out, out=out)
        if saturate:
            np.clip(out, self.min_code, self.max_code, out=out)
        return out

    def to_codes(self, values: np.ndarray) -> np.ndarray:
        """Integer codes of already-quantised values."""
        codes = np.rint(np.asarray(values, dtype=np.float64) * (1 << self.frac_bits))
        if np.any(codes > self.max_code) or np.any(codes < self.min_code):
            raise FixedPointError("values out of range for this format")
        return codes.astype(np.int64)

    def from_codes(self, codes: np.ndarray) -> np.ndarray:
        """Values of integer codes."""
        codes = np.asarray(codes, dtype=np.int64)
        if np.any(codes > self.max_code) or np.any(codes < self.min_code):
            raise FixedPointError("codes out of range for this format")
        return codes.astype(np.float64) * self.resolution

    def is_representable(self, values: np.ndarray) -> np.ndarray:
        """Boolean mask of values exactly representable in this format."""
        v = np.asarray(values, dtype=np.float64)
        scaled = v * (1 << self.frac_bits)
        return (
            (scaled == np.rint(scaled))
            & (v <= self.max_value)
            & (v >= self.min_value)
        )

    def quantization_error_bound(self) -> float:
        """Worst-case rounding error (half an LSB), ignoring saturation."""
        return 0.5 * self.resolution

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sign = "s" if self.signed else "u"
        return f"Q{sign}{self.total_bits - self.frac_bits}.{self.frac_bits}"
