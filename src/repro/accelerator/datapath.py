"""Shared numeric datapath of the PE (quantisers + exp + reciprocal).

Both execution engines (the vectorised functional engine and the
cycle-accurate micro-simulator) evaluate attention with exactly the same
arithmetic, bundled here so they stay bit-identical by construction.  The
datapath is configured by :class:`NumericsConfig`; the ``exact()`` variant
replaces every quantiser with the identity and the approximate units with
exact math, which tests use to separate scheduling error (must be ~0) from
arithmetic error (bounded, characterised).

The datapath also holds the three proofs the functional engine's one
gate reads (``FunctionalEngine._supports_tiled``), each a fact of the
numerics decided once, not a per-call test:
:meth:`Datapath.supports_exact_gemm` (stage-1/5 GEMMs over integer codes
exact in float32, whose significand holds every integer up to 2^24),
:attr:`Datapath.prob_bounded` (no normalised weight saturates the
probability format) and :meth:`Datapath.stage5_bounded` (no stage-5
output over ``n`` keys saturates the output format).  The ``*_into``
variants below serve only plans that passed all three, so they assume a
quantised datapath, work on integer codes where the production path
does (operands, stage-5 outputs) and skip the saturation passes the
proofs make identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.config import NumericsConfig
from .exp_unit import PWLExpUnit
from .fixed_point import FixedPointFormat
from .recip_unit import ReciprocalUnit

__all__ = ["Datapath"]

#: Significand bits of float32: every integer of magnitude <= 2^24 is exact.
_F32_BITS = 24


class Datapath:
    """Quantisation and special-function behaviour of one PE."""

    def __init__(self, numerics: NumericsConfig) -> None:
        self.numerics = numerics
        self.input_format: Optional[FixedPointFormat] = None
        self.output_format: Optional[FixedPointFormat] = None
        self.prob_format: Optional[FixedPointFormat] = None
        if numerics.quantize:
            self.input_format = FixedPointFormat(
                numerics.input_bits, numerics.input_frac_bits, signed=True
            )
            self.output_format = FixedPointFormat(
                numerics.output_bits, numerics.output_frac_bits, signed=True
            )
            self.prob_format = FixedPointFormat(
                numerics.output_bits, numerics.prob_frac_bits, signed=False
            )
        self._exp_unit = (
            PWLExpUnit.from_numerics(numerics) if numerics.exp_mode == "pwl" else None
        )
        self._recip_unit = (
            ReciprocalUnit.from_numerics(numerics) if numerics.recip_mode == "lut" else None
        )
        # A normalised weight is ``p = e * recip(w)`` with ``0 <= e <= w``,
        # so ``p <= sup w * recip(w)``: read off the LUT, or 1.0 for the
        # exact reciprocal (``w * fl(1/w)`` rounds to at most 1).  When
        # that bound fits the probability format, ``rint(p * 2^f)`` never
        # exceeds ``max_code`` and the quantiser's saturation clip is an
        # identity on every normalised weight.
        self._weight_bound = (
            1.0 if self._recip_unit is None else self._recip_unit.product_bound()
        )
        pf = self.prob_format
        self.prob_bounded: bool = (
            pf is None or self._weight_bound * (1 << pf.frac_bits) <= pf.max_code
        )

    # ------------------------------------------------------------------
    def quantize_input(self, x: np.ndarray) -> np.ndarray:
        """Quantise Q/K/V operands (Q8.4 by default)."""
        if self.input_format is None:
            return np.asarray(x, dtype=np.float64)
        return self.input_format.quantize(x)

    def exp(self, s: np.ndarray) -> np.ndarray:
        """Stage-2 exponential."""
        if self._exp_unit is None:
            return np.exp(np.asarray(s, dtype=np.float64))
        return self._exp_unit(s)

    def recip(self, w: np.ndarray) -> np.ndarray:
        """Stage-3 reciprocal of the exponential sum."""
        if self._recip_unit is None:
            return 1.0 / np.asarray(w, dtype=np.float64)
        return self._recip_unit(w)

    def quantize_prob(self, p: np.ndarray) -> np.ndarray:
        """Stage-4 normalised attention weights (``S'``)."""
        if self.prob_format is None:
            return np.asarray(p, dtype=np.float64)
        return self.prob_format.quantize(p)

    def quantize_output(self, o: np.ndarray) -> np.ndarray:
        """Stage-5 output elements (16-bit by default)."""
        if self.output_format is None:
            return np.asarray(o, dtype=np.float64)
        return self.output_format.quantize(o)

    # ------------------------------------------------------------------
    # Allocation-free variants for the production path, which only runs
    # on datapaths the engine's gate admitted
    # (``FunctionalEngine._supports_tiled``): every format exists, and
    # :attr:`prob_bounded` and :meth:`stage5_bounded` hold, so the
    # probability and output quantisers carry no saturation pass.  Each
    # performs the same elementwise operation as its namesake above —
    # in code units where the name says so — writing through ``out``
    # (which may alias the input).
    def input_codes_into(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Codes of :meth:`quantize_input` (``out`` float64)."""
        return self.input_format.codes_into(x, out)

    def exp_into(self, s: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Elementwise stage-2 exponential, for scales no score-code table
        covers (``functional._exp_code_table``): the reference unit itself."""
        if self._exp_unit is None:
            np.exp(s, out=out)
        else:
            np.copyto(out, self._exp_unit(s))
        return out

    def recip_into(self, w: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Reciprocal without the positivity check — caller's contract."""
        if self._recip_unit is None:
            np.divide(1.0, w, out=out)
            return out
        return self._recip_unit.into(w, out)

    def quantize_prob_into(self, p: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Quantise normalised weights ``p = e * recip(w)``, ``0 <= e <= w``
        (the caller's contract), on which :attr:`prob_bounded` proves
        the saturation clip an identity."""
        pf = self.prob_format
        pf.codes_into(p, out, saturate=False)
        return np.multiply(out, pf.resolution, out=out)

    @property
    def output_shift(self) -> float:
        """The power of two taking a stage-5 sum of probability codes
        times value codes to output units; with it folded into the V
        codes, ``rint`` of a stage-5 sum gives the codes of
        :meth:`quantize_output` (in range by :meth:`stage5_bounded`)."""
        of, pf, fi = self.output_format, self.prob_format, self.input_format
        return 2.0 ** (of.frac_bits - pf.frac_bits - fi.frac_bits)

    # ------------------------------------------------------------------
    def supports_exact_gemm(self, head_dim: int, max_cols: int) -> bool:
        """True when stage-1/5 GEMMs over integer codes are *exact* in float32.

        The production path feeds its GEMMs integer codes, so any partial
        sum of a dot product is an integer; as long as the largest
        possible magnitude fits the 24-bit float32 significand (every
        integer up to ``2^24`` is exact), no summation order ever rounds,
        and a BLAS ``sgemm`` (arbitrary order, FMA or not) is
        bit-identical to the reference path's ordered float64 einsum.

        * stage 1 (``q @ k``): ``2 * (input_bits - 1)`` bits per product
          plus ``ceil(log2 head_dim)`` for the sum;
        * stage 5 (``S' @ v``): a row's probability codes sum to at most
          ``2^prob_frac * sup w * recip(w)`` before rounding plus half a
          code per column after it, over at most ``max_cols`` columns,
          each against a value code of magnitude ``<= 2^(input_bits - 1)``
          (zero padding in the scattered rectangle adds exactly nothing).
          About ``2^22`` at the default numerics.

        Exact (unquantised) datapaths get ``False`` — arbitrary floats
        make summation order observable — and so does every quantised one
        past the budget: both run the reference path.
        """
        fi, pf = self.input_format, self.prob_format
        if fi is None or pf is None or self.output_format is None:
            return False
        cols = max(1, int(max_cols))
        dim = max(1, int(head_dim))
        log2 = lambda v: int(np.ceil(np.log2(v))) if v > 1 else 0  # noqa: E731
        stage1 = 2 * (fi.total_bits - 1) + log2(dim)
        row_codes = self._weight_bound * (1 << pf.frac_bits) + cols / 2
        stage5 = row_codes * (1 << (fi.total_bits - 1))
        return stage1 <= _F32_BITS and stage5 <= 1 << _F32_BITS

    def stage5_bounded(self, n: int) -> bool:
        """True when no stage-5 output over ``n`` keys can saturate.

        Per output element ``|o| <= (sum of the row's probabilities) *
        vmax``.  Each quantised probability exceeds its pre-rounding
        value by at most half a resolution step and the pre-rounding row
        sum is ``w * recip(w) < 2`` (the shift-normalised LUT bound; an
        exact reciprocal gives 1), so with at most ``n`` columns the row
        sum is under ``2 + n * res / 2``.  When that times the largest
        operand magnitude still fits the output format, the saturation
        clip of every stage-5 quantise is an identity (at the default
        numerics: up to ``n`` = 917 k).
        """
        fi, pf, of = self.input_format, self.prob_format, self.output_format
        if fi is None or pf is None or of is None:
            return False
        vmax = max(abs(fi.min_value), fi.max_value)
        bound = (2.0 + n * pf.resolution * 0.5) * vmax
        return bound * (1 << of.frac_bits) <= of.max_code

    @property
    def exp_unit(self) -> Optional[PWLExpUnit]:
        return self._exp_unit

    @property
    def recip_unit(self) -> Optional[ReciprocalUnit]:
        return self._recip_unit
