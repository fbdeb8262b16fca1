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
:meth:`Datapath.supports_exact_gemm` (stage-1/5 sums exact in float64),
:attr:`Datapath.prob_bounded` (no normalised weight saturates the
probability format) and :meth:`Datapath.stage5_bounded` (no stage-5
output over ``n`` keys saturates the output format).  The ``*_into``
variants below serve only plans that passed all three, so they assume a
quantised datapath and skip the saturation passes the proofs make
identities.
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
        bound = 1.0 if self._recip_unit is None else self._recip_unit.product_bound()
        pf = self.prob_format
        self.prob_bounded: bool = pf is None or bound * (1 << pf.frac_bits) <= pf.max_code

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
    # performs the same elementwise operation as its namesake above,
    # writing through ``out`` (which may alias the input).
    def quantize_input_into(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        return self.input_format.quantize_into(x, out)

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
        return self.prob_format.quantize_into(p, out, saturate=False)

    def quantize_output_into(self, o: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Quantise stage-5 outputs, which :meth:`stage5_bounded` proves in range."""
        return self.output_format.quantize_into(o, out, saturate=False)

    # ------------------------------------------------------------------
    def supports_exact_gemm(self, head_dim: int, max_cols: int) -> bool:
        """True when stage-1/5 dot products are *exact* in float64.

        On a quantised datapath every operand is an integer multiple of a
        fixed power of two, so any partial sum of a dot product is an
        integer in those units; as long as the largest possible partial
        fits in the 53-bit double mantissa, no summation order ever
        rounds, and a BLAS ``matmul`` (arbitrary order, FMA or not) is
        bit-identical to the reference path's ordered einsum.

        * stage 1 (``q @ k``): ``2 * (input_bits - 1)`` bits per product
          plus ``ceil(log2 head_dim)`` for the sum;
        * stage 5 (``S' @ v``): probability codes are unsigned
          ``output_bits`` wide, value codes ``input_bits - 1``, plus
          ``ceil(log2 max_cols)`` for the sum (zero padding in the
          scattered rectangle adds exactly nothing).

        Exact (unquantised) datapaths get ``False`` — arbitrary floats
        make summation order observable, so those run the reference path.
        """
        if self.input_format is None or self.prob_format is None or self.output_format is None:
            return False
        cols = max(1, int(max_cols))
        dim = max(1, int(head_dim))
        log2 = lambda v: int(np.ceil(np.log2(v))) if v > 1 else 0  # noqa: E731
        stage1 = 2 * (self.input_format.total_bits - 1) + log2(dim)
        stage5 = (
            self.prob_format.total_bits + (self.input_format.total_bits - 1) + log2(cols)
        )
        return stage1 <= 53 and stage5 <= 53

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
