"""Hardware configuration of the SALO spatial accelerator (Table 1).

:class:`HardwareConfig` carries both the *architectural* parameters the
data scheduler needs (PE array geometry, global PE rows/columns) and the
*microarchitectural* parameters the timing, energy and synthesis models
need (stage latencies, buffer sizes, clock, bit widths).  The defaults
reproduce the synthesised configuration of Table 1: a 32 x 32 PE array,
one global PE row, one global PE column, a 33-entry weighted-sum module,
16/32/32/32 KB Q/K/V/output buffers, 1 GHz.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Tuple

__all__ = ["HardwareConfig", "NumericsConfig", "ConfigError"]


class ConfigError(ValueError):
    """Raised when a hardware configuration is inconsistent."""


@dataclass(frozen=True)
class NumericsConfig:
    """Arithmetic behaviour of the PE datapath.

    The paper quantises Q, K and V to 8-bit fixed point with 4 fractional
    bits (Section 6.4) and produces 16-bit outputs; the exponential is a
    piece-wise linear approximation driven by slope/intercept LUTs
    (Softermax), and the reciprocal for the softmax denominator is a
    shift-normalise + LUT unit (Figure 5).

    ``quantize=False`` with ``exp_mode='exact'`` turns the datapath into an
    exact float engine — used by tests to isolate scheduling errors from
    arithmetic error.
    """

    quantize: bool = True
    input_bits: int = 8
    input_frac_bits: int = 4
    output_bits: int = 16
    output_frac_bits: int = 8
    acc_bits: int = 32
    exp_mode: str = "pwl"  # 'pwl' (LUT-driven piecewise linear) or 'exact'
    exp_lut_segments: int = 32
    exp_input_lo: float = -16.0
    exp_input_hi: float = 5.0
    exp_frac_bits: int = 8
    recip_lut_bits: int = 7
    recip_mode: str = "lut"  # 'lut' (shift-normalise + LUT) or 'exact'
    prob_frac_bits: int = 15

    def __post_init__(self) -> None:
        if self.exp_mode not in ("pwl", "exact"):
            raise ConfigError(f"exp_mode must be 'pwl' or 'exact', got {self.exp_mode!r}")
        if self.recip_mode not in ("lut", "exact"):
            raise ConfigError(f"recip_mode must be 'lut' or 'exact', got {self.recip_mode!r}")
        if self.exp_input_hi <= self.exp_input_lo:
            raise ConfigError("exp input range is empty")
        if self.exp_lut_segments < 2:
            raise ConfigError("need at least 2 PWL segments")
        for name in ("input_bits", "output_bits", "acc_bits"):
            if getattr(self, name) < 2:
                raise ConfigError(f"{name} must be >= 2")

    @classmethod
    def exact(cls) -> "NumericsConfig":
        """Exact float datapath (no quantisation, exact exp/reciprocal)."""
        return cls(quantize=False, exp_mode="exact", recip_mode="exact")


@dataclass(frozen=True)
class HardwareConfig:
    """SALO accelerator instance.

    Attributes
    ----------
    pe_rows, pe_cols:
        PE array geometry; rows host queries, columns host window offsets.
    global_rows, global_cols:
        Number of global PE rows (global-token queries) and columns
        (global-token keys) attached to the array.
    frequency_hz:
        Clock frequency for cycle → time conversion.
    *_buffer_bytes:
        On-chip SRAM sizes (Table 1).
    stage2_exp_cycles, stage3_inv_cycles, stage3_bcast_cycles,
    weighted_sum_latency:
        Fixed per-pass latencies of the non-systolic stages of the 5-stage
        datapath (Figure 6).
    pack_bands:
        Scheduler optimisation: allow one tile pass to host several narrow
        band segments side by side (raises PE utilisation on multi-band
        patterns such as ViL's 15 x 15 window; see DESIGN.md A1/A5).
    """

    pe_rows: int = 32
    pe_cols: int = 32
    global_rows: int = 1
    global_cols: int = 1
    frequency_hz: float = 1.0e9
    query_buffer_bytes: int = 16 * 1024
    key_buffer_bytes: int = 32 * 1024
    value_buffer_bytes: int = 32 * 1024
    output_buffer_bytes: int = 32 * 1024
    stage2_exp_cycles: int = 2
    stage3_inv_cycles: int = 4
    stage3_bcast_cycles: int = 1
    weighted_sum_latency: int = 2
    pack_bands: bool = True
    numerics: NumericsConfig = field(default_factory=NumericsConfig)

    def __post_init__(self) -> None:
        if self.pe_rows < 1 or self.pe_cols < 1:
            raise ConfigError("PE array must be at least 1x1")
        if self.global_rows < 0 or self.global_cols < 0:
            raise ConfigError("global PE counts must be >= 0")
        if self.frequency_hz <= 0:
            raise ConfigError("frequency must be positive")
        for name in (
            "query_buffer_bytes",
            "key_buffer_bytes",
            "value_buffer_bytes",
            "output_buffer_bytes",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")

    def __hash__(self) -> int:
        # Every plan-cache lookup hashes its config: hash the fields once.
        # The value stays in this process (__getstate__ leaves it out): the
        # hash of NumericsConfig's strings differs from process to process.
        try:
            return self.__dict__["_hash"]
        except KeyError:
            value = hash(tuple(getattr(self, f.name) for f in fields(self)))
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self) -> dict:
        return {name: value for name, value in self.__dict__.items() if name != "_hash"}

    # ------------------------------------------------------------------
    @property
    def num_pes(self) -> int:
        """PEs in the main array (excluding global row/column)."""
        return self.pe_rows * self.pe_cols

    @property
    def num_global_pes(self) -> int:
        return self.global_rows * self.pe_cols + self.global_cols * self.pe_rows

    @property
    def total_pes(self) -> int:
        return self.num_pes + self.num_global_pes

    @property
    def weighted_sum_entries(self) -> int:
        """Weighted-sum module lanes: one per PE row plus global rows.

        Table 1 lists 33 for the default 32 x 32 + 1 global row
        configuration.
        """
        return self.pe_rows + self.global_rows

    def cycle_time_s(self) -> float:
        return 1.0 / self.frequency_hz

    def with_numerics(self, numerics: NumericsConfig) -> "HardwareConfig":
        return replace(self, numerics=numerics)

    def exact(self) -> "HardwareConfig":
        """Copy of this config with an exact float datapath."""
        return self.with_numerics(NumericsConfig.exact())

    def max_global_tokens(self, n: int, window: int) -> int:
        """Paper Section 5.2: bound on global tokens per row/column.

        A single global PE row/column supports up to
        ``min(ceil(n / pe_rows), ceil(w / pe_cols))`` global tokens because
        data splitting streams every input vector through the array that
        many times.
        """
        import math

        per_row = math.ceil(n / self.pe_rows)
        per_col = math.ceil(max(1, window) / self.pe_cols)
        bound = min(per_row, per_col)
        # A global token needs both a row slot and a column slot.
        return bound * min(self.global_rows, self.global_cols)
