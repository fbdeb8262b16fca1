"""Tests for the shared PE datapath (quantisers + special functions)."""

import numpy as np
import pytest

from repro.accelerator.datapath import Datapath
from repro.core.config import NumericsConfig


class TestExactMode:
    def test_identity_quantisers(self):
        dp = Datapath(NumericsConfig.exact())
        x = np.array([0.123456789])
        assert dp.quantize_input(x)[0] == x[0]
        assert dp.quantize_prob(x)[0] == x[0]
        assert dp.quantize_output(x)[0] == x[0]

    def test_exact_exp(self):
        dp = Datapath(NumericsConfig.exact())
        assert dp.exp(np.array([1.0]))[0] == pytest.approx(np.e)

    def test_exact_recip(self):
        dp = Datapath(NumericsConfig.exact())
        assert dp.recip(np.array([4.0]))[0] == 0.25

    def test_units_absent(self):
        dp = Datapath(NumericsConfig.exact())
        assert dp.exp_unit is None and dp.recip_unit is None


class TestQuantizedMode:
    def test_input_format_is_q84(self):
        dp = Datapath(NumericsConfig())
        assert dp.input_format.total_bits == 8
        assert dp.input_format.frac_bits == 4

    def test_input_quantised_to_sixteenths(self):
        dp = Datapath(NumericsConfig())
        out = dp.quantize_input(np.array([0.1, 0.9]))
        assert np.array_equal(out * 16, np.rint(out * 16))

    def test_output_is_16bit(self):
        dp = Datapath(NumericsConfig())
        assert dp.output_format.total_bits == 16

    def test_prob_in_unit_range(self):
        dp = Datapath(NumericsConfig())
        probs = dp.quantize_prob(np.array([0.3, 0.999]))
        assert (probs >= 0).all() and (probs <= 2.0).all()

    def test_pwl_exp_used(self):
        dp = Datapath(NumericsConfig())
        exact = np.exp(1.7)
        approx = dp.exp(np.array([1.7]))[0]
        assert approx != exact
        assert approx == pytest.approx(exact, rel=0.1)

    def test_lut_recip_used(self):
        dp = Datapath(NumericsConfig())
        approx = dp.recip(np.array([3.0]))[0]
        assert approx == pytest.approx(1 / 3, rel=0.01)


class TestProbBounded:
    """The saturation clip of the probability quantiser is provably an
    identity on normalised weights — or the engine takes the reference path."""

    def test_default_q1_15_holds_the_lut_bound(self):
        dp = Datapath(NumericsConfig())
        assert dp.prob_bounded
        assert dp.recip_unit.product_bound() * 2**15 <= dp.prob_format.max_code

    def test_exact_reciprocal_is_bounded_by_one(self):
        assert Datapath(NumericsConfig(recip_mode="exact")).prob_bounded

    def test_no_integer_bit_fails_the_proof(self):
        dp = Datapath(NumericsConfig(prob_frac_bits=16))
        assert not dp.prob_bounded
        # The worst normalised weight really does saturate there.
        assert dp.recip_unit.product_bound() > dp.prob_format.max_value

    @pytest.mark.parametrize("numerics", [NumericsConfig()], ids=["q1.15"])
    def test_quantize_prob_into_equals_the_saturating_quantiser(self, numerics):
        """No clip pass under the proof: same codes as the clipping quantiser."""
        dp = Datapath(numerics)
        assert dp.prob_bounded
        w = np.random.default_rng(0).uniform(0.01, 300.0, 4096)
        p = w * dp.recip(w)  # the largest weights a row can produce (e == w)
        assert np.array_equal(dp.quantize_prob_into(p, np.empty_like(p)), dp.quantize_prob(p))


class TestStage5Bounded:
    """Stage-5 outputs provably fit the output format up to a sequence
    length — or the engine takes the reference path."""

    def test_default_numerics_hold_up_to_917k_keys(self):
        dp = Datapath(NumericsConfig())
        assert dp.stage5_bounded(1) and dp.stage5_bounded(4096) and dp.stage5_bounded(917_000)
        assert not dp.stage5_bounded(918_000)

    def test_narrow_output_format_fails_at_any_length(self):
        # Q4.12 tops out below 8: two Q8.4 operands of magnitude 8 overflow it.
        assert not Datapath(NumericsConfig(output_frac_bits=12)).stage5_bounded(1)

    def test_unquantised_datapath_has_no_proof(self):
        assert not Datapath(NumericsConfig.exact()).stage5_bounded(16)

    def test_stage5_quantiser_equals_the_saturating_one_at_the_bound(self):
        """Worst row the bound admits: probability codes summing to just
        under ``2 + n * res / 2`` against operands of magnitude 8.  The
        production path's quantiser takes the float32 sum of probability
        codes times value codes carrying ``output_shift`` (the V slab's
        shift) and rounds it once to output codes."""
        dp = Datapath(NumericsConfig())
        pf, fi, of = dp.prob_format, dp.input_format, dp.output_format
        assert dp.output_shift == 2.0 ** (of.frac_bits - pf.frac_bits - fi.frac_bits)
        o = np.array([-8.0, 8.0 - 1 / 16]) * (2.0 + 4096 * pf.resolution / 2)
        acc = np.float32(o * 2.0 ** (pf.frac_bits + fi.frac_bits)) * np.float32(dp.output_shift)
        assert np.array_equal(acc, o * 2.0 ** of.frac_bits)  # exact
        codes = np.rint(acc)
        assert codes.dtype == np.float32
        assert np.array_equal(codes * of.resolution, dp.quantize_output(o))

    def test_a_shifted_stage5_gemm_is_the_shifted_exact_sum(self):
        """Rows of probability codes against value codes, in float32, with
        and without the shift: the same integer sums, scaled exactly."""
        dp = Datapath(NumericsConfig())
        rng = np.random.default_rng(0)
        probs = rng.integers(0, 1 << 10, (16, 64)).astype(np.float32)
        values = rng.integers(-128, 128, (64, 8)).astype(np.float32)
        exact = probs.astype(np.int64) @ values.astype(np.int64)
        shifted = probs @ (values * np.float32(dp.output_shift))
        assert shifted.dtype == np.float32
        assert np.array_equal(shifted, exact * dp.output_shift)


class TestSupportsExactGemm:
    """Where the 24-bit float32 proof of the stage-1/5 GEMMs flips.

    Stage 1: ``2 * 7 + ceil(log2 head_dim) <= 24`` admits head_dim up to
    1024.  Stage 5: the LUT's ``sup w * recip(w)`` is 1.003875732421875,
    so a row's probability codes sum to under ``32895 + max_cols / 2``
    and ``(32895 + c / 2) * 128 <= 2^24`` admits ``c <= 196354`` (196608
    for the exact reciprocal, whose bound is 1).
    """

    def test_head_dim_flips_past_1024(self):
        dp = Datapath(NumericsConfig())
        assert dp.supports_exact_gemm(1024, 1024)
        assert not dp.supports_exact_gemm(1025, 1024)

    @pytest.mark.parametrize(
        "numerics,last", [(NumericsConfig(), 196354), (NumericsConfig(recip_mode="exact"), 196608)],
        ids=["lut", "exact-recip"],
    )
    def test_max_cols_flips_at_the_row_code_bound(self, numerics, last):
        dp = Datapath(numerics)
        assert dp.supports_exact_gemm(64, last)
        assert not dp.supports_exact_gemm(64, last + 1)

    def test_default_stage5_is_about_22_bits(self):
        dp = Datapath(NumericsConfig())
        assert dp.recip_unit.product_bound() * 2**15 == 32895
        assert 2**22 < (32895 + 1024 / 2) * 128 < 2**22 * 1.02

    @pytest.mark.parametrize(
        "numerics",
        [NumericsConfig(input_bits=12), NumericsConfig(input_bits=28), NumericsConfig.exact()],
        ids=["12-bit", "28-bit", "exact"],
    )
    def test_wider_or_unquantised_datapaths_have_no_proof(self, numerics):
        # 12-bit operands: a 22-bit product, 25 bits over head_dim 8 —
        # inside the float64 budget, past the float32 one.
        assert not Datapath(numerics).supports_exact_gemm(8, 16)


class TestConfigValidation:
    def test_bad_exp_mode(self):
        with pytest.raises(ValueError):
            NumericsConfig(exp_mode="cordic")

    def test_bad_recip_mode(self):
        with pytest.raises(ValueError):
            NumericsConfig(recip_mode="divider")

    def test_bad_range(self):
        with pytest.raises(ValueError):
            NumericsConfig(exp_input_lo=4.0, exp_input_hi=-16.0)
