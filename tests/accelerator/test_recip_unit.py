"""Tests for the shift-normalise + LUT reciprocal unit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerator.fixed_point import FixedPointFormat
from repro.accelerator.recip_unit import ReciprocalUnit
from repro.core.config import NumericsConfig


def _unit(bits=7):
    return ReciprocalUnit(lut_bits=bits, mantissa_format=FixedPointFormat(16, 15, signed=False))


class TestConstruction:
    def test_from_numerics(self):
        unit = ReciprocalUnit.from_numerics(NumericsConfig())
        assert unit.table.shape == (128,)

    def test_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            _unit(bits=0)

    def test_table_in_half_one(self):
        unit = _unit()
        assert (unit.table > 0.49).all() and (unit.table <= 1.0).all()


class TestEvaluation:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            _unit()(np.array([0.0]))

    def test_powers_of_two_exactish(self):
        unit = _unit()
        for w in (0.5, 1.0, 2.0, 4.0, 1024.0):
            assert unit(np.array([w]))[0] == pytest.approx(1.0 / w, rel=0.01)

    def test_scale_invariance(self):
        """Normalise-shift structure: recip(2w) == recip(w)/2 exactly."""
        unit = _unit()
        rng = np.random.default_rng(5)
        w = rng.uniform(1.0, 2.0, size=50)
        assert np.allclose(unit(2 * w), unit(w) / 2, rtol=0, atol=1e-12)

    @given(st.floats(min_value=1e-3, max_value=1e6))
    @settings(max_examples=200, deadline=None)
    def test_relative_error_bound(self, w):
        unit = _unit(bits=7)
        approx = unit(np.array([w]))[0]
        assert abs(approx * w - 1.0) < 0.006  # half-bin of a 128-entry LUT

    def test_max_relative_error_method(self):
        assert _unit(bits=7).max_relative_error() < 0.006

    def test_error_shrinks_with_bits(self):
        assert _unit(bits=8).max_relative_error() < _unit(bits=5).max_relative_error()


class TestProductBound:
    """``product_bound`` = sup of ``w * unit(w)``, the proof behind
    ``Datapath.prob_bounded``."""

    def test_default_value(self):
        assert ReciprocalUnit.from_numerics(NumericsConfig()).product_bound() == 1.003875732421875

    @pytest.mark.parametrize("bits", [1, 5, 7])
    def test_equals_exhaustive_evaluation_of_every_bin(self, bits):
        """The product is largest at the top of a bin: evaluate the unit
        itself at the last mantissa below each bin edge, in two octaves."""
        unit = _unit(bits)
        bins = 1 << bits
        tops = np.nextafter(1.0 + np.arange(1, bins + 1) / bins, 0.0)
        worst = max((tops * s * unit(tops * s)).max() for s in (1.0, 2.0 ** -9))
        bound = unit.product_bound()
        assert worst < bound and bound - worst < 1e-12
        # ...and nothing inside the bins exceeds it.
        w = np.linspace(1.0, 2.0, 1 << 16, endpoint=False)
        assert (w * unit(w)).max() < bound
