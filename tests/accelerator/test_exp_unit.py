"""Tests for the PWL exponential unit (Softermax-style)."""

import numpy as np
import pytest

from repro.accelerator.exp_unit import PWLExpUnit, max_pwl_error
from repro.accelerator.fixed_point import FixedPointFormat
from repro.core.config import NumericsConfig


def max_pwl_relative_error(unit, lo=-4.0, hi=None, samples=4096):
    """Maximum relative error over the softmax-dominant score range."""
    hi = unit.hi if hi is None else hi
    xs = np.linspace(lo, hi, samples)
    ref = np.exp(xs)
    return float(np.max(np.abs(unit(xs) - ref) / ref))


def _unit(segments=32, lo=-16.0, hi=4.0):
    coeff = FixedPointFormat(16, 14, signed=True)
    out = FixedPointFormat(16, 9, signed=False)
    return PWLExpUnit(segments=segments, lo=lo, hi=hi, coeff_format=coeff, out_format=out)


class TestConstruction:
    def test_from_numerics(self):
        unit = PWLExpUnit.from_numerics(NumericsConfig())
        assert unit.segments == 32

    def test_rejects_few_segments(self):
        with pytest.raises(ValueError):
            _unit(segments=1)

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            _unit(lo=2.0, hi=1.0)

    def test_lut_size(self):
        assert _unit(segments=8).lut_size_bits() == 2 * 8 * 16

    def test_pow2_coefficients_small(self):
        """Octave coefficients stay in [0, 2·ln2] — no saturation."""
        unit = _unit()
        assert unit.slopes.max() < 1.5
        assert unit.intercepts.max() <= 1.0


class TestEvaluation:
    def test_positive_outputs(self):
        unit = _unit()
        xs = np.linspace(-20, 8, 200)
        assert (unit(xs) >= 0).all()

    def test_clamps_above_range(self):
        unit = _unit()
        assert unit(np.array([10.0]))[0] == unit(np.array([4.0]))[0]

    def test_clamps_below_range(self):
        unit = _unit()
        assert unit(np.array([-100.0]))[0] == unit(np.array([-16.0]))[0]

    def test_monotone_nondecreasing(self):
        unit = _unit()
        xs = np.linspace(-16, 4, 2000)
        ys = unit(xs)
        assert (np.diff(ys) >= -1e-12).all()

    def test_segment_index_bounds(self):
        unit = _unit(segments=8)
        idx = unit.segment_index(np.array([-100.0, -16.0, 0.0, 4.0, 100.0]))
        assert idx.min() >= 0 and idx.max() <= 7

    def test_exp_zero_is_one(self):
        unit = _unit()
        assert unit(np.array([0.0]))[0] == pytest.approx(1.0, abs=0.01)

    def test_octave_doubling(self):
        """pow2 structure: exp(x + ln2) == 2·exp(x) up to output LSB."""
        unit = _unit()
        xs = np.linspace(-2, 2, 50)
        a = unit(xs)
        b = unit(xs + np.log(2.0))
        assert np.allclose(b, 2 * a, atol=2 / 512)


class TestAccuracy:
    def test_error_shrinks_with_segments(self):
        errs = [max_pwl_error(_unit(segments=s)) for s in (4, 16, 64)]
        assert errs[0] > errs[2]

    def test_default_absolute_error(self):
        """pow2 with 32 segments: worst absolute error well under 1 LSB of
        exp(4)."""
        err = max_pwl_error(PWLExpUnit.from_numerics(NumericsConfig()))
        assert err < 0.05

    def test_default_relative_error(self):
        # At x = -2 the output LSB (1/256) is ~1.4% of exp(x); the PWL
        # chord error itself is far smaller.
        rel = max_pwl_relative_error(PWLExpUnit.from_numerics(NumericsConfig()), lo=-2.0)
        assert rel < 0.02
