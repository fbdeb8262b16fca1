"""Tests for mask algebra utilities."""

import numpy as np
import pytest

from repro.patterns.base import Band, PatternError
from repro.patterns.global_attn import GlobalAttentionPattern
from repro.patterns.mask_ops import (
    ExplicitMaskPattern,
    coverage,
    intersection,
    render_ascii,
    union,
)
from repro.patterns.window import SlidingWindowPattern

from _mask_oracle import band_mask, global_mask


class TestExplicitMaskPattern:
    def test_roundtrip(self):
        m = np.eye(5, dtype=bool)
        p = ExplicitMaskPattern(m)
        assert np.array_equal(p.mask(), m)

    def test_row_keys(self):
        m = np.zeros((4, 4), dtype=bool)
        m[1, [0, 3]] = True
        assert ExplicitMaskPattern(m).row_keys(1).tolist() == [0, 3]

    def test_rejects_nonsquare(self):
        with pytest.raises(PatternError):
            ExplicitMaskPattern(np.zeros((3, 4), dtype=bool))

    def test_bands_is_none(self):
        assert ExplicitMaskPattern(np.eye(3, dtype=bool)).bands() is None

    def test_mask_copy_isolated(self):
        m = np.eye(3, dtype=bool)
        p = ExplicitMaskPattern(m)
        m[0, 1] = True
        assert not p.mask()[0, 1]


class TestSetOps:
    def test_union(self):
        a = SlidingWindowPattern(8, 0, 0)
        b = GlobalAttentionPattern(8, [0])
        u = union(a, b)
        assert np.array_equal(u.mask(), a.mask() | b.mask())

    def test_intersection(self):
        a = SlidingWindowPattern(8, -1, 1)
        b = SlidingWindowPattern(8, 0, 2)
        inter = intersection(a, b)
        assert np.array_equal(inter.mask(), a.mask() & b.mask())

    def test_length_mismatch(self):
        with pytest.raises(PatternError):
            union(SlidingWindowPattern(8, 0, 0), SlidingWindowPattern(9, 0, 0))

    def test_empty_args(self):
        with pytest.raises(PatternError):
            union()


class TestHelpers:
    def test_coverage_full(self):
        a = SlidingWindowPattern(8, -2, 2)
        b = SlidingWindowPattern(8, -1, 1)
        assert coverage(a, b) == 1.0  # a covers the narrower b

    def test_coverage_partial(self):
        a = SlidingWindowPattern(8, 0, 0)
        b = SlidingWindowPattern(8, -1, 1)
        assert 0.0 < coverage(a, b) < 1.0

    def test_band_mask_matches_pattern(self):
        n, band = 10, Band(-2, 1)
        w = SlidingWindowPattern(n, -2, 1)
        assert np.array_equal(band_mask(n, band), w.mask())

    def test_global_mask_matches_pattern(self):
        g = GlobalAttentionPattern(9, [2, 4])
        assert np.array_equal(global_mask(9, (2, 4)), g.mask())

    def test_render_ascii(self):
        art = render_ascii(SlidingWindowPattern(3, 0, 0))
        assert art.splitlines() == ["#..", ".#.", "..#"]

    def test_render_refuses_large(self):
        with pytest.raises(PatternError):
            render_ascii(SlidingWindowPattern(100, 0, 0), max_n=64)
