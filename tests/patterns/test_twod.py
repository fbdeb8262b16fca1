"""Tests for 2-D (image) patterns and their flattening."""

import numpy as np
import pytest

from repro.patterns.base import PatternError
from repro.patterns.twod import Local2DPattern, flatten_2d_window


def grid_neighbourhood(r, c, grid_h, grid_w, window_h, window_w):
    """All in-grid ``(row, col)`` patches inside the window centred at ``(r, c)``.

    The oracle the flattened bands are checked against: a direct 2-D
    computation.  The flattened pattern differs at horizontal grid
    borders: a band sliding past the row edge attends patches of the
    neighbouring image row (it clips only at the sequence ends), exactly
    like the flattened patterns in Figure 2c of the paper.
    """
    half_h = window_h // 2
    half_w = window_w // 2
    out = []
    for dr in range(-half_h, window_h - half_h):
        for dc in range(-half_w, window_w - half_w):
            rr, cc = r + dr, c + dc
            if 0 <= rr < grid_h and 0 <= cc < grid_w:
                out.append((rr, cc))
    return out


class TestFlatten2DWindow:
    def test_band_count_equals_window_height(self):
        bands = flatten_2d_window(grid_w=8, window_h=3, window_w=3)
        assert len(bands) == 3

    def test_band_centres_are_row_offsets(self):
        bands = flatten_2d_window(grid_w=10, window_h=3, window_w=3)
        centres = [(b.lo + b.hi) // 2 for b in bands]
        assert centres == [-10, 0, 10]

    def test_band_widths(self):
        bands = flatten_2d_window(grid_w=10, window_h=3, window_w=5)
        assert all(b.width == 5 for b in bands)

    def test_rejects_window_wider_than_grid(self):
        with pytest.raises(PatternError):
            flatten_2d_window(grid_w=4, window_h=3, window_w=5)


class TestLocal2DPattern:
    def test_sequence_length(self):
        p = Local2DPattern(6, 7, 3, 3)
        assert p.n == 42

    def test_flat_index_roundtrip(self):
        p = Local2DPattern(6, 7, 3, 3)
        for r in (0, 3, 5):
            for c in (0, 4, 6):
                assert p.patch_coords(p.flat_index(r, c)) == (r, c)

    def test_flat_index_bounds(self):
        p = Local2DPattern(4, 4, 3, 3)
        with pytest.raises(PatternError):
            p.flat_index(4, 0)

    def test_interior_patch_matches_2d_neighbourhood(self):
        """Away from horizontal borders, flattened bands equal the true
        2-D window."""
        gh, gw, wh, ww = 8, 8, 3, 3
        p = Local2DPattern(gh, gw, wh, ww)
        r, c = 4, 4
        i = p.flat_index(r, c)
        expected = sorted(
            p.flat_index(rr, cc)
            for rr, cc in grid_neighbourhood(r, c, gh, gw, wh, ww)
        )
        assert p.banded_row_keys(i).tolist() == expected

    def test_window_size(self):
        p = Local2DPattern(8, 8, 3, 5)
        assert p.window_size() == 15

    def test_vil_stage2_nominal_sparsity(self):
        """Table 2: ViL-stage2 sparsity 15*15/28^2 ~ 0.287."""
        p = Local2DPattern(28, 28, 15, 15, (0,))
        nominal = p.window_size() / p.n
        assert nominal == pytest.approx(0.287, abs=0.001)

    def test_global_token_included(self):
        p = Local2DPattern(5, 5, 3, 3, (0,))
        assert 0 in p.row_keys(24).tolist()
