"""Tests for hybrid sparse attention patterns (bands + globals)."""

import numpy as np
import pytest

from repro.patterns.base import Band, PatternError
from repro.patterns.global_attn import GlobalAttentionPattern
from repro.patterns.hybrid import HybridSparsePattern
from repro.patterns.window import SlidingWindowPattern

from _mask_oracle import band_mask, global_mask


class TestConstruction:
    def test_requires_some_structure(self):
        with pytest.raises(PatternError):
            HybridSparsePattern(8)

    def test_rejects_bad_global(self):
        with pytest.raises(PatternError):
            HybridSparsePattern(8, [Band(-1, 1)], [8])

    def test_window_size_sums_bands(self):
        p = HybridSparsePattern(32, [Band(-2, 2), Band(10, 12)])
        assert p.window_size() == 5 + 3


class TestMaskComposition:
    def test_mask_is_union_of_parts(self):
        n = 16
        bands = [Band(-1, 1), Band(4, 5)]
        toks = (0, 7)
        p = HybridSparsePattern(n, bands, toks)
        expected = np.zeros((n, n), dtype=bool)
        for b in bands:
            expected |= band_mask(n, b)
        expected |= global_mask(n, toks)
        assert np.array_equal(p.mask(), expected)

    def test_matches_window_plus_global(self):
        n = 12
        p = HybridSparsePattern(n, [Band(-2, 2)], (0,))
        w = SlidingWindowPattern(n, -2, 2)
        g = GlobalAttentionPattern(n, [0])
        assert np.array_equal(p.mask(), w.mask() | g.mask())


class TestRowKeys:
    def test_global_query_full_row(self):
        p = HybridSparsePattern(10, [Band(-1, 1)], (3,))
        assert p.row_keys(3).tolist() == list(range(10))

    def test_normal_query_band_plus_globals(self):
        p = HybridSparsePattern(10, [Band(-1, 1)], (7,))
        assert p.row_keys(2).tolist() == [1, 2, 3, 7]

    def test_banded_row_keys_excludes_globals(self):
        p = HybridSparsePattern(10, [Band(-1, 1)], (7,))
        assert p.banded_row_keys(2).tolist() == [1, 2, 3]

    def test_duplicate_band_global_overlap_counts_once(self):
        # token 3 is both within query 2's band and a global token
        p = HybridSparsePattern(10, [Band(-1, 1)], (3,))
        keys = p.row_keys(2)
        assert keys.tolist() == sorted(set(keys.tolist()))


class TestResize:
    def test_with_sequence_length(self):
        p = HybridSparsePattern(10, [Band(-1, 1)], (0, 8))
        q = p.with_sequence_length(6)
        assert q.n == 6
        assert q.global_tokens() == (0,)  # token 8 dropped

    def test_structure_preserved(self):
        p = HybridSparsePattern(10, [Band(-2, 2, 2)], (0,))
        q = p.with_sequence_length(20)
        assert q.bands() == p.bands()


class TestFirstQuery:
    def test_rows_below_have_no_keys(self):
        p = HybridSparsePattern(16, [Band(-3, 0)], first_query=6)
        full = HybridSparsePattern(16, [Band(-3, 0)])
        assert p.first_query == 6 and full.first_query == 0
        assert p.row_keys(5).size == 0 and p.banded_row_keys(2).size == 0
        assert p.row_keys(6).tolist() == [3, 4, 5, 6]
        mask = p.mask()
        assert not mask[:6].any()
        assert np.array_equal(mask[6:], full.mask()[6:])
        assert p != full

    @pytest.mark.parametrize("first", [-1, 16, 40])
    def test_out_of_range_refused(self, first):
        with pytest.raises(PatternError, match=f"first_query {first} out of range"):
            HybridSparsePattern(16, [Band(-3, 0)], first_query=first)

    def test_refused_with_global_tokens(self):
        with pytest.raises(PatternError, match="first_query 4 > 0 cannot be combined"):
            HybridSparsePattern(16, [Band(-3, 0)], (0,), first_query=4)
        assert HybridSparsePattern(16, [Band(-3, 0)], (0,), first_query=0).first_query == 0

    def test_with_sequence_length_refused(self):
        p = HybridSparsePattern(16, [Band(-3, 0)], first_query=8)
        with pytest.raises(PatternError, match="first_query 8"):
            p.with_sequence_length(32)

    def test_structure_key_carries_it(self):
        from repro.core.salo import pattern_structure_key

        keys = {
            pattern_structure_key(HybridSparsePattern(16, [Band(-3, 0)], first_query=f))
            for f in (0, 8, 8, 12)
        }
        assert len(keys) == 3
        assert pattern_structure_key(SlidingWindowPattern(16, -3, 0))[-1] == 0
