"""A structured pattern's mask and pair count come from its bands.

``AttentionPattern.mask`` / ``nnz`` build a pattern that reports bands
from ``bands()``, ``global_tokens()`` and ``first_query`` alone.  The
property: on every structured constructor that equals the pattern's own
rows (``row_keys``, one call per row — :func:`_mask_oracle.row_mask`).
The guard: neither calls ``row_keys`` (or ``row_count``) on a structured
pattern, so a slide back to the per-row loop fails without a timing test.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.decode.session import decode_pattern
from repro.patterns.base import AttentionPattern, Band
from repro.patterns.dilated import DilatedWindowPattern
from repro.patterns.global_attn import GlobalAttentionPattern
from repro.patterns.hybrid import HybridSparsePattern
from repro.patterns.library import vil_pattern
from repro.patterns.window import SlidingWindowPattern

from _mask_oracle import row_mask
from _scheduler_cases import structured_patterns


class TestMaskFromStructure:
    @given(pattern=structured_patterns())
    @settings(max_examples=300)
    def test_mask_and_nnz_match_the_rows(self, pattern):
        expected = row_mask(pattern)
        assert np.array_equal(pattern.mask(), expected), pattern
        assert pattern.nnz() == int(expected.sum()), pattern

    def test_nnz_counts_across_row_blocks(self):
        # More rows than one count block holds, so the count spans blocks.
        pattern = HybridSparsePattern(3000, [Band(-40, 40, 4), Band(-5, 0)], (7, 2999))
        assert pattern.nnz() == int(row_mask(pattern).sum())

    def test_late_rows_are_empty(self):
        pattern = decode_pattern((Band(-63, 0),), (), 64, 64, first_query=32)
        m = pattern.mask()
        assert not m[:32].any() and m[32:].any(axis=1).all()


GUARDED = [
    pytest.param(SlidingWindowPattern.symmetric(48, 9), id="window"),
    pytest.param(DilatedWindowPattern(48, -8, 8, 4), id="dilated"),
    pytest.param(GlobalAttentionPattern(48, (0, 20)), id="global"),
    pytest.param(HybridSparsePattern(48, [Band(-4, 4), Band(-9, 9, 3)], (5,)), id="hybrid"),
    pytest.param(HybridSparsePattern(48, [Band(-6, 0)], (), 20), id="late-start"),
    pytest.param(vil_pattern(6, 8, 3), id="vil"),
]


@pytest.mark.parametrize("pattern", GUARDED)
def test_structured_queries_read_no_rows(pattern, monkeypatch):
    calls = []
    for cls in type(pattern).__mro__:
        if issubclass(cls, AttentionPattern):
            for name in ("row_keys", "row_count"):
                if name in vars(cls):
                    def counted(self, i, _f=vars(cls)[name], _name=name):
                        calls.append(_name)
                        return _f(self, i)

                    monkeypatch.setattr(cls, name, counted)
    pattern.mask()
    pattern.nnz()
    pattern.sparsity()
    assert calls == []
