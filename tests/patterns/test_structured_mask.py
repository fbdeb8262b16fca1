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
from hypothesis import strategies as st

from repro.decode.session import decode_pattern
from repro.patterns.base import AttentionPattern, Band
from repro.patterns.dilated import DilatedWindowPattern
from repro.patterns.global_attn import GlobalAttentionPattern
from repro.patterns.hybrid import HybridSparsePattern
from repro.patterns.library import (
    dilated_longformer_pattern,
    longformer_pattern,
    sparse_transformer_pattern,
    star_transformer_pattern,
    vil_pattern,
)
from repro.patterns.twod import Local2DPattern
from repro.patterns.window import SlidingWindowPattern

from _mask_oracle import row_mask

MAX_N = 96


@st.composite
def _band(draw, n):
    d = draw(st.integers(1, 6))
    lo = draw(st.integers(-n - 4, n + 4))
    return Band(lo, lo + d * draw(st.integers(0, 12)), d)


def _tokens(draw, n, most=3):
    return draw(st.lists(st.integers(0, n - 1), max_size=most))


@st.composite
def structured_patterns(draw):
    n = draw(st.integers(1, MAX_N))
    kind = draw(
        st.sampled_from(
            [
                "symmetric", "causal", "dilated", "global", "hybrid", "vil",
                "local2d", "longformer", "dilated-longformer", "star", "sparse",
                "decode",
            ]
        )
    )
    if kind == "symmetric":
        return SlidingWindowPattern.symmetric(n, draw(st.integers(1, 2 * n)))
    if kind == "causal":
        return SlidingWindowPattern.causal(n, draw(st.integers(1, 2 * n)))
    if kind == "dilated":
        b = draw(_band(n))
        return DilatedWindowPattern(n, b.lo, b.hi, b.dilation)
    if kind == "global":
        return GlobalAttentionPattern(n, _tokens(draw, n))
    if kind == "hybrid":
        # Overlapping and dilated bands, plus globals or a late first query.
        bands = draw(st.lists(_band(n), min_size=1, max_size=4))
        toks = _tokens(draw, n)
        first = 0 if toks else draw(st.integers(0, n - 1))
        return HybridSparsePattern(n, bands, toks, first)
    if kind in ("vil", "local2d"):
        w = draw(st.integers(1, 12))
        h = draw(st.integers(1, MAX_N // w))
        window_w = draw(st.integers(1, w))
        toks = _tokens(draw, h * w, 2)
        if kind == "vil":
            return vil_pattern(h, w, window_w, toks)
        return Local2DPattern(h, w, draw(st.integers(1, 2 * h)), window_w, toks)
    if kind == "longformer":
        return longformer_pattern(n, draw(st.integers(1, n)), _tokens(draw, n))
    if kind == "dilated-longformer":
        return dilated_longformer_pattern(
            n, draw(st.integers(1, 16)), draw(st.integers(1, 6)), _tokens(draw, n)
        )
    if kind == "star":
        return star_transformer_pattern(n, draw(st.integers(1, 9)))
    if kind == "sparse":
        return sparse_transformer_pattern(n, draw(st.integers(1, n)), draw(st.booleans()))
    valid = draw(st.integers(1, n))
    toks = tuple(_tokens(draw, n, 2))
    active = [g for g in toks if g < valid]
    first = 0 if active else draw(st.integers(0, n - 1))
    back = draw(st.integers(0, n))
    return decode_pattern((Band(-back, 0),), toks, n, valid, first)


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
