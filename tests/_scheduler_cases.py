"""Pattern cases the scheduler and engine suites share.

``PATTERN_CASES`` span the structures the data scheduler maps (windows,
dilations, 2-D, star, block-sparse); ``DROP_CASES`` are patterns whose
tiling really contains zero-work passes.  ``_schedule`` plans one on a
4x4 PE array with the global-token bound off.  ``structured_patterns``
draws from every structured pattern constructor (dilations, globals, a
late first query, 2-D windows) at ``n <= MAX_N``.  Tests import this module
as ``_scheduler_cases``: the root ``conftest.py`` puts ``tests/`` on the
import path.
"""

from hypothesis import strategies as st

from repro.core.config import HardwareConfig
from repro.decode.session import decode_pattern
from repro.patterns.base import Band
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
from repro.scheduler.scheduler import DataScheduler

PATTERN_CASES = [
    ("window", longformer_pattern(64, 8, (0,))),
    ("window-no-global", longformer_pattern(64, 8, ())),
    ("dilated", HybridSparsePattern(60, [Band(-6, 6, 3)], (0, 3))),
    ("mixed-dilations", HybridSparsePattern(40, [Band(-4, 4, 1), Band(6, 18, 6)], (0, 3))),
    ("twod-vil", vil_pattern(6, 7, 3, (0, 1))),
    ("star", star_transformer_pattern(20)),
    ("sparse-transformer", sparse_transformer_pattern(24, block=4)),
]


# Patterns whose tiling really contains zero-work passes.
DROP_CASES = [
    ("window-wider-than-n", HybridSparsePattern(24, [Band(-40, 39, 1)], (3,))),
    ("only-global-keys-in-range", HybridSparsePattern(64, [Band(-40, -38, 1)], (0, 1, 2))),
    ("dilated-groups-shorter-than-a-block", HybridSparsePattern(19, [Band(-16, 16, 8)], (2,))),
    ("vil-edges", vil_pattern(6, 7, 5, (0,))),
]


def _scheduler(rows=4, cols=4):
    return DataScheduler(HardwareConfig(pe_rows=rows, pe_cols=cols), strict_global_bound=False)


def _schedule(pattern, rows=4, cols=4):
    return _scheduler(rows, cols).schedule(pattern, heads=1, head_dim=8)


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
