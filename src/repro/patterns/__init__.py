"""Sparse attention pattern representations (paper Section 2.3).

The pattern subpackage provides the intermediate representation consumed by
the data scheduler: structured patterns expose relative-offset *bands* and
*global tokens*, while :class:`ExplicitMaskPattern` covers unstructured
masks for reference computation.
"""

from .base import AttentionPattern, Band, PatternError
from .dilated import DilatedWindowPattern
from .global_attn import GlobalAttentionPattern
from .hybrid import HybridSparsePattern
from .library import (
    dilated_longformer_pattern,
    longformer_pattern,
    sparse_transformer_pattern,
    star_transformer_pattern,
    vil_pattern,
)
from .mask_ops import (
    ExplicitMaskPattern,
    coverage,
    intersection,
    render_ascii,
    union,
)
from .visualize import component_legend, component_map, render_components
from .twod import Local2DPattern, flatten_2d_window
from .window import SlidingWindowPattern

__all__ = [
    "AttentionPattern",
    "Band",
    "PatternError",
    "SlidingWindowPattern",
    "DilatedWindowPattern",
    "GlobalAttentionPattern",
    "HybridSparsePattern",
    "Local2DPattern",
    "ExplicitMaskPattern",
    "flatten_2d_window",
    "longformer_pattern",
    "dilated_longformer_pattern",
    "vil_pattern",
    "star_transformer_pattern",
    "sparse_transformer_pattern",
    "union",
    "intersection",
    "coverage",
    "render_ascii",
    "component_map",
    "render_components",
    "component_legend",
]
