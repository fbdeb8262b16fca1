"""Pattern cases the scheduler and engine suites share.

``PATTERN_CASES`` span the structures the data scheduler maps (windows,
dilations, 2-D, star, block-sparse); ``DROP_CASES`` are patterns whose
tiling really contains zero-work passes.  ``_schedule`` plans one on a
4x4 PE array with the global-token bound off.  Tests import this module
as ``_scheduler_cases``: the root ``conftest.py`` puts ``tests/`` on the
import path.
"""

from repro.core.config import HardwareConfig
from repro.patterns.base import Band
from repro.patterns.hybrid import HybridSparsePattern
from repro.patterns.library import (
    longformer_pattern,
    sparse_transformer_pattern,
    star_transformer_pattern,
    vil_pattern,
)
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
