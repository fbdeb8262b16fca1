"""Data scheduler (paper Section 4): reordering + splitting → tile plans."""

from .compiled import CompiledPlan, PassIndex, SegmentStream, WindowJob, compile_plan
from .metadata import HardwareMetadata, PatternMetadata
from .plan import BandSegment, ExecutionPlan, GroupTiling, PlanStats, TilePass
from .reorder import GroupedBandJob, decompose_band, group_positions, reorder_permutation
from .scheduler import DataScheduler, SchedulerError, check_band_overlap
from .splitting import chunk_band_job, pack_segments, tile_group

__all__ = [
    "PatternMetadata",
    "HardwareMetadata",
    "CompiledPlan",
    "PassIndex",
    "SegmentStream",
    "WindowJob",
    "compile_plan",
    "BandSegment",
    "GroupTiling",
    "TilePass",
    "ExecutionPlan",
    "PlanStats",
    "GroupedBandJob",
    "decompose_band",
    "group_positions",
    "reorder_permutation",
    "DataScheduler",
    "SchedulerError",
    "check_band_overlap",
    "chunk_band_job",
    "pack_segments",
    "tile_group",
]
