"""The data scheduler: hybrid sparse patterns → executable tile plans.

Implements the software half of SALO (paper Section 4): given the pattern
metadata and the hardware metadata, apply *data reordering* (dilated →
sliding windows via residue grouping) and *data splitting* (sequence and
window splitting) to produce an :class:`ExecutionPlan` the spatial
accelerator can run pass by pass.  A pattern whose queries start late
(``first_query > 0``, a decode step's wanted rows) gets the full tiling
minus every pass whose query block lies wholly below its first query.
The scheduler also validates the
pattern against the hardware's constraints — most importantly the bound on
global tokens supported by a single global PE row/column
(``min(ceil(n/#row), ceil(w/#col))``, Section 5.2) and the requirement
that bands do not overlap (overlapping pairs would be double-counted by
the softmax merge).
"""

from __future__ import annotations

import math
from collections import defaultdict
from itertools import compress
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.config import HardwareConfig
from ..patterns.base import AttentionPattern, Band
from .compiled import pass_index
from .plan import ExecutionPlan, TilePass
from .reorder import GroupedBandJob, decompose_band
from .splitting import build_passes_for_group

__all__ = ["DataScheduler", "SchedulerError", "check_band_overlap"]


class SchedulerError(ValueError):
    """Raised when a pattern cannot be mapped onto the accelerator."""


def check_band_overlap(bands: Sequence[Band]) -> None:
    """Reject band sets whose relative-offset sets intersect.

    Two bands sharing an offset would make some (query, key) pair appear in
    two passes, and the weighted-sum merge (Eq. 2) would then count its
    exponential twice.  The published patterns (Longformer, ViL,
    Star-Transformer) are all overlap-free.
    """
    seen: Dict[int, int] = {}
    for idx, band in enumerate(bands):
        for off in band.offsets():
            off = int(off)
            if off in seen:
                raise SchedulerError(
                    f"bands {seen[off]} and {idx} overlap at relative offset {off}; "
                    "overlapping bands would double-count scores in the softmax merge"
                )
            seen[off] = idx


class DataScheduler:
    """Maps hybrid sparse attention patterns onto a :class:`HardwareConfig`.

    Parameters
    ----------
    config:
        Accelerator instance to schedule for.
    strict_global_bound:
        Enforce the Section 5.2 bound on the number of global tokens.  Turn
        off only for what-if studies; the timing model assumes global work
        hides behind window passes, which the bound guarantees.
    """

    def __init__(self, config: HardwareConfig, strict_global_bound: bool = True) -> None:
        self.config = config
        self.strict_global_bound = strict_global_bound

    # ------------------------------------------------------------------
    def schedule(
        self,
        pattern: AttentionPattern,
        heads: int = 1,
        head_dim: int = 64,
    ) -> ExecutionPlan:
        """Produce an execution plan for ``pattern``.

        Raises
        ------
        SchedulerError
            If the pattern is unstructured, has overlapping bands, or
            requests more global tokens than the hardware supports.
        """
        bands = pattern.bands()
        if bands is None:
            raise SchedulerError(
                "pattern does not expose band structure; SALO schedules hybrid "
                "sparse patterns (bands + global tokens) only"
            )
        check_band_overlap(bands)
        n = pattern.n
        global_tokens = tuple(pattern.global_tokens())
        self._check_global_bound(n, bands, global_tokens)

        passes = self._tile_passes(bands, n)
        first_query = pattern.first_query
        if first_query:
            # Rows below the first query want no output: leave out every
            # pass whose block lies wholly below it.  Filtering the full
            # tiling (never re-tiling) keeps each kept row's pass list and
            # merge order, so its output bits.  ``query_ids``, not
            # ``q_positions``: dilated groups number their own positions.
            passes = [tp for tp in passes if tp.query_ids().max() >= first_query]

        # Drop zero-work passes (windows clipped away at the sequence
        # edges, or left with global keys only); the index that decides
        # it rides on the plan so compilation derives nothing again.
        index = pass_index(passes, n, global_tokens)
        has_work = index.distinct > 0
        passes = list(compress(passes, has_work.tolist()))
        index = index.take(has_work)

        global_only = 0
        if not passes and global_tokens:
            # Pure-global pattern: the sequence must still stream through
            # the global PE row/column.
            global_only = max(
                math.ceil(n / self.config.pe_cols), math.ceil(n / self.config.pe_rows)
            )
        if not passes and not global_tokens:
            raise SchedulerError("pattern schedules no work (no bands, no global tokens)")

        reorder = any(b.dilation > 1 for b in bands)
        plan = ExecutionPlan(
            n=n,
            heads=heads,
            head_dim=head_dim,
            config=self.config,
            passes=passes,
            global_tokens=global_tokens,
            global_only_passes=global_only,
            pattern=pattern,
            reorder_applied=reorder,
            first_query=first_query,
        )
        plan._index = index
        return plan

    # ------------------------------------------------------------------
    def _tile_passes(self, bands: Sequence[Band], n: int) -> List[TilePass]:
        """Reorder + split every band into passes, zero-work ones included."""
        jobs: List[GroupedBandJob] = []
        for idx, band in enumerate(bands):
            jobs.extend(decompose_band(idx, band, n))

        groups: Dict[Tuple[int, int, int], List[GroupedBandJob]] = defaultdict(list)
        for job in jobs:
            groups[(job.query_residue, job.dilation, job.group_size)].append(job)

        passes: List[TilePass] = []
        for key in sorted(groups):
            passes.extend(
                build_passes_for_group(
                    groups[key],
                    pe_rows=self.config.pe_rows,
                    pe_cols=self.config.pe_cols,
                    pack=self.config.pack_bands,
                )
            )
        return passes

    # ------------------------------------------------------------------
    def _check_global_bound(
        self, n: int, bands: Sequence[Band], global_tokens: Tuple[int, ...]
    ) -> None:
        if not global_tokens:
            return
        if self.config.global_rows == 0 or self.config.global_cols == 0:
            raise SchedulerError(
                "pattern has global tokens but the hardware has no global PE row/column"
            )
        window = sum(b.width for b in bands)
        if not bands:
            return  # pure-global patterns stream dedicated passes instead
        bound = self.config.max_global_tokens(n, window)
        if self.strict_global_bound and len(global_tokens) > bound:
            raise SchedulerError(
                f"{len(global_tokens)} global tokens exceed the supported bound "
                f"{bound} = min(ceil(n/#row), ceil(w/#col)) x global rows/cols "
                "(paper Section 5.2)"
            )
