"""The data scheduler: hybrid sparse patterns → executable tile plans.

Implements the software half of SALO (paper Section 4): given the pattern
metadata and the hardware metadata, apply *data reordering* (dilated →
sliding windows via residue grouping) and *data splitting* (sequence and
window splitting) to produce an :class:`ExecutionPlan` the spatial
accelerator can run pass by pass.  The plan's tiling is emitted as a
product — per query group, block starts x packed column groups and the
mask of the cells with work (:func:`~repro.scheduler.splitting.tile_group`)
— and its :class:`~repro.scheduler.compiled.PassIndex` is derived from
that product by broadcasting; the :class:`TilePass` objects are built
only if someone reads ``plan.passes``.  A pattern whose queries start
late (``first_query > 0``, a decode step's wanted rows) gets the full
tiling minus every block that lies wholly below its first query.
The scheduler also validates the
pattern against the hardware's constraints — most importantly the bound on
global tokens supported by a single global PE row/column
(``min(ceil(n/#row), ceil(w/#col))``, Section 5.2) and the requirement
that bands do not overlap (overlapping pairs would be double-counted by
the softmax merge).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from ..core.config import HardwareConfig
from ..patterns.base import AttentionPattern, Band
from .compiled import tiling_index
from .plan import ExecutionPlan, GroupTiling
from .reorder import GroupedBandJob, decompose_band
from .splitting import tile_group

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

        first_query = pattern.first_query
        passes = tiling_index(self._tile(bands, n, global_tokens, first_query), n, global_tokens)
        if not len(passes) and not global_tokens:
            if not bands:
                raise SchedulerError("pattern schedules no work (no bands, no global tokens)")
            at = f"n={n}" + (f", first_query={first_query}" if first_query else "")
            raise SchedulerError(
                f"pattern schedules no work: its bands {list(bands)} select no "
                f"in-range (query, key) pair at {at}"
            )
        # A pure-global pattern still streams the sequence through the
        # global PE row/column.
        config = self.config
        global_only = 0 if len(passes) else max(-(-n // config.pe_cols), -(-n // config.pe_rows))
        return ExecutionPlan(
            n=n,
            heads=heads,
            head_dim=head_dim,
            config=config,
            passes=passes,
            global_tokens=global_tokens,
            global_only_passes=global_only,
            pattern=pattern,
            reorder_applied=any(b.dilation > 1 for b in bands),
            first_query=first_query,
        )

    # ------------------------------------------------------------------
    def _tile(
        self, bands: Sequence[Band], n: int, global_tokens: Tuple[int, ...], first_query: int
    ) -> List[GroupTiling]:
        """Reorder + split every band: one :class:`GroupTiling` per query group."""
        groups: Dict[Tuple[int, int, int], List[GroupedBandJob]] = defaultdict(list)
        for idx, band in enumerate(bands):
            for job in decompose_band(idx, band, n):
                groups[(job.query_residue, job.dilation, job.group_size)].append(job)
        c = self.config
        return [
            tile_group(jobs, n, c.pe_rows, c.pe_cols, c.pack_bands, first_query, global_tokens)
            for _, jobs in sorted(groups.items())
        ]

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
