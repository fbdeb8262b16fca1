"""Execution plan data structures produced by the data scheduler.

A plan is a sequence of *tile passes*.  Each pass occupies the PE array for
one 5-stage computation: a block of up to ``pe_rows`` queries against up to
``pe_cols`` window key offsets (possibly packed from several band
segments).  Passes are *structural* — they describe which (query, key)
pairs are computed and are shared across attention heads; the engines
iterate heads over the same passes.

The scheduler does not build the passes one by one: per query group it
emits a :class:`GroupTiling` — block starts x packed column groups plus
the mask of the cells with work — and the pass list of its plan is
that product's :class:`~repro.scheduler.compiled.PassIndex`, which
builds the pass objects on first read.

Dilated bands are described in *group space* (see
:mod:`repro.scheduler.reorder`): queries with the same residue modulo the
dilation form a group in which the dilated band is an ordinary sliding
window.  A :class:`TilePass` therefore stores its residue/dilation and
group positions, and reconstructs original token indices on demand.

Because passes are structural (shared across heads and across calls), the
index tensors they imply are compiled exactly once per plan into a
:class:`~repro.scheduler.compiled.CompiledPlan` (see
:meth:`ExecutionPlan.compiled`); the execution engines and the
timing/energy/traffic models consume the compiled tensors instead of
re-deriving ``key_ids`` per head or per query sweep.  The derived
properties ``global_set`` and :meth:`ExecutionPlan.global_row_schedule`
are likewise memoized — plans are treated as immutable once built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, FrozenSet, List, Optional, Tuple

import numpy as np

from ..core.config import HardwareConfig
from ..patterns.base import AttentionPattern

if TYPE_CHECKING:
    from .compiled import PassIndex

__all__ = ["BandSegment", "TilePass", "GroupTiling", "ExecutionPlan", "PlanStats"]


@dataclass(frozen=True)
class BandSegment:
    """A contiguous chunk of one band mapped onto consecutive PE columns.

    For a query at group position ``p``, the segment's column ``t`` (with
    ``0 <= t < width``) computes the key at group position ``p + rel_lo + t``
    of the key residue class ``key_residue`` — i.e. original key index
    ``key_residue + (p + rel_lo + t) * dilation``.
    """

    band_index: int
    rel_lo: int
    width: int
    key_residue: int
    dilation: int

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"segment width must be >= 1, got {self.width}")
        if self.dilation < 1:
            raise ValueError(f"dilation must be >= 1, got {self.dilation}")


@dataclass(frozen=True)
class TilePass:
    """One occupancy of the PE array.

    Attributes
    ----------
    query_residue, dilation:
        The query group this pass draws from: original query index is
        ``query_residue + p * dilation`` for group position ``p``.
    q_positions:
        Group positions of the queries mapped to PE rows (length
        ``rows_used <= pe_rows``).
    segments:
        Band segments packed side by side onto the PE columns; their widths
        sum to ``cols_used <= pe_cols``.
    """

    query_residue: int
    dilation: int
    q_positions: Tuple[int, ...]
    segments: Tuple[BandSegment, ...]

    @property
    def rows_used(self) -> int:
        return len(self.q_positions)

    @property
    def cols_used(self) -> int:
        return sum(s.width for s in self.segments)

    def query_ids(self) -> np.ndarray:
        """Original query indices on the PE rows."""
        return self.query_residue + np.asarray(self.q_positions, dtype=np.int64) * self.dilation

    def key_ids(self, n: int, exclude: FrozenSet[int] = frozenset()) -> np.ndarray:
        """Original key indices per (row, column); ``-1`` marks a masked cell.

        Cells are masked when the key falls outside ``[0, n)`` (window
        clipped at the sequence boundary) or when the key is a global token
        (computed once by the global PE column instead, to avoid double
        counting in the softmax merge).
        """
        p = np.asarray(self.q_positions, dtype=np.int64)[:, None]
        cols = []
        for seg in self.segments:
            t = np.arange(seg.width, dtype=np.int64)[None, :]
            pos = p + seg.rel_lo + t
            ids = seg.key_residue + pos * seg.dilation
            cols.append(ids)
        ids = np.concatenate(cols, axis=1)
        valid = (ids >= 0) & (ids < n)
        if exclude:
            excl = np.asarray(sorted(exclude), dtype=np.int64)
            valid &= ~np.isin(ids, excl)
        return np.where(valid, ids, -1)

    def valid_cell_count(self, n: int, exclude: FrozenSet[int] = frozenset()) -> int:
        """Number of unmasked (query, key) cells in this pass."""
        return int((self.key_ids(n, exclude) >= 0).sum())


@dataclass(frozen=True)
class GroupTiling:
    """One query group's tiling: its query blocks x its packed column groups.

    Queries are ``residue + p * dilation`` for group positions ``p``.
    Block ``b`` maps positions ``starts[b] .. stops[b] - 1`` onto the PE
    rows, column group ``c`` packs the segments ``colgroups[c]`` onto the
    PE columns, and the pass ``(b, c)`` exists where ``has_work[b, c]``:
    some key of its rectangle lies in ``[0, n)`` and is not a global
    token.  Passes run block by block, column groups in order within a
    block.
    """

    residue: int
    dilation: int
    starts: np.ndarray  # (B,) int64
    stops: np.ndarray  # (B,) int64
    colgroups: Tuple[Tuple[BandSegment, ...], ...]  # (C,)
    has_work: np.ndarray  # (B, C) bool


@dataclass
class PlanStats:
    """Aggregate statistics of an execution plan (per single head)."""

    num_passes: int
    total_cells: int
    valid_cells: int
    pe_array_cells: int
    mean_rows_used: float
    mean_cols_used: float
    utilization: float
    parts_per_query_max: int
    parts_per_query_mean: float
    global_only_passes: int

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class ExecutionPlan:
    """Scheduler output: structural tile passes plus global bookkeeping.

    The plan is head-independent; ``heads`` and ``head_dim`` are carried so
    timing/energy models can scale.  ``global_tokens`` are handled by the
    global PE row/column concurrently with the window passes (Section 5.2),
    except for *pure-global* patterns where dedicated
    ``global_only_passes`` stream the sequence through the global PEs.
    Rows below ``first_query`` hold no query: the scheduler left out the
    passes that cover only them, and engines leave their output
    unspecified.  A plan comes from
    :meth:`~repro.scheduler.scheduler.DataScheduler.schedule`, and
    ``passes`` is its :class:`~repro.scheduler.compiled.PassIndex`, which
    knows its length and builds the :class:`TilePass` objects only when
    one is read; anything else is refused at construction.
    """

    n: int
    heads: int
    head_dim: int
    config: HardwareConfig
    passes: PassIndex
    global_tokens: Tuple[int, ...]
    global_only_passes: int = 0
    pattern: Optional[AttentionPattern] = None
    reorder_applied: bool = False
    first_query: int = 0
    # Memoized derived state; plans are immutable once built.
    _global_set: Optional[FrozenSet[int]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _schedule: Optional[Tuple[List[np.ndarray], int]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _compiled: Optional[object] = field(default=None, init=False, repr=False, compare=False)
    _run_stats: Optional[object] = field(default=None, init=False, repr=False, compare=False)
    _buffer_fit: Optional[object] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("sequence length must be >= 1")
        for name in ("heads", "head_dim"):
            value = getattr(self, name)
            if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.heads < 1 or self.head_dim < 1:
            raise ValueError("heads and head_dim must be >= 1")
        from .compiled import PassIndex

        if not isinstance(self.passes, PassIndex):
            raise ValueError(
                f"passes must be the PassIndex of DataScheduler.schedule, got "
                f"{type(self.passes).__name__}"
            )

    # ------------------------------------------------------------------
    @property
    def global_set(self) -> FrozenSet[int]:
        if self._global_set is None:
            self._global_set = frozenset(self.global_tokens)
        return self._global_set

    def compiled(self):
        """The memoized :class:`~repro.scheduler.compiled.CompiledPlan`.

        Compilation precomputes, once, the padded per-pass query rows
        and row masks, the closed form of every pass's key ids, the
        merge-round metadata and the per-pass aggregates that the
        engines and cost models would otherwise re-derive per head or
        per call.  It expands to cells only the passes the closed form
        cannot prove whole (the sequence edges, the blocks around a
        global key); the full validity and key-id tensors are derived on
        demand, for tests and tools.  The compiled plan is a value with
        no reference back to this object, so dropping the plan frees
        both by refcount.
        """
        if self._compiled is None:
            from .compiled import compile_plan

            self._compiled = compile_plan(self)
        return self._compiled

    def run_stats(self):
        """The memoized :class:`~repro.core.stats.RunStats`: timing,
        occupancy, traffic and energy are functions of the plan alone, so
        every engine that runs it reads one copy."""
        if self._run_stats is None:
            from ..accelerator.buffers import plan_traffic
            from ..accelerator.energy import plan_energy
            from ..accelerator.timing import plan_timing
            from ..core.stats import RunStats

            self._run_stats = RunStats(timing=plan_timing(self), plan=self.stats(),
                                       traffic=plan_traffic(self), energy=plan_energy(self))
        return self._run_stats

    def buffer_fit(self):
        """The memoized :class:`~repro.accelerator.buffers.BufferFit` of
        the worst-case pass against the configured buffers."""
        if self._buffer_fit is None:
            from ..accelerator.buffers import check_buffer_fit

            self._buffer_fit = check_buffer_fit(self)
        return self._buffer_fit

    @property
    def num_structural_passes(self) -> int:
        # A PassIndex counts its passes without building them.
        return len(self.passes) + self.global_only_passes

    @property
    def num_total_passes(self) -> int:
        """Passes across all heads (what the accelerator actually runs)."""
        return self.num_structural_passes * self.heads

    def global_row_schedule(self) -> List[np.ndarray]:
        """Key batches consumed by the global PE row, pass by pass.

        The global PE row computes the full attention rows of global-token
        queries by reusing the key vectors already streaming through the PE
        array (Section 5.2).  Each window pass therefore contributes its
        set of not-yet-seen keys as one partial-softmax batch; keys never
        streamed by any window pass (possible at clipped sequence edges or
        for pure-global patterns) are appended as dedicated cleanup batches
        of ``pe_cols`` keys.  Both execution engines consume this schedule
        so their merge order — and hence their fixed-point output — is
        identical.

        The schedule is memoized; callers must not mutate the returned
        list or its arrays.  :func:`~repro.scheduler.compiled.compile_plan`
        pre-populates the memo with a vectorised computation, so the
        per-pass walk below only runs for plans that are never compiled
        (it is kept as the reference implementation).
        """
        if self._schedule is None:
            seen = np.zeros(self.n, dtype=bool)
            batches: List[np.ndarray] = []
            for tp in self.passes:
                ids = tp.key_ids(self.n)  # global keys stream too; do not exclude
                ids = np.unique(ids[ids >= 0])
                fresh = ids[~seen[ids]]
                if len(fresh):
                    seen[fresh] = True
                    batches.append(fresh)
            remaining = np.flatnonzero(~seen)
            chunk = self.config.pe_cols
            cleanup = 0
            for start in range(0, len(remaining), chunk):
                batches.append(remaining[start : start + chunk])
                cleanup += 1
            self._schedule = (batches, cleanup)
        return self._schedule[0]

    @property
    def global_row_cleanup_batches(self) -> int:
        """Trailing batches of :meth:`global_row_schedule` not hidden
        behind a window pass (streamed by dedicated global-only passes)."""
        self.global_row_schedule()
        return self._schedule[1]

    def covered_pairs(self) -> np.ndarray:
        """Boolean (n, n) matrix of pairs computed by the plan.

        Union of window-pass cells, global rows and global columns.  Used
        by validation to prove the plan computes the pattern exactly (no
        missing and no duplicated pairs).  Quadratic; test-sized inputs
        only.
        """
        cov = np.zeros((self.n, self.n), dtype=np.int32)
        g = self.global_set
        for tp in self.passes:
            q = tp.query_ids()
            k = tp.key_ids(self.n, exclude=g)
            for r, qi in enumerate(q):
                if qi in g:
                    continue  # global query rows come from the global PE row
                cols = k[r]
                cov[qi, cols[cols >= 0]] += 1
        for gi in self.global_tokens:
            cov[gi, :] += 1  # global PE row: full row, exactly once
        for gi in self.global_tokens:
            for qi in range(self.n):
                if qi not in g:
                    cov[qi, gi] += 1  # global PE column
        return cov

    def stats(self) -> PlanStats:
        """Compute aggregate occupancy/utilisation statistics.

        Backed by the compiled plan's per-pass aggregates, derived once
        per plan without expanding every pass into key ids.
        """
        cp = self.compiled()
        rows = self.config.pe_rows
        cols = self.config.pe_cols
        num = cp.num_passes
        total_cells = num * rows * cols
        valid_cells = cp.total_valid_cells
        sum_rows = int(cp.rows_used.sum())
        sum_cols = int(cp.cols_used.sum())
        parts = np.zeros(self.n, dtype=np.int64)
        np.add.at(parts, cp.q_ids[cp.row_has_work], 1)
        if self.global_tokens:
            parts[cp.global_tokens] = 1  # global rows are a single merged part
            if len(cp.nonglobal_rows):
                parts[cp.nonglobal_rows] += 1  # the global-column part
        return PlanStats(
            num_passes=num,
            total_cells=total_cells,
            valid_cells=valid_cells,
            pe_array_cells=rows * cols,
            mean_rows_used=sum_rows / num if num else 0.0,
            mean_cols_used=sum_cols / num if num else 0.0,
            utilization=valid_cells / total_cells if total_cells else 0.0,
            parts_per_query_max=int(parts.max()) if self.n else 0,
            parts_per_query_mean=float(parts.mean()) if self.n else 0.0,
            global_only_passes=self.global_only_passes,
        )
