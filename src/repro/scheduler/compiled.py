"""Compiled execution plans: precomputed index tensors for batched engines.

Tile passes are *structural*: the gather indices, validity masks and
global-token exclusions of a pass are identical across attention heads and
across every ``attend()`` call that reuses the same plan.  The seed
implementation nevertheless re-derived them from scratch for each head of
each call (``TilePass.key_ids`` concatenates segments and runs ``np.isin``
per head x pass).  :class:`CompiledPlan` performs that derivation exactly
once per :class:`~repro.scheduler.plan.ExecutionPlan` and stores:

* padded per-pass tensors — ``q_ids`` ``(P, R)``, ``key_ids`` / ``valid``
  ``(P, R, C)`` with sequence clipping *and* global-token exclusion
  baked in, and ``keep`` ``(P, R)`` non-global row masks — consumed by
  the cost models, ``plan.stats()`` and the window-job builder;
* **window jobs** — the pass stream regrouped by
  ``(query group, column group)``.  Within a job every pass shares its
  segment tuple and its query block starts advance uniformly, so each
  segment's key stream is one arithmetic sequence: the engine gathers a
  single ``(L, d)`` key block per segment and reads it through an
  overlapping ``as_strided`` window view — the numpy analogue of the
  accelerator's diagonal k/v connections (Section 5.2) — instead of
  materialising ``(passes, rows, cols, d)`` gathers.  Jobs are ordered by
  first appearance in the pass stream, which preserves the per-query
  weighted-sum merge order (a query receives its parts from the column
  groups of its own block, in block-local order), keeping outputs
  bit-identical to the per-pass reference engine;
* the global-row batch schedule (padded) shared with the micro-simulator;
* per-pass aggregates (valid cells, distinct keys, query loads, output
  vectors) reused by the timing/energy/traffic models.

Obtain instances through :meth:`ExecutionPlan.compiled`, which memoizes
the compilation on the plan object.

Every index fact is derived from one :class:`PassIndex` — a single sweep
over the :class:`~repro.scheduler.plan.TilePass` objects.  The scheduler
builds it to drop zero-work passes and leaves it on the plan, so a cold
start (``schedule`` -> ``compiled()``) never derives a fact twice and
never walks the passes with per-pass numpy calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (plan -> compiled)
    from .plan import ExecutionPlan, TilePass

__all__ = [
    "CompiledPlan",
    "IrregularPassError",
    "JobChain",
    "PassIndex",
    "SegmentStream",
    "WindowJob",
    "compile_plan",
    "pass_index",
]


class IrregularPassError(ValueError):
    """Raised when passes have no strided window-job geometry.

    Non-contiguous query rows or unevenly spaced blocks: the scheduler
    never emits such passes, and only the per-pass reference engine
    (``FunctionalEngine(plan, mode="legacy")``), which never builds
    window jobs, executes them.
    """


@dataclass(frozen=True)
class SegmentStream:
    """One band segment of a window job as diagonal key streams.

    For query group ``g``, the key id of block ``b``, PE row ``r``,
    segment column ``t`` is ``gather_ids[g, b * block_step + r + t]``
    (ids pre-clipped to ``[0, n)``; out-of-range and global cells are
    masked by the job's ``valid``).
    """

    gather_ids: np.ndarray  # (G, L) int64, clipped to [0, n)
    width: int
    block_step: int  # key-stream advance per query block


@dataclass(frozen=True)
class WindowJob:
    """A family of same-geometry (query group, column group) pairs.

    Query groups of one dilated band share block structure, segment
    widths and strides — only the residue (and hence the gather bases
    and boundary masks) differs — so their passes batch into a single
    job with a leading *group* axis ``G``: one set of GEMMs serves
    every residue class at once.  Queries of different groups in one job
    are disjoint (distinct residue classes of the same dilation), so the
    whole job still merges with a single weighted-sum call.
    """

    pass_indices: np.ndarray  # (G * B,) indices into plan.passes
    num_groups: int  # G
    num_blocks: int  # B (per group)
    rows: int  # R: padded rows of this job
    cols: int  # C: columns of this job (sum of segment widths)
    q_ids: np.ndarray  # (G, B, R) int64, -1 on padding
    q_safe: np.ndarray  # (G, B, R) int64, padding clipped to 0
    valid: np.ndarray  # (G, B, R, C) bool
    keep: np.ndarray  # (G, B, R) bool: rows merged by the window path
    segments: Tuple[SegmentStream, ...]


@dataclass(frozen=True)
class JobChain:
    """A maximal run of consecutive same-geometry window jobs.

    Jobs of one chain share ``q_ids`` and ``keep`` bit for bit, so every
    job contributes a part to exactly the same (group, block, row) cells.
    The per-query weighted-sum chain therefore runs on chain-local state:
    seeded from the accumulator before the first job (all zeros when the
    chain is *private*, i.e. no earlier job touched its queries),
    merged job by job in schedule order, and committed back by plain
    assignment — exactly what the sequential per-job accumulator merges
    would have left there.

    ``flat_keep`` / ``flat_q`` are the static commit indices: positions
    of kept cells in the flattened ``(G * B * R)`` cell axis and the
    query ids they map to, precomputed once per plan.

    When every job of the chain streams a single key segment and the
    segments are adjacent column slices of one window band — the shape
    the scheduler's column splitting always produces — the chain also
    carries the *wide stream*: the union of all jobs' key streams
    (``wide_ids``) plus each job's column offset into it
    (``wide_offsets``).  Engines then gather K/V once per tile for the
    whole chain and run one banded stage-1 GEMM spanning every job's
    columns, instead of one overlapping gather + GEMM per job.
    """

    jobs: Tuple[int, ...]  # indices into CompiledPlan.window_jobs
    private: bool
    flat_keep: np.ndarray  # (M,) int64 indices into flattened (G*B*R)
    flat_q: np.ndarray  # (M,) int64 query ids of the kept cells
    wide_ids: Optional[np.ndarray] = None  # (G, L) combined stream key ids
    wide_offsets: Optional[Tuple[int, ...]] = None  # per-job column offset
    # Contiguity facts, verified by direct comparison at build time, that
    # let engines replace gathers with slices (see FunctionalEngine):
    wide_start: Optional[Tuple[int, ...]] = None  # wide_ids[g] == clip(arange)
    q_start: Optional[int] = None  # flattened q_safe == arange(q_start, ...)
    keep_all: bool = False  # every (group, block, row) cell is merged
    keep_slice: Optional[Tuple[int, int]] = None  # (k0, q0): both flat aranges


def _arange_start(a: np.ndarray) -> Optional[int]:
    """Start value when ``a`` is exactly a contiguous ascending range."""
    if a.size == 0:
        return None
    s = int(a[0])
    if int(a[-1]) - s != a.size - 1:
        return None
    return s if np.array_equal(a, np.arange(s, s + a.size)) else None


def _clipped_arange_start(a: np.ndarray, n: int) -> Optional[int]:
    """Start ``s`` when ``a == clip(arange(s, s + len(a)), 0, n - 1)``.

    The window schedule's key streams are ranges with their out-of-range
    head/tail clamped by the gather-safety clip; recovering ``s`` from
    the (normally unclamped) midpoint and re-verifying keeps this exact.
    """
    mid = a.size // 2
    s = int(a[mid]) - mid
    if np.array_equal(a, np.clip(np.arange(s, s + a.size), 0, n - 1)):
        return s
    return None


def _wide_stream(jobs) -> Tuple[Optional[np.ndarray], Optional[Tuple[int, ...]]]:
    """Combined key stream of a chain, when its jobs slice one band.

    Verifies — by direct array comparison, not by construction — that
    each job's single key-stream segment is the previous one shifted by
    exactly its width, and returns the union stream plus per-job
    offsets.  Any mismatch (multi-segment jobs, differing block steps,
    non-adjacent columns) returns ``(None, None)`` and the engine falls
    back to per-job gathers.
    """
    if any(len(j.segments) != 1 for j in jobs):
        return None, None
    segs = [j.segments[0] for j in jobs]
    step = segs[0].block_step
    if any(s.block_step != step for s in segs):
        return None, None
    base = segs[0].gather_ids
    L0 = base.shape[1]
    offsets = [0]
    for prev, seg in zip(segs, segs[1:]):
        off = offsets[-1] + prev.width
        overlap = L0 - off
        if overlap < 0 or not np.array_equal(seg.gather_ids[:, :overlap], base[:, off:]):
            return None, None
        offsets.append(off)
    tail = segs[-1].gather_ids[:, L0 - offsets[-1] :]
    wide = np.concatenate([base, tail], axis=1) if tail.shape[1] else base
    return np.ascontiguousarray(wide), tuple(offsets)


def _build_job_chains(jobs, n: int) -> Tuple[JobChain, ...]:
    """Group the job schedule into chains (see :class:`JobChain`)."""
    chains: List[JobChain] = []
    seen: Optional[np.ndarray] = None  # query ids already covered
    i = 0
    while i < len(jobs):
        a = jobs[i]
        j = i + 1
        while j < len(jobs):
            b = jobs[j]
            if (
                a.q_ids.shape == b.q_ids.shape
                and np.array_equal(a.q_ids, b.q_ids)
                and np.array_equal(a.keep, b.keep)
            ):
                j += 1
            else:
                break
        flat_keep = np.flatnonzero(a.keep.ravel()).astype(np.int64)
        flat_q = a.q_ids.ravel()[flat_keep]
        private = seen is None or not np.isin(flat_q, seen).any()
        wide_ids, wide_offsets = _wide_stream(jobs[i:j])
        wide_start: Optional[Tuple[int, ...]] = None
        if wide_ids is not None:
            starts = [
                _clipped_arange_start(wide_ids[g], n)
                for g in range(wide_ids.shape[0])
            ]
            if all(s is not None for s in starts):
                wide_start = tuple(starts)
        q_start = _arange_start(a.q_safe.ravel())
        keep_all = bool(a.keep.all())
        k0 = _arange_start(flat_keep)
        q0 = _arange_start(flat_q)
        keep_slice = (k0, q0) if k0 is not None and q0 is not None else None
        chains.append(
            JobChain(
                jobs=tuple(range(i, j)),
                private=private,
                flat_keep=flat_keep,
                flat_q=flat_q,
                wide_ids=wide_ids,
                wide_offsets=wide_offsets,
                wide_start=wide_start,
                q_start=q_start,
                keep_all=keep_all,
                keep_slice=keep_slice,
            )
        )
        seen = flat_q if seen is None else np.union1d(seen, flat_q)
        i = j
    return tuple(chains)


@dataclass
class CompiledPlan:
    """Precompiled index tensors and aggregates of one execution plan.

    The per-pass tensors and aggregates are built eagerly (every
    consumer — cost models, ``plan.stats()``, the engines — needs
    them); the execution-only :attr:`window_jobs` schedule is built
    lazily on first engine use, so cost-model-only paths such as
    ``SALO.estimate`` never pay for it.
    """

    plan: "ExecutionPlan"
    n: int
    heads: int
    head_dim: int
    num_passes: int
    pad_rows: int  # R: padded PE-row count across all passes
    pad_cols: int  # C: padded PE-column count across all passes
    # -- per-pass padded tensors -------------------------------------
    q_ids: np.ndarray  # (P, R) int64, -1 on padding
    key_ids: np.ndarray  # (P, R, C) int64, -1 masked, globals excluded
    valid: np.ndarray  # (P, R, C) bool
    keep: np.ndarray  # (P, R) bool: rows merged by the window path
    rows_used: np.ndarray  # (P,) int64
    cols_used: np.ndarray  # (P,) int64
    # -- per-pass aggregates (single head) ---------------------------
    valid_counts: np.ndarray  # (P,) valid cells per pass (globals excluded)
    row_has_work: np.ndarray  # (P, R) bool: row has >= 1 valid cell
    distinct_per_pass: np.ndarray  # (P,) distinct keys streamed per pass
    q_loads: int  # query-buffer vector loads (block transitions)
    out_vectors: int  # partial output rows produced
    # -- global bookkeeping ------------------------------------------
    global_tokens: np.ndarray  # (G,) int64
    nonglobal_rows: np.ndarray  # (n - G,) int64
    global_batches: np.ndarray  # (B, L) int64 padded with -1
    global_batch_valid: np.ndarray  # (B, L) bool
    # -- batched execution schedule (lazy; see window_jobs) ----------
    _window_jobs: Optional[List[WindowJob]] = field(
        default=None, repr=False, compare=False
    )
    _job_chains: Optional[Tuple[JobChain, ...]] = field(
        default=None, repr=False, compare=False
    )
    # Per-plan execution scratch: engines key reusable buffers and
    # static per-(job, chunk) index tensors here, so warm ``attend()``
    # calls on a cached plan run with zero steady-state allocation.  The
    # dict lives with the plan (and hence with the SALO plan-cache
    # entry), not with any one engine instance.
    scratch: dict = field(default_factory=dict, repr=False, compare=False)

    # ------------------------------------------------------------------
    @property
    def window_jobs(self) -> List[WindowJob]:
        """The engine's execution schedule, built on first use."""
        if self._window_jobs is None:
            self._window_jobs = _build_window_jobs(
                self.plan, self.q_ids, self.valid, self.keep
            )
        return self._window_jobs

    @property
    def job_chains(self) -> Tuple[JobChain, ...]:
        """Same-geometry runs of :attr:`window_jobs`, built on first use."""
        if self._job_chains is None:
            self._job_chains = _build_job_chains(self.window_jobs, self.n)
        return self._job_chains

    def tile_shape(self, job: WindowJob, lanes: int) -> Tuple[int, int]:
        """``(lane tile T, block chunk Bc)`` for one window job.

        Sized so one tile's stage 1–5 working set — the gathered K/V
        stream blocks, the score rectangle, the band buffer and the
        stage-5 output — fits the configured ``tile_bytes`` budget and
        stays cache-resident across the fused epilogue.  A positive
        ``HardwareConfig.lane_tile`` overrides the derived lane tile.
        """
        cfg = self.plan.config
        d = self.head_dim
        rows, cols = job.rows, job.cols
        # Per lane, per block: score rectangle + 2 stream gathers per
        # segment, plus band, stage-5 output, queries and the row-shaped
        # epilogue vectors (all float64).
        elems = rows * cols + 2 * rows * d + 6 * rows
        for seg in job.segments:
            span = rows + seg.width - 1
            elems += rows * span + 2 * span * d
        per_block = 8 * job.num_groups * elems
        budget = max(int(cfg.tile_bytes), per_block)
        bc = max(1, min(job.num_blocks, budget // per_block))
        t = max(1, min(lanes, budget // (per_block * bc)))
        if cfg.lane_tile > 0:
            t = max(1, min(lanes, int(cfg.lane_tile)))
        return t, bc

    @property
    def total_valid_cells(self) -> int:
        """Window cells computed per head (global exclusions applied)."""
        return int(self.valid_counts.sum())

    @property
    def distinct_kv_vectors(self) -> int:
        """Distinct key/value vectors streamed per head across all passes."""
        return int(self.distinct_per_pass.sum())


def _topo_colgroups(plan: "ExecutionPlan") -> List[Tuple[int, List[List[int]]]]:
    """Per query group (in pass order): dilation + topo-ordered column groups.

    Job order must replay the merge order every query observes in the
    sequential pass stream: each query block runs its column groups in
    the group's master column order, but blocks clipped at the sequence
    boundary may *skip* column groups (the scheduler drops zero-valid
    passes), so the per-block sequences are subsequences of that master
    order.  A topological merge of the block sequences recovers it.
    """
    group_order: List[Tuple[int, int]] = []
    group_jobs: dict = {}  # (residue, dilation) -> {segments: [pass indices]}
    block_seqs: dict = {}  # (residue, dilation) -> {block start: [segments]}
    for i, tp in enumerate(plan.passes):
        gkey = (tp.query_residue, tp.dilation)
        if gkey not in group_jobs:
            group_order.append(gkey)
            group_jobs[gkey] = {}
            block_seqs[gkey] = {}
        group_jobs[gkey].setdefault(tp.segments, []).append(i)
        block_seqs[gkey].setdefault(tp.q_positions[0] if tp.q_positions else 0, []).append(
            tp.segments
        )

    per_group: List[Tuple[int, List[List[int]]]] = []
    for gkey in group_order:
        colgroups = list(group_jobs[gkey])  # first-appearance order
        succ = {c: set() for c in colgroups}
        indeg = {c: 0 for c in colgroups}
        for seq in block_seqs[gkey].values():
            for a, b in zip(seq, seq[1:]):
                if b not in succ[a]:
                    succ[a].add(b)
                    indeg[b] += 1
        ready = [c for c in colgroups if indeg[c] == 0]
        topo: List = []
        while ready:
            c = ready.pop(0)
            topo.append(c)
            for b in succ[c]:
                indeg[b] -= 1
                if indeg[b] == 0:
                    ready.append(b)
        if len(topo) != len(colgroups):  # pragma: no cover - inconsistent order
            # No consistent master order: degrade to one colgroup per
            # pass, which trivially preserves the sequential merge order.
            cols = [[i] for i in sorted(i for c in colgroups for i in group_jobs[gkey][c])]
        else:
            cols = [group_jobs[gkey][c] for c in topo]
        per_group.append((gkey[1], cols))
    return per_group


def _job_geometry(plan: "ExecutionPlan", idxs: List[int]):
    """(signature, block_step, segment protos) of one colgroup's passes.

    ``signature`` is ``None`` for irregular passes (non-contiguous query
    rows or unevenly spaced blocks); otherwise jobs with equal signatures
    have identical strided-view geometry and may batch into one family,
    differing only in gather bases and boundary masks.
    """
    tps = [plan.passes[i] for i in idxs]
    num_blocks = len(tps)
    rows = max(tp.rows_used for tp in tps)
    cols = tps[0].cols_used
    starts = [tp.q_positions[0] for tp in tps]
    contiguous = all(
        tp.q_positions == tuple(range(tp.q_positions[0], tp.q_positions[0] + tp.rows_used))
        for tp in tps
    )
    steps = {starts[b + 1] - starts[b] for b in range(num_blocks - 1)}
    if not contiguous or len(steps) > 1:
        return None, 0, ()
    block_step = steps.pop() if steps else rows
    seg_sig = tuple((seg.width, seg.dilation) for seg in tps[0].segments)
    bases = tuple(
        seg.key_residue + (starts[0] + seg.rel_lo) * seg.dilation for seg in tps[0].segments
    )
    return (num_blocks, rows, cols, block_step, seg_sig), block_step, bases


def _build_window_jobs(
    plan: "ExecutionPlan",
    q_ids: np.ndarray,
    valid: np.ndarray,
    keep: np.ndarray,
) -> List[WindowJob]:
    """Batch the pass stream into window-job families (see module docstring).

    Within each query group, column groups execute in the group's master
    order (``_topo_colgroups``).  Query groups of one dilation are
    disjoint residue classes, so within a consecutive run of same
    dilation groups the ``k``-th column groups are independent and
    same-geometry jobs batch into one family — all residue classes of a
    dilated band execute in a single set of GEMMs.  Groups of
    *different* dilations can share queries, so distinct runs stay in
    group order.
    """
    per_group = _topo_colgroups(plan)
    runs: List[List[List[List[int]]]] = []
    last_dil = None
    for dil, cols in per_group:
        if dil != last_dil or not runs:
            runs.append([])
            last_dil = dil
        runs[-1].append(cols)

    jobs: List[WindowJob] = []
    for run in runs:
        num_positions = max((len(g) for g in run), default=0)
        for k in range(num_positions):
            jobs.extend(_position_families(plan, run, k, q_ids, valid, keep))
    return tuple(jobs)


def _position_families(
    plan: "ExecutionPlan",
    run: List[List[List[int]]],
    k: int,
    q_ids: np.ndarray,
    valid: np.ndarray,
    keep: np.ndarray,
) -> List[WindowJob]:
    """Families for position ``k`` of one same-dilation run of groups."""
    n = plan.n
    buckets: dict = {}  # signature -> [(idxs, bases)]
    jobs: List[WindowJob] = []
    for g in run:
        if k >= len(g):
            continue
        sig, step, bases = _job_geometry(plan, g[k])
        if sig is None:
            raise IrregularPassError(
                f"passes {g[k]} have non-contiguous query rows or unevenly "
                "spaced blocks and cannot form a window job; only "
                "FunctionalEngine(plan, mode='legacy') executes them"
            )
        buckets.setdefault((sig, step), []).append((g[k], bases))
    for (sig, step), members in buckets.items():
        num_blocks, rows, cols, block_step, seg_sig = sig
        idx_arr = np.asarray([i for idxs, _ in members for i in idxs], dtype=np.int64)
        num_groups = len(members)
        job_q_ids = np.ascontiguousarray(
            q_ids[idx_arr][:, :rows].reshape(num_groups, num_blocks, rows)
        )
        job_valid = np.ascontiguousarray(
            valid[idx_arr][:, :rows, :cols].reshape(num_groups, num_blocks, rows, cols)
        )
        job_keep = np.ascontiguousarray(
            keep[idx_arr][:, :rows].reshape(num_groups, num_blocks, rows)
        )
        streams: List[SegmentStream] = []
        # Segment order == column order: the engine lays the
        # per-segment bands side by side along the column axis in this order.
        for s, (width, seg_dil) in enumerate(seg_sig):
            # Key id of group g at (b, r, t):
            # bases[g] + (b*step + r + t)*dil — one stream per group.
            length = (num_blocks - 1) * block_step + rows + width - 1
            offsets = np.arange(length, dtype=np.int64) * seg_dil
            bases_col = np.asarray([m[1][s] for m in members], dtype=np.int64)[:, None]
            streams.append(
                SegmentStream(
                    gather_ids=np.clip(bases_col + offsets, 0, n - 1),
                    width=width,
                    block_step=block_step,
                )
            )
        jobs.append(
            WindowJob(
                pass_indices=idx_arr,
                num_groups=num_groups,
                num_blocks=num_blocks,
                rows=rows,
                cols=cols,
                q_ids=job_q_ids,
                q_safe=job_q_ids.clip(min=0),
                valid=job_valid,
                keep=job_keep,
                segments=tuple(streams),
            )
        )
    return jobs


@dataclass
class PassIndex:
    """Per-pass structure of a pass list: the single index derivation.

    Everything downstream — the scheduler's zero-work filter, the padded
    ``(P, R, C)`` tensors, the traffic aggregates and the global-row
    schedule — reads these arrays, so a cold start sweeps the
    :class:`~repro.scheduler.plan.TilePass` objects exactly once
    (:func:`pass_index`).  The key id of pass ``i`` at PE row ``r``,
    column ``c`` is ``col_base[i, c] + qpos[i, r] * col_dil[i, c]``.

    ``stream`` lists each pass's *distinct* in-range keys (global tokens
    included — they stream through the array too).  Passes sharing a
    segment tuple and contiguous query rows repeat one duplicate
    structure shifted along the sequence, so the cells holding a pass's
    first occurrence of each key are found once per such family and
    evaluated for all its passes in one broadcast: ``R + W - 1`` keys
    per segment instead of ``R * W`` cells.
    """

    lengths: np.ndarray  # (P,) PE rows used
    cols_used: np.ndarray  # (P,) PE columns used
    residues: np.ndarray  # (P,) query residue
    dilations: np.ndarray  # (P,) query dilation
    qpos: np.ndarray  # (P, R) query group positions, 0 on padding
    col_base: np.ndarray  # (P, C) key id at group position 0, -1 on padding
    col_dil: np.ndarray  # (P, C) key-id advance per group position, 0 on padding
    stream: np.ndarray  # (P, F) distinct in-range keys, -1 on padding
    distinct: np.ndarray  # (P,) distinct in-range non-global keys

    def take(self, keep: np.ndarray) -> "PassIndex":
        """The index of the passes selected by the boolean ``keep``."""
        if keep.all():
            return self
        lengths, cols_used = self.lengths[keep], self.cols_used[keep]
        pad_rows = int(lengths.max()) if len(lengths) else 1
        pad_cols = int(cols_used.max()) if len(lengths) else 1
        return PassIndex(
            lengths=lengths,
            cols_used=cols_used,
            residues=self.residues[keep],
            dilations=self.dilations[keep],
            qpos=self.qpos[keep, :pad_rows],
            col_base=self.col_base[keep, :pad_cols],
            col_dil=self.col_dil[keep, :pad_cols],
            stream=self.stream[keep],
            distinct=self.distinct[keep],
        )


def _first_occurrence_cells(rel: np.ndarray, base: np.ndarray, dcol: np.ndarray):
    """(row, column) of the first cell, in row-major order, of each key.

    Row-major matters: a pass using only a prefix of ``rel`` (the last
    block of a group) keeps exactly the cells whose row survives.
    """
    keys = base[None, :] + rel[:, None] * dcol[None, :]
    _, first = np.unique(keys.ravel(), return_index=True)
    return np.divmod(first, len(base))


def pass_index(
    passes: Sequence["TilePass"], n: int, global_tokens: Sequence[int]
) -> PassIndex:
    """Derive the :class:`PassIndex` of ``passes`` (any pass list).

    One attribute sweep over the passes, then one broadcast per family:
    passes sharing a segment tuple have key ids of the closed form
    ``base[col] + q_position * dilation[col]``.  The distinct-key
    shortcut additionally needs the duplicate structure to be shift
    invariant (contiguous rows, one dilation); passes without it —
    the scheduler emits none — form families by exact row tuple.
    """
    num_passes = len(passes)
    lengths = np.fromiter(
        (len(tp.q_positions) for tp in passes), dtype=np.int64, count=num_passes
    )
    residues = np.fromiter(
        (tp.query_residue for tp in passes), dtype=np.int64, count=num_passes
    )
    dilations = np.fromiter((tp.dilation for tp in passes), dtype=np.int64, count=num_passes)
    seg_groups: dict = {}  # segment tuple -> [pass indices]
    for i, tp in enumerate(passes):
        seg_groups.setdefault(tp.segments, []).append(i)

    pad_rows = int(lengths.max()) if num_passes else 1
    seg_cols = {segs: sum(s.width for s in segs) for segs in seg_groups}
    pad_cols = max(seg_cols.values(), default=1)

    row_valid = np.arange(pad_rows, dtype=np.int64)[None, :] < lengths[:, None]
    qpos = np.zeros((num_passes, pad_rows), dtype=np.int64)
    qpos[row_valid] = np.fromiter(
        (p for tp in passes for p in tp.q_positions), dtype=np.int64, count=int(lengths.sum())
    )
    contiguous = (
        (qpos == qpos[:, :1] + np.arange(pad_rows, dtype=np.int64)) | ~row_valid
    ).all(axis=1)

    col_base = np.full((num_passes, pad_cols), -1, dtype=np.int64)
    col_dil = np.zeros((num_passes, pad_cols), dtype=np.int64)
    cols_used = np.empty(num_passes, dtype=np.int64)
    streams = []  # (pass indices, (P_f, F_f) keys with -1 where not streamed)
    for segs, idx in seg_groups.items():
        cols = seg_cols[segs]
        ia = np.asarray(idx, dtype=np.int64)
        base = np.concatenate(
            [
                s.key_residue + (s.rel_lo + np.arange(s.width, dtype=np.int64)) * s.dilation
                for s in segs
            ]
        )
        dcol = np.concatenate([np.full(s.width, s.dilation, dtype=np.int64) for s in segs])
        cols_used[ia] = cols
        col_base[ia, :cols] = base
        col_dil[ia, :cols] = dcol
        shift_invariant = len({s.dilation for s in segs}) == 1 and bool(contiguous[ia].all())
        if shift_invariant:
            families = [(ia, np.arange(int(lengths[ia].max()), dtype=np.int64))]
        else:
            by_rows: dict = {}
            for i in idx:
                by_rows.setdefault(passes[i].q_positions, []).append(i)
            families = [
                (np.asarray(members, dtype=np.int64), np.asarray(rows, dtype=np.int64))
                for rows, members in by_rows.items()
            ]
        for members, rel in families:
            rr, cc = _first_occurrence_cells(rel, base, dcol)
            keys = base[cc] + qpos[members[:, None], rr] * dcol[cc]
            streamed = (keys >= 0) & (keys < n) & (rr < lengths[members, None])
            streams.append((members, np.where(streamed, keys, -1)))

    stream = np.full(
        (num_passes, max((k.shape[1] for _, k in streams), default=1)), -1, dtype=np.int64
    )
    for members, keys in streams:
        stream[members, : keys.shape[1]] = keys
    counted = stream >= 0
    if len(global_tokens):
        counted &= ~np.isin(stream, np.asarray(global_tokens, dtype=np.int64))
    return PassIndex(
        lengths=lengths,
        cols_used=cols_used,
        residues=residues,
        dilations=dilations,
        qpos=qpos,
        col_base=col_base,
        col_dil=col_dil,
        stream=stream,
        distinct=counted.sum(axis=1).astype(np.int64),
    )


def _global_row_schedule(
    index: PassIndex, n: int, pe_cols: int
) -> Tuple[List[np.ndarray], int]:
    """Bulk equivalent of :meth:`ExecutionPlan.global_row_schedule`.

    A key's batch is determined by the *first* pass that streams it, so
    the sequential seen-set walk reduces to one scatter-min of pass
    indices over each pass's distinct keys.  Batches come out in
    first-pass order with tokens ascending — exactly the reference
    walk's output.
    """
    num_passes = len(index.lengths)
    streamed = index.stream >= 0
    first_pass = np.full(n, num_passes, dtype=np.int64)
    np.minimum.at(
        first_pass,
        index.stream[streamed],
        np.repeat(np.arange(num_passes, dtype=np.int64), streamed.sum(axis=1)),
    )
    tokens = np.flatnonzero(first_pass < num_passes)
    batches: List[np.ndarray] = []
    if tokens.size:
        owner = first_pass[tokens]
        regroup = np.argsort(owner, kind="stable")  # tokens stay ascending per batch
        tokens, owner = tokens[regroup], owner[regroup]
        cuts = np.flatnonzero(owner[1:] != owner[:-1]) + 1
        batches = [np.ascontiguousarray(b) for b in np.split(tokens, cuts)]
    remaining = np.flatnonzero(first_pass == num_passes)
    cleanup = 0
    for start in range(0, len(remaining), pe_cols):
        batches.append(remaining[start : start + pe_cols])
        cleanup += 1
    return batches, cleanup


def compile_plan(plan: "ExecutionPlan") -> CompiledPlan:
    """Precompute every structural tensor of ``plan`` (see module docstring)."""
    n = plan.n
    # The scheduler leaves the index it filtered the passes with on the
    # plan; hand-built plans derive it here through the same function.
    index, plan._index = plan._index, None
    if index is None:
        index = pass_index(plan.passes, n, plan.global_tokens)
    rows_used, cols_used = index.lengths, index.cols_used
    num_passes = len(rows_used)
    pad_rows, pad_cols = index.qpos.shape[1], index.col_base.shape[1]

    row_valid = np.arange(pad_rows, dtype=np.int64)[None, :] < rows_used[:, None]
    q_ids = np.where(
        row_valid, index.residues[:, None] + index.qpos * index.dilations[:, None], -1
    )
    key_ids = np.multiply(index.qpos[:, :, None], index.col_dil[:, None, :])
    key_ids += index.col_base[:, None, :]
    valid = (key_ids >= 0) & (key_ids < n)
    valid &= row_valid[:, :, None]
    gtok = np.asarray(plan.global_tokens, dtype=np.int64)
    keep = row_valid
    if len(gtok):
        valid &= ~np.isin(key_ids, gtok)
        keep = row_valid & ~np.isin(q_ids, gtok)
    np.putmask(key_ids, ~valid, -1)

    valid_counts = valid.sum(axis=(1, 2)).astype(np.int64)
    row_has_work = valid.any(axis=2)

    # Traffic aggregates (see buffers.plan_traffic): distinct keys per
    # pass, query-buffer loads per query-block transition, output rows.
    same_block = np.zeros(num_passes, dtype=bool)
    same_block[1:] = (
        (index.residues[1:] == index.residues[:-1])
        & (index.dilations[1:] == index.dilations[:-1])
        & (rows_used[1:] == rows_used[:-1])
        & (index.qpos[1:] == index.qpos[:-1]).all(axis=1)
    )
    q_loads = int(rows_used[~same_block].sum())
    out_vectors = int(row_has_work.sum())

    mask = np.ones(n, dtype=bool)
    if len(gtok):
        mask[gtok] = False
    nonglobal_rows = np.flatnonzero(mask)

    if len(gtok):
        if plan._schedule is None:
            # Pre-populate the plan's memo so neither engine ever pays
            # for the per-pass Python walk (kept as the reference; see
            # tests/scheduler/test_compiled.py).
            plan._schedule = _global_row_schedule(index, n, plan.config.pe_cols)
        batches = plan.global_row_schedule()
        max_len = max((len(b) for b in batches), default=1)
        global_batches = np.full((len(batches), max_len), -1, dtype=np.int64)
        for i, b in enumerate(batches):
            global_batches[i, : len(b)] = b
        global_batch_valid = global_batches >= 0
    else:
        global_batches = np.empty((0, 1), dtype=np.int64)
        global_batch_valid = np.empty((0, 1), dtype=bool)

    return CompiledPlan(
        plan=plan,
        n=n,
        heads=plan.heads,
        head_dim=plan.head_dim,
        num_passes=num_passes,
        pad_rows=pad_rows,
        pad_cols=pad_cols,
        q_ids=q_ids,
        key_ids=key_ids,
        valid=valid,
        keep=keep,
        rows_used=rows_used,
        cols_used=cols_used,
        valid_counts=valid_counts,
        row_has_work=row_has_work,
        distinct_per_pass=index.distinct,
        q_loads=q_loads,
        out_vectors=out_vectors,
        global_tokens=gtok,
        nonglobal_rows=nonglobal_rows,
        global_batches=global_batches,
        global_batch_valid=global_batch_valid,
    )
