"""Compiled execution plans: precomputed index tensors for batched engines.

Tile passes are *structural*: the gather indices, validity masks and
global-token exclusions of a pass are identical across attention heads and
across every ``attend()`` call that reuses the same plan.  The seed
implementation nevertheless re-derived them from scratch for each head of
each call (``TilePass.key_ids`` concatenates segments and runs ``np.isin``
per head x pass).  :class:`CompiledPlan` performs that derivation exactly
once per :class:`~repro.scheduler.plan.ExecutionPlan` and stores:

* padded per-pass tensors — ``q_ids`` ``(P, R)``, ``valid`` ``(P, R, C)``
  with sequence clipping *and* global-token exclusion baked in, and
  ``keep`` ``(P, R)`` non-global row masks — consumed by the cost
  models, ``plan.stats()`` and the window-job builder.  The key ids
  themselves are not stored: nothing that executes reads them once
  ``valid`` is derived, and at ``(P, R, C)`` int64 they would be
  several times everything else a plan holds.  The plan keeps the
  closed form's small pieces (``qpos``, ``col_base``, ``col_dil``) and
  ``key_ids`` is a property that expands them on demand, for tests and
  tools;
* **window jobs** — the pass stream regrouped by
  ``(query group, column group, block run)``.  Within a job every pass
  shares its segment tuple and its query block starts advance uniformly,
  so each segment's key stream is one arithmetic sequence: the engine
  reads a single ``(L, d)`` key block per segment through an overlapping
  ``as_strided`` window view — the numpy analogue of the accelerator's
  diagonal k/v connections (Section 5.2) — instead of materialising
  ``(passes, rows, cols, d)`` gathers, and where the sequence is a
  contiguous id range (every undilated band; recorded as
  ``SegmentStream.start`` / ``WindowJob.q_start``) that block is a slice
  of the operand, not a gather.  Each query group's blocks are cut into
  the *interior* — the run of blocks in which every column group is
  live — and the leading/trailing *edges*, where sequence clipping
  dropped some; interior jobs then all cover the same blocks and fold
  into one :class:`JobChain` (one shared stage-1 GEMM, merge state held
  on accumulator views).  In a plan whose queries start late
  (``first_query > 0``) the block straddling the first query is a fourth
  part, cut to start at it, so no job computes a row below the first
  query.  Job order preserves the per-query weighted-sum merge order: a
  query block lives in exactly one part and receives its parts from its
  column groups in the group's master order there, exactly as in the
  pass stream, keeping outputs bit-identical to the per-pass reference
  engine;
* the global-row batch schedule (padded) shared with the micro-simulator;
* per-pass aggregates (valid cells, distinct keys, query loads, output
  vectors) reused by the timing/energy/traffic models.

A :class:`CompiledPlan` is a *value*: frozen, built from the pass list
alone, holding no reference back to the plan it was compiled from (the
plan refers to it, never the reverse, so dropping the last plan
reference frees both by refcount) and nothing any engine writes.  What
only execution needs is one further value, the
:class:`ExecutionSchedule` (:attr:`CompiledPlan.schedule`): the window
jobs — each with its masked block run, float validity mask and
padded-tail key-id views — their chains, the operand slab margins, the
global-token range start and the global-row length buckets with their
key matrices and range starts.  It is derived once, on first engine
use, so cost-model-only traffic (``SALO.estimate``, the cluster
simulator) never builds it, and nothing in it is keyed by a chunk, a
lane count or an engine: what a cached plan retains is a function of
the plan alone.

Obtain instances through :meth:`ExecutionPlan.compiled`, which memoizes
the compilation on the plan object.

Every index fact is derived from one :class:`PassIndex` — a single sweep
over the :class:`~repro.scheduler.plan.TilePass` objects.  The scheduler
builds it to drop zero-work passes and leaves it on the plan, so a cold
start (``schedule`` -> ``compiled()``) never derives a fact twice and
never walks the passes with per-pass numpy calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (plan -> compiled)
    from .plan import ExecutionPlan, TilePass

__all__ = [
    "CompiledPlan",
    "ExecutionSchedule",
    "GlobalRowBucket",
    "IrregularPassError",
    "JobChain",
    "PassIndex",
    "SegmentStream",
    "WindowJob",
    "compile_plan",
    "pass_index",
]


#: Working-set budget of one block chunk of a window job, all lanes
#: included (see :meth:`CompiledPlan.chunk_blocks`): roughly the share of
#: the host's last-level cache one chunk's stages 1-5 should occupy.
CHUNK_BYTES = 4 * 1024 * 1024


class IrregularPassError(ValueError):
    """Raised when a pass has no strided window-job geometry.

    A pass whose query rows are not consecutive group positions — only a
    hand-built pass list can hold one.  Nothing
    :meth:`DataScheduler.schedule` emits raises this: its passes map
    contiguous rows, and a column group with a block missing inside (a
    zero-work pass the scheduler dropped) is cut into its evenly spaced
    runs (:func:`_even_runs`).  The per-pass reference engine
    (``FunctionalEngine(plan, mode="legacy")``), which never builds
    window jobs, executes any pass list.
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
    # Contiguity fact, verified by comparison on the column group's whole
    # stream (of which this is a slice): with one group,
    # ``gather_ids[0] == clip(arange(start, start + L), 0, n - 1)`` and
    # engines slice the stream out of an edge-padded operand instead of
    # gathering it.  ``None`` for dilated bands and ``G > 1``.
    start: Optional[int] = None


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
    # The run of blocks ``[m0, m1)`` from the first to the last with an
    # invalid cell, and ``valid`` over it as float64 ``(1, G, m1 - m0, R,
    # C)``: the stage-2 mask.  Multiplying by an all-ones mask is exact,
    # so engines skip the all-valid blocks outside the run.
    masked: Tuple[int, int]
    validf: np.ndarray
    # Per segment, the key ids under the job's band as ``(G, B, R, W)``
    # views of ``gather_ids`` (they own no memory): cell ``(g, b, r, t)``
    # holds the sequence index of the key whose score the band carries
    # there (clipped cells are covered by ``valid`` and may carry any
    # id).  Read by padded-tail masking only.
    key_views: Tuple[np.ndarray, ...]
    # With one group: every non-padding cell of the flattened ``q_ids``
    # equals ``q_start`` + its flat position (verified by comparison on
    # the whole column group), so the query blocks are one slice of the
    # operand.  Padding rows (a short last block) then read a
    # neighbouring row instead of row 0; ``valid`` masks them either way.
    q_start: Optional[int] = None


@dataclass(frozen=True)
class JobChain:
    """A maximal run of consecutive same-geometry window jobs.

    Jobs of one chain share ``q_ids`` and ``keep`` bit for bit, so every
    job contributes a part to exactly the same (group, block, row) cells.
    The per-query weighted-sum chain therefore runs on chain-local state:
    seeded from the accumulator before the first job (all zeros when no
    earlier job touched its queries), merged job by job in schedule
    order, and committed back by plain assignment — exactly what the
    sequential per-job accumulator merges would have left there.

    ``flat_keep`` / ``flat_q`` are the static commit indices: positions
    of kept cells in the flattened ``(G * B * R)`` cell axis and the
    query ids they map to, precomputed once per plan.

    What forms a chain: the column groups of one query group cover
    *different* block ranges, because blocks clipped at a sequence edge
    drop the column groups that fall off it, so whole column groups
    never share ``q_ids``.  :func:`_build_window_jobs` therefore cuts
    each query group's block axis into the interior (every column group
    live) and the two edges; all interior jobs of a group have equal
    ``q_ids`` and fold into one chain that carries the bulk of the
    passes, and the edge jobs chain wherever their block ranges happen
    to coincide.

    When every job of the chain streams a single key segment and the
    segments are adjacent column slices of one window band — what window
    splitting makes of a band wider than the PE array — the chain also
    carries the *wide stream*: the union of all jobs' key streams
    (``wide_ids``) plus each job's column offset into it
    (``wide_offsets``).  Engines then read K/V once per chunk for the
    whole chain and run one banded stage-1 GEMM spanning every job's
    columns, instead of one overlapping stream + GEMM per job.
    """

    jobs: Tuple[int, ...]  # indices into CompiledPlan.window_jobs
    flat_keep: np.ndarray  # (M,) int64 indices into flattened (G*B*R)
    flat_q: np.ndarray  # (M,) int64 query ids of the kept cells
    wide_ids: Optional[np.ndarray] = None  # (G, L) combined stream key ids
    wide_offsets: Optional[Tuple[int, ...]] = None  # per-job column offset
    # Contiguity facts, verified by direct comparison at build time, that
    # let engines replace gathers with slices (see FunctionalEngine; the
    # jobs' shared query range is ``WindowJob.q_start``):
    wide_start: Optional[int] = None  # as SegmentStream.start, for wide_ids
    keep_all: bool = False  # every (group, block, row) cell is merged
    keep_slice: Optional[Tuple[int, int]] = None  # (k0, q0): both flat aranges


def _unmasked_key_ids(qpos: np.ndarray, col_base: np.ndarray, col_dil: np.ndarray) -> np.ndarray:
    """``(P, R, C)`` key ids of the closed form (see :class:`PassIndex`), no masking."""
    ids = np.multiply(qpos[:, :, None], col_dil[:, None, :])
    ids += col_base[:, None, :]
    return ids


def _arange_start(a: np.ndarray) -> Optional[int]:
    """Start value when ``a`` is exactly a contiguous ascending range."""
    if a.size == 0:
        return None
    s = int(a[0])
    if int(a[-1]) - s != a.size - 1:
        return None
    return s if np.array_equal(a, np.arange(s, s + a.size)) else None


def _clamp(ids: np.ndarray, n: int) -> np.ndarray:
    """``np.clip(ids, 0, n - 1)`` as two ufunc calls (a fraction of its cost)."""
    return np.minimum(np.maximum(ids, 0), n - 1)


def _clipped_arange_start(a: np.ndarray, n: int) -> Optional[int]:
    """Start ``s`` when ``a == clip(arange(s, s + len(a)), 0, n - 1)``.

    The window schedule's key streams are ranges with their out-of-range
    head/tail clamped by the gather-safety clip.  ``s`` is recovered from
    an element the clip cannot have moved — the first positive id (a
    stream clamped at its head is zeros up to there) — and the whole
    array is then re-verified, which keeps this exact for any input.
    """
    if a.size == 0:
        return None
    positive = np.flatnonzero(a > 0)
    # All zeros: clamped throughout, the range ends at id 0.
    i = int(positive[0]) if positive.size else a.size - 1
    s = int(a[i]) - i
    return s if np.array_equal(a, _clamp(np.arange(s, s + a.size), n)) else None


def _padded_arange_start(a: np.ndarray) -> Optional[int]:
    """Start ``s`` when ``a[i] == s + i`` wherever ``a[i] >= 0`` (padding is -1)."""
    real = a >= 0
    if not real.any():
        return None
    i = int(real.argmax())
    s = int(a[i]) - i
    return s if np.array_equal(a[real], np.arange(s, s + a.size)[real]) else None


def _wide_stream(jobs) -> Tuple[Optional[np.ndarray], Optional[Tuple[int, ...]]]:
    """Combined key stream of a chain, when its jobs slice one band.

    Grows the union stream job by job and verifies — by direct array
    comparison, not by construction — that each job's single key-stream
    segment *is* the union from its column offset (the widths before it)
    on; whatever reaches past the union so far is appended.  Comparing
    against the union rather than the first job's stream keeps chains
    whose column span exceeds one job's stream (few blocks, many column
    groups).  Any mismatch (multi-segment jobs, differing block steps,
    a gap between columns) returns ``(None, None)`` and the engine runs
    the chain's jobs one by one.
    """
    if any(len(j.segments) != 1 for j in jobs):
        return None, None
    segs = [j.segments[0] for j in jobs]
    if any(s.block_step != segs[0].block_step for s in segs):
        return None, None
    wide = segs[0].gather_ids
    offsets = [0]
    for prev, seg in zip(segs, segs[1:]):
        off = offsets[-1] + prev.width
        have = wide.shape[1] - off  # columns of this stream already in the union
        ids = seg.gather_ids
        if have < 0 or not np.array_equal(ids[:, :have], wide[:, off : off + ids.shape[1]]):
            return None, None
        if ids.shape[1] > have:
            wide = np.concatenate([wide, ids[:, have:]], axis=1)
        offsets.append(off)
    return np.ascontiguousarray(wide), tuple(offsets)


def _build_job_chains(jobs, n: int) -> Tuple[JobChain, ...]:
    """Group the job schedule into chains (see :class:`JobChain`)."""
    chains: List[JobChain] = []
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
        wide_ids, wide_offsets = _wide_stream(jobs[i:j])
        wide_start: Optional[int] = None
        if wide_ids is not None and a.num_groups == 1:
            wide_start = _clipped_arange_start(wide_ids[0], n)
        keep_all = bool(a.keep.all())
        k0 = _arange_start(flat_keep)
        q0 = _arange_start(flat_q)
        keep_slice = (k0, q0) if k0 is not None and q0 is not None else None
        chains.append(
            JobChain(
                jobs=tuple(range(i, j)),
                flat_keep=flat_keep,
                flat_q=flat_q,
                wide_ids=wide_ids,
                wide_offsets=wide_offsets,
                wide_start=wide_start,
                keep_all=keep_all,
                keep_slice=keep_slice,
            )
        )
        i = j
    return tuple(chains)


@dataclass(frozen=True)
class GlobalRowBucket:
    """The global-row batches of one length: stages 1-5 run as one GEMM."""

    batches: np.ndarray  # (nb,) indices into CompiledPlan.global_batches
    keys: np.ndarray  # (nb, L) int64 key ids, contiguous
    # Adjacent batches usually tile the sequence, and then the flattened
    # key matrix is one id range starting here: a slice of the slabs.
    start: Optional[int]


@dataclass(frozen=True)
class ExecutionSchedule:
    """Everything only execution reads, derived once per plan.

    A function of the compiled plan alone — no chunk, lane count or
    engine enters it — so engines hold no per-plan memo of their own.
    """

    window_jobs: Tuple[WindowJob, ...]
    job_chains: Tuple[JobChain, ...]
    # Largest (head, tail) overhang of any range-shaped id stream: key
    # streams and query blocks that are clip-clamped contiguous ranges
    # may overhang the sequence at either end, and padding the operand
    # slabs by these margins turns every chunk of every such stream
    # into a pure slice.
    slab_margins: Tuple[int, int]
    global_start: Optional[int]  # the global tokens are the range starting here
    global_buckets: Tuple[GlobalRowBucket, ...]  # by ascending batch length


@dataclass(frozen=True, eq=False)
class CompiledPlan:
    """Precompiled index tensors and aggregates of one execution plan.

    The per-pass tensors and aggregates are built eagerly (every
    consumer — cost models, ``plan.stats()``, the engines — needs
    them); the execution-only :attr:`schedule` is derived on first
    engine use, so cost-model-only paths such as ``SALO.estimate``
    never pay for it.
    """

    n: int
    heads: int
    head_dim: int
    passes: Tuple["TilePass", ...]  # what the schedule is derived from
    num_passes: int
    pad_rows: int  # R: padded PE-row count across all passes
    pad_cols: int  # C: padded PE-column count across all passes
    # -- per-pass padded tensors -------------------------------------
    q_ids: np.ndarray  # (P, R) int64, -1 on padding
    valid: np.ndarray  # (P, R, C) bool
    keep: np.ndarray  # (P, R) bool: rows merged by the window path
    rows_used: np.ndarray  # (P,) int64
    cols_used: np.ndarray  # (P,) int64
    # Closed form of the key ids (see PassIndex): cell (p, r, c) holds
    # ``qpos[p, r] * col_dil[p, c] + col_base[p, c]`` where ``valid``.
    qpos: np.ndarray  # (P, R) int64
    col_base: np.ndarray  # (P, C) int64
    col_dil: np.ndarray  # (P, C) int64
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
    first_query: int  # as ExecutionPlan.first_query: no row below it is computed

    # ------------------------------------------------------------------
    @property
    def key_ids(self) -> np.ndarray:
        """``(P, R, C)`` int64 key ids, ``-1`` where not ``valid``; derived per call."""
        return np.where(self.valid, _unmasked_key_ids(self.qpos, self.col_base, self.col_dil), -1)

    @cached_property
    def schedule(self) -> ExecutionSchedule:
        """The :class:`ExecutionSchedule`, derived on first use."""
        return _build_schedule(self)

    @property
    def window_jobs(self) -> Tuple[WindowJob, ...]:
        """The window jobs of :attr:`schedule`."""
        return self.schedule.window_jobs

    @property
    def job_chains(self) -> Tuple[JobChain, ...]:
        """Same-geometry runs of :attr:`window_jobs` (see :attr:`schedule`)."""
        return self.schedule.job_chains

    def chunk_blocks(self, job: WindowJob, lanes: int) -> int:
        """Query blocks of ``job`` the engine runs per chunk, on all ``lanes``.

        The one tiling level of the production path: every stage runs on
        the whole lane axis of one block chunk, and the chunk is the
        largest whose stage 1–5 working set — per lane and block the
        score rectangle and two stream windows per segment, plus band,
        stage-5 output, queries and the row-shaped epilogue vectors, all
        float64 — stays within :data:`CHUNK_BYTES` *across the lanes*.
        Two reasons for exactly this rule.  The budget covers the whole
        chunk, not one lane of it, because that is what bounds the
        scratch arena: sized per lane, scratch grows with lanes x budget
        (measured with the repo benchmark: ``serve_burst`` peak RSS
        +19.5%).  And the division rounds *up*: per-chunk call overhead
        outweighs cache fit, so a floor that leaves 2-block chunks at
        12 lanes reads 1.13x the attend time of the ceiling.  Sized
        from the chain's first job even when the chain runs wide (one
        stage-1 rectangle spanning every job's columns): shrinking the
        chunk for wide chains only costs calls.
        """
        d = self.head_dim
        rows, cols = job.rows, job.cols
        elems = rows * cols + 2 * rows * d + 6 * rows
        for seg in job.segments:
            span = rows + seg.width - 1
            elems += rows * span + 2 * span * d
        units = CHUNK_BYTES // (8 * job.num_groups * elems)  # (lane, block) pairs
        return max(1, min(job.num_blocks, -(-units // lanes)))

    @property
    def total_valid_cells(self) -> int:
        """Window cells computed per head (global exclusions applied)."""
        return int(self.valid_counts.sum())

    @property
    def distinct_kv_vectors(self) -> int:
        """Distinct key/value vectors streamed per head across all passes."""
        return int(self.distinct_per_pass.sum())


def _topo_colgroups(passes: Sequence["TilePass"]) -> List[Tuple[int, List[List[int]]]]:
    """Per query group (in pass order): dilation + topo-ordered column groups.

    Job order must replay the merge order every query observes in the
    sequential pass stream: each query block runs its column groups in
    the group's master column order, but blocks clipped at the sequence
    boundary may *skip* column groups (the scheduler drops zero-valid
    passes), so the per-block sequences are subsequences of that master
    order.  A topological merge of the block sequences recovers it.
    """
    group_order: List[Tuple[int, int]] = []
    group_jobs: dict = {}  # (residue, dilation) -> {column group: [pass indices]}
    block_seqs: dict = {}  # (residue, dilation) -> {block start: [column groups]}
    # Column groups are numbered by segment tuple.  The scheduler hands
    # every block of a group the same tuple object, so the number is
    # looked up by identity and a tuple is hashed once, not once per pass.
    by_id: dict = {}
    by_value: dict = {}
    for i, tp in enumerate(passes):
        gkey = (tp.query_residue, tp.dilation)
        if gkey not in group_jobs:
            group_order.append(gkey)
            group_jobs[gkey] = {}
            block_seqs[gkey] = {}
        cg = by_id.get(id(tp.segments))
        if cg is None:
            cg = by_id[id(tp.segments)] = by_value.setdefault(tp.segments, len(by_value))
        group_jobs[gkey].setdefault(cg, []).append(i)
        block_seqs[gkey].setdefault(tp.q_positions[0] if tp.q_positions else 0, []).append(cg)

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


@dataclass(frozen=True)
class _ColumnRun:
    """Every block of one (query group, column group), derived once.

    Window jobs are block ranges ``[a, b)`` of a column run: their
    tensors are slices of the run's and their contiguity facts are the
    run's, shifted by ``a`` blocks — so each fact is verified by one
    comparison per column group, however many jobs it is cut into.  In
    a plan with ``first_query > 0`` the block that straddles the first
    query is a one-block run of its own whose rows start at the first
    query (:func:`_column_run`'s ``skip``): no row below it is computed.
    """

    idxs: np.ndarray  # (B,) pass indices in block order
    lengths: Tuple[int, ...]  # rows used per block
    first_block: int  # group position of block 0's first query
    block_step: int  # group positions from one block to the next
    cols: int
    seg_sig: Tuple[Tuple[int, int], ...]  # (width, dilation) per segment
    q_ids: np.ndarray  # (B, R) int64, -1 on padding
    valid: np.ndarray  # (B, R, C) bool
    keep: np.ndarray  # (B, R) bool
    streams: Tuple[np.ndarray, ...]  # per segment: (L,) key ids, clipped
    starts: Tuple[Optional[int], ...]  # per segment, as SegmentStream.start
    q_start: Optional[int]  # as WindowJob.q_start


#: A block range ``[a, b)`` of a column run: one member of a window job.
_Cut = Tuple[_ColumnRun, int, int]


def _even_runs(idxs: List[int], q_ids: np.ndarray) -> List[List[int]]:
    """One column group's passes cut into maximal evenly spaced block runs.

    The scheduler drops zero-work passes, and the dropped block can sit
    in the *middle* of a column group (its in-range keys are all global
    tokens, or the group packs segments of two bands in range at
    opposite sequence ends only), leaving a gap in the block grid.  Each
    run is a regular column group of its own; the runs cover disjoint
    blocks and stay consecutive in master order, so no query's merge
    order moves.
    """
    steps = np.diff(q_ids[idxs, 0])
    runs, a = [], 0
    for i in range(1, len(steps)):
        if steps[i] != steps[a]:
            runs.append(idxs[a : i + 1])
            a = i + 1
    runs.append(idxs[a:])
    return runs


def _column_run(
    passes: Sequence["TilePass"],
    n: int,
    idxs: List[int],
    dilation: int,
    q_ids: np.ndarray,
    valid: np.ndarray,
    keep: np.ndarray,
    skip: int = 0,
) -> _ColumnRun:
    """The :class:`_ColumnRun` of one evenly spaced run of passes, or raise.

    Strided window-job geometry needs contiguous query rows in every
    pass (consecutive group positions are ``dilation`` ids apart); any
    block range of such a run is regular too, so the check runs here, on
    the whole run, and the error names every pass of it.

    ``skip`` drops the first rows of a one-block run: the block that
    straddles a plan's first query starts at its first live row, so its
    query ids, masks, key streams and range facts all begin there.
    """
    ia = np.asarray(idxs, dtype=np.int64)
    q = q_ids[ia, skip:]
    if not ((np.diff(q, axis=1) == dilation) | (q[:, 1:] < 0)).all():
        raise IrregularPassError(
            f"passes {idxs} have non-contiguous query rows and cannot form a "
            "window job; only FunctionalEngine(plan, mode='legacy') executes them"
        )
    lengths = (q >= 0).sum(axis=1)
    rows = int(lengths.max())
    first = passes[idxs[0]]
    cols = first.cols_used
    first_block = first.q_positions[0] + skip
    block_step = passes[idxs[1]].q_positions[0] - first_block if len(idxs) > 1 else rows
    q = np.ascontiguousarray(q[:, :rows])
    streams, starts = [], []
    for seg in first.segments:
        # Key id at (block b, row r, column t): base + (b*step + r + t)*dil.
        base = seg.key_residue + (first_block + seg.rel_lo) * seg.dilation
        length = (len(idxs) - 1) * block_step + rows + seg.width - 1
        offsets = np.arange(length, dtype=np.int64) * seg.dilation
        streams.append(_clamp(base + offsets, n))
        starts.append(_clipped_arange_start(streams[-1], n))
    return _ColumnRun(
        idxs=ia,
        lengths=tuple(lengths.tolist()),
        first_block=first_block,
        block_step=block_step,
        cols=cols,
        seg_sig=tuple((seg.width, seg.dilation) for seg in first.segments),
        q_ids=q,
        valid=np.ascontiguousarray(valid[ia][:, skip : skip + rows, :cols]),
        keep=np.ascontiguousarray(keep[ia][:, skip : skip + rows]),
        streams=tuple(streams),
        starts=tuple(starts),
        q_start=_padded_arange_start(q.ravel()),
    )


def _split_blocks(cols: List[_ColumnRun]) -> List[List[_Cut]]:
    """One query group's column runs cut into [interior, leading, trailing].

    The *interior* is the run of query blocks in which every column group
    is live; blocks before and after it (clipped at a sequence edge, so
    some column groups were dropped there) are the leading and trailing
    *edge*.  Each part lists the group's column runs restricted to its
    blocks, master order kept and empty ones dropped.  Blocks are told
    apart by their start position alone, so every query block lands in
    exactly one part.  Column runs are evenly spaced, so the interior
    spans the latest first block to the earliest last one; a group where
    that span is empty, or whose column runs do not share one block grid
    across it, stays whole.
    """
    whole: List[List[_Cut]] = [[(c, 0, len(c.idxs)) for c in cols], [], []]
    if not cols:
        return whole
    lo = max(c.first_block for c in cols)
    hi = min(c.first_block + (len(c.idxs) - 1) * c.block_step for c in cols)
    steps = {c.block_step for c in cols if len(c.idxs) > 1} or {1}
    step = min(steps)
    if lo > hi or len(steps) > 1 or step <= 0 or any((lo - c.first_block) % step for c in cols):
        return whole
    parts: List[List[_Cut]] = [[], [], []]
    for c in cols:
        a = (lo - c.first_block) // step
        b = a + (hi - lo) // step + 1
        for part, (x, y) in zip(parts, ((a, b), (0, a), (b, len(c.idxs)))):
            if x < y:
                part.append((c, x, y))
    return parts


def _build_window_jobs(
    passes: Sequence["TilePass"],
    n: int,
    q_ids: np.ndarray,
    valid: np.ndarray,
    keep: np.ndarray,
    first_query: int,
) -> Tuple[WindowJob, ...]:
    """Batch the pass stream into window-job families (see module docstring).

    Within each query group, column groups execute in the group's master
    order (``_topo_colgroups``).  Query groups of one dilation are
    disjoint residue classes, so within a consecutive run of same
    dilation groups the ``k``-th column groups are independent and
    same-geometry jobs batch into one family — all residue classes of a
    dilated band execute in a single set of GEMMs.  Groups of
    *different* dilations can share queries, so distinct runs stay in
    group order.

    Each run is emitted as consecutive sub-runs — the interiors of its
    groups, then their leading and their trailing edges
    (:func:`_split_blocks`) — so that all interior jobs of a group cover
    the same blocks and fold into one :class:`JobChain`.  The regrouping
    cannot reorder any query's merges: a query block lives in exactly
    one sub-run, there its column groups still run in master order, and
    the sub-runs of one same-dilation run cover disjoint queries.

    A plan whose queries start late (``first_query > 0``) computes no row
    below its first query: in the block that straddles it (the first of
    its column runs the scheduler kept), every column group's pass is
    cut into a column run of its own that starts at the first live row,
    and these form a fourth sub-run.  The cut reads ``first_query``
    only — a global query row is left out of ``keep`` but still
    computed — and leaves the passes themselves, so every cost model,
    untouched: the hardware still spends the full PE block.
    """
    runs: List[List[List[List[_Cut]]]] = []  # per run, per group: its sub-runs
    last_dil = None
    for dil, cols in _topo_colgroups(passes):
        if dil != last_dil or not runs:
            runs.append([])
            last_dil = dil
        whole, trimmed = [], []
        for idxs in cols:
            for run in _even_runs(idxs, q_ids):
                ids = q_ids[run[0]]
                skip = int(np.count_nonzero((ids >= 0) & (ids < first_query)))
                if skip:
                    head = _column_run(passes, n, run[:1], dil, q_ids, valid, keep, skip)
                    trimmed.append((head, 0, 1))
                    run = run[1:]
                if run:
                    whole.append(_column_run(passes, n, run, dil, q_ids, valid, keep))
        runs[-1].append(_split_blocks(whole) + [trimmed])

    jobs: List[WindowJob] = []
    for run in runs:
        for sub in zip(*run):
            for k in range(max(len(g) for g in sub)):
                jobs.extend(_position_families([g[k] for g in sub if k < len(g)]))
    return tuple(jobs)


def _build_schedule(cp: CompiledPlan) -> ExecutionSchedule:
    """Derive the :class:`ExecutionSchedule` of a compiled plan."""
    jobs = _build_window_jobs(cp.passes, cp.n, cp.q_ids, cp.valid, cp.keep, cp.first_query)
    chains = _build_job_chains(jobs, cp.n)
    ranges = [(ch.wide_start, ch.wide_ids.shape[1]) for ch in chains if ch.wide_ids is not None]
    for job in jobs:
        ranges.append((job.q_start, job.q_ids.size))
        ranges += [(seg.start, seg.gather_ids.shape[1]) for seg in job.segments]
    head = tail = 0
    for start, length in ranges:
        if start is not None:
            head = max(head, -start)
            tail = max(tail, start + length - cp.n)
    lengths = cp.global_batch_valid.sum(axis=1)
    buckets = []
    for length in np.unique(lengths):
        batches = np.flatnonzero(lengths == length)
        keys = np.ascontiguousarray(cp.global_batches[batches, :length])
        buckets.append(GlobalRowBucket(batches, keys, _arange_start(keys.ravel())))
    return ExecutionSchedule(
        window_jobs=jobs,
        job_chains=chains,
        slab_margins=(head, tail),
        global_start=_arange_start(cp.global_tokens),
        global_buckets=tuple(buckets),
    )


def _stack(blocks: List[np.ndarray]) -> np.ndarray:
    """Contiguous ``(G, ...)`` stack of per-group arrays; no copy for one."""
    if len(blocks) == 1:
        return np.ascontiguousarray(blocks[0][None])
    return np.stack(blocks)


def _position_families(cuts: List[_Cut]) -> List[WindowJob]:
    """Families among the ``k``-th cuts of one same-dilation sub-run of groups.

    Cuts with equal signatures have identical strided-view geometry and
    batch into one job, differing only in gather bases and boundary
    masks.
    """
    buckets: dict = {}  # signature -> cuts
    for c, a, b in cuts:
        rows = max(c.lengths[a:b])
        block_step = c.block_step if b - a > 1 else rows
        sig = (b - a, rows, c.cols, block_step, c.seg_sig)
        buckets.setdefault(sig, []).append((c, a, b))
    jobs: List[WindowJob] = []
    for (num_blocks, rows, cols, block_step, seg_sig), members in buckets.items():
        c0, a0, _ = members[0]
        lone = len(members) == 1  # range facts describe a single group's ids
        job_q_ids = _stack([c.q_ids[a:b, :rows] for c, a, b in members])
        streams: List[SegmentStream] = []
        # Segment order == column order: the engine lays the
        # per-segment bands side by side along the column axis in this order.
        for s, (width, _) in enumerate(seg_sig):
            length = (num_blocks - 1) * block_step + rows + width - 1
            streams.append(
                SegmentStream(
                    gather_ids=_stack(
                        [c.streams[s][a * c.block_step :][:length] for c, a, _ in members]
                    ),
                    width=width,
                    block_step=block_step,
                    start=c0.starts[s] + a0 * c0.block_step
                    if lone and c0.starts[s] is not None
                    else None,
                )
            )
        job_valid = _stack([c.valid[a:b, :rows] for c, a, b in members])
        bad = np.flatnonzero(~job_valid.all(axis=(0, 2, 3)))
        m0, m1 = (int(bad[0]), int(bad[-1]) + 1) if bad.size else (0, 0)
        key_views = []
        for seg in streams:
            s_g, s_l = seg.gather_ids.strides
            key_views.append(
                as_strided(
                    seg.gather_ids,
                    (len(members), num_blocks, rows, seg.width),
                    (s_g, block_step * s_l, s_l, s_l),
                    writeable=False,
                )
            )
        jobs.append(
            WindowJob(
                pass_indices=np.concatenate([c.idxs[a:b] for c, a, b in members]),
                num_groups=len(members),
                num_blocks=num_blocks,
                rows=rows,
                cols=cols,
                q_ids=job_q_ids,
                q_safe=np.maximum(job_q_ids, 0),
                valid=job_valid,
                keep=_stack([c.keep[a:b, :rows] for c, a, b in members]),
                segments=tuple(streams),
                masked=(m0, m1),
                validf=np.ascontiguousarray(job_valid[None, :, m0:m1], dtype=np.float64),
                key_views=tuple(key_views),
                q_start=c0.q_start + a0 * c0.q_ids.shape[1]
                if lone and c0.q_start is not None
                else None,
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
    key_ids = _unmasked_key_ids(index.qpos, index.col_base, index.col_dil)
    valid = (key_ids >= 0) & (key_ids < n)
    valid &= row_valid[:, :, None]
    gtok = np.asarray(plan.global_tokens, dtype=np.int64)
    keep = row_valid
    if len(gtok):
        valid &= ~np.isin(key_ids, gtok)
        keep = row_valid & ~np.isin(q_ids, gtok)
    del key_ids  # a compile-time temporary: the plan keeps its closed form

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
        n=n,
        heads=plan.heads,
        head_dim=plan.head_dim,
        passes=tuple(plan.passes),
        num_passes=num_passes,
        pad_rows=pad_rows,
        pad_cols=pad_cols,
        q_ids=q_ids,
        valid=valid,
        keep=keep,
        rows_used=rows_used,
        cols_used=cols_used,
        qpos=index.qpos,
        col_base=index.col_base,
        col_dil=index.col_dil,
        valid_counts=valid_counts,
        row_has_work=row_has_work,
        distinct_per_pass=index.distinct,
        q_loads=q_loads,
        out_vectors=out_vectors,
        global_tokens=gtok,
        nonglobal_rows=nonglobal_rows,
        global_batches=global_batches,
        global_batch_valid=global_batch_valid,
        first_query=plan.first_query,
    )
