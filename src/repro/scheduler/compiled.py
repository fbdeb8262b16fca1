"""Compiled execution plans: precomputed index tensors for batched engines.

Tile passes are *structural*: the gather indices, validity masks and
global-token exclusions of a pass are identical across attention heads and
across every ``attend()`` call that reuses the same plan, so
:class:`CompiledPlan` derives them once per
:class:`~repro.scheduler.plan.ExecutionPlan` and stores:

* padded per-pass tensors — ``q_ids`` ``(P, R)`` and ``keep`` ``(P, R)``
  non-global row masks — and the closed form of the key ids (``qpos``,
  ``col_base``, ``col_dil``).  No ``(P, R, C)`` tensor is built: a pass
  is *exact* when every key of its rectangle lies in ``[0, n)`` and is
  not a global token, which its distinct keys (``PassIndex.exact``)
  prove for all but the passes at the sequence edges and around a
  global key; only those are expanded to cells (:func:`_valid_cells`).
  ``valid`` and ``key_ids`` are derived on demand, for tests and tools;
* **window jobs** — the pass stream regrouped by
  ``(query group, column group, block run)``.  Within a job every pass
  shares its segment tuple and its query block starts advance uniformly,
  so each segment's key stream is one arithmetic sequence: the engine
  reads a single ``(L, d)`` key block per segment through an overlapping
  strided window view — the numpy analogue of the accelerator's
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
* per-pass aggregates (valid cells, ``rows_used x cols_used`` on an
  exact pass; distinct keys; query loads; output vectors) reused by the
  timing/energy/traffic models.

A :class:`CompiledPlan` is a *value*: frozen, built from the pass index
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

Every index fact is derived from one :class:`PassIndex`, which leaves
each pass's key ids in closed form.  The scheduler derives it by
broadcasting from its product — per query group, block starts x packed
column groups and the has-work mask
(:class:`~repro.scheduler.plan.GroupTiling`, :func:`tiling_index`) —
and hands it to the plan as its pass list — the only pass list a plan
holds — so a cold start (``schedule`` -> ``compiled()`` -> ``.schedule``)
builds no :class:`~repro.scheduler.plan.TilePass`, derives no fact twice
and makes no per-pass numpy call: the window jobs are built from the
tiling the index carries (``PassIndex.tilings``) and take their masked
block runs from the same exact / expanded split.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .plan import BandSegment, ExecutionPlan, GroupTiling, TilePass

__all__ = [
    "CompiledPlan",
    "ExecutionSchedule",
    "GlobalRowBucket",
    "JobChain",
    "PassIndex",
    "SegmentStream",
    "WindowJob",
    "compile_plan",
    "tiling_index",
]


#: Working-set budget of one block chunk of a window job, all lanes
#: included (see :meth:`CompiledPlan.chunk_blocks`): roughly the share of
#: the host's last-level cache one chunk's stages 1-5 should occupy.
CHUNK_BYTES = 4 * 1024 * 1024


@dataclass(frozen=True)
class SegmentStream:
    """One band segment of a window job as diagonal key streams.

    For query group ``g``, the key id of block ``b``, PE row ``r``,
    segment column ``t`` is ``gather_ids[g, b * block_step + r + t]``
    (ids pre-clipped to ``[0, n)``; out-of-range and global cells are
    masked by the job's ``validf``).
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
    keep: np.ndarray  # (G, B, R) bool: rows merged by the window path
    segments: Tuple[SegmentStream, ...]
    # The run of blocks ``[m0, m1)`` from the first to the last with an
    # invalid cell, and the cell validity over it as float64 ``(1, G,
    # m1 - m0, R, C)``: the stage-2 mask.  Multiplying by an all-ones
    # mask is exact, so engines skip the all-valid blocks outside the run.
    masked: Tuple[int, int]
    validf: np.ndarray
    # Per segment, the key ids under the job's band as ``(G, B, R, W)``
    # views of ``gather_ids`` (they own no memory): cell ``(g, b, r, t)``
    # holds the sequence index of the key whose score the band carries
    # there (clipped cells are masked and may carry any id).  Read by
    # padded-tail masking only.
    key_views: Tuple[np.ndarray, ...]
    # With one group: every non-padding cell of the flattened ``q_ids``
    # equals ``q_start`` + its flat position (verified by comparison on
    # the whole column group), so the query blocks are one slice of the
    # operand.  Padding rows (a short last block) then read a
    # neighbouring row instead of row 0; ``validf`` masks them either way.
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


def _valid_cells(qpos, col_base, col_dil, lengths, n: int, gtok: np.ndarray) -> np.ndarray:
    """``(P, R, C)`` bool: the closed form's cells in ``[0, n)`` and not global.

    The dense derivation; a cold compile runs it only on the passes that
    are not ``PassIndex.exact``.
    """
    ids = _unmasked_key_ids(qpos, col_base, col_dil)
    valid = (ids >= 0) & (ids < n) & (np.arange(ids.shape[1]) < lengths[:, None])[:, :, None]
    if len(gtok):
        valid &= ~np.isin(ids, gtok)
    return valid


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
            if b.q_ids is a.q_ids or (  # jobs of one block range share them
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
    them), none of them ``(P, R, C)``; the execution-only
    :attr:`schedule` is derived on first engine use, so cost-model-only
    paths such as ``SALO.estimate`` never pay for it, and the cell
    tensors :attr:`valid` / :attr:`key_ids` only for tests and tools.
    """

    n: int
    heads: int
    head_dim: int
    passes: PassIndex  # what the schedule is derived from
    num_passes: int
    pad_rows: int  # R: padded PE-row count across all passes
    pad_cols: int  # C: padded PE-column count across all passes
    # -- per-pass padded tensors -------------------------------------
    q_ids: np.ndarray  # (P, R) int64, -1 on padding
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
    @cached_property
    def valid(self) -> np.ndarray:
        """``(P, R, C)`` bool cell validity, derived on first read and kept."""
        return _valid_cells(
            self.qpos, self.col_base, self.col_dil, self.rows_used, self.n, self.global_tokens
        )

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


def _merge_order(nodes: List[int], edges: Iterable[Tuple[int, int]]) -> Optional[List[int]]:
    """A query group's master column order: a topological merge of its blocks.

    Job order must replay the merge order every query observes in the
    pass stream, and blocks clipped at the sequence boundary *skip* the
    column groups the zero-work filter dropped there, so each block runs
    a subsequence of the master order.  ``nodes``: the column groups by
    first appearance (which breaks ties); ``edges``: the pairs that run
    back to back in some block.  ``None`` when the blocks disagree.
    """
    succ = {c: [] for c in nodes}
    indeg = dict.fromkeys(nodes, 0)
    for a, b in sorted(set(edges)):
        succ[a].append(b)
        indeg[b] += 1
    ready, order = [c for c in nodes if not indeg[c]], []
    while ready:
        c = ready.pop(0)
        order.append(c)
        for b in succ[c]:
            indeg[b] -= 1
            if not indeg[b]:
                ready.append(b)
    return order if len(order) == len(nodes) else None


def _stack(blocks: List[np.ndarray]) -> np.ndarray:
    """Contiguous ``(G, ...)`` stack of per-group arrays; no copy for one."""
    if len(blocks) == 1:
        return np.ascontiguousarray(blocks[0][None])
    return np.stack(blocks)


def _members(colgroup: np.ndarray, count: int) -> List[np.ndarray]:
    """Pass indices of each column group, in pass (block) order."""
    order = np.argsort(colgroup, kind="stable")
    return np.split(order, np.cumsum(np.bincount(colgroup, minlength=count))[:-1])


class _Run(NamedTuple):
    """An evenly spaced run of one column group's blocks in one query group.

    Blocks are the tiling's: ``pos[i]`` is the group position of block
    ``i``'s first computed row and ``lens[i]`` its computed rows.  In a
    plan with ``first_query > 0`` the block straddling the first query
    is a one-block run of its own whose rows start at the first query
    (``skip`` rows in): no row below it is computed.
    """

    tiling: GroupTiling
    group: int  # position of ``tiling`` in PassIndex.tilings
    segments: Tuple[BandSegment, ...]
    pids: np.ndarray  # (B,) pass indices in block order
    pos: List[int]
    lens: List[int]
    rows: int  # max(lens)
    skip: int
    step: int  # group positions from one block to the next; ``rows`` for one block

    def stream_start(self, seg: BandSegment, n: int) -> Optional[int]:
        """``SegmentStream.start`` of the run's whole key stream for ``seg``.

        The stream is ``clip(base + i * dilation, 0, n - 1)``; undilated,
        its recovered range start (:func:`_clipped_arange_start`) has a
        closed form: ``base`` itself unless the stream is clamped
        throughout.  A dilated stream is compared element by element.
        """
        base = seg.key_residue + (self.pos[0] + seg.rel_lo) * seg.dilation
        length = (len(self.lens) - 1) * self.step + self.rows + seg.width - 1
        if seg.dilation > 1:
            return _clipped_arange_start(_clamp(base + np.arange(length) * seg.dilation, n), n)
        if n == 1 or base + length - 1 <= 0:
            return 1 - length  # zeros throughout
        return base if base <= n - 1 else n - 1

    def q_start(self) -> Optional[int]:
        """``WindowJob.q_start`` of the run's ``(B, rows)`` query ids, in closed form."""
        t = self.tiling
        if t.dilation == 1 and (len(self.lens) == 1 or self.step == self.rows):
            return t.residue + self.pos[0]
        if sum(self.lens) == 1:
            return t.residue + self.pos[0] * t.dilation
        return None


#: A block range ``[a, b)`` of a run: one member of a window job.
_Cut = Tuple[_Run, int, int]


def _even_block_runs(blocks: np.ndarray, starts: np.ndarray) -> List[np.ndarray]:
    """One column group's blocks cut into maximal evenly spaced runs.

    The scheduler drops zero-work passes, and the dropped block can sit
    in the *middle* of a column group (its in-range keys are all global
    tokens, or the group packs segments of two bands in range at
    opposite sequence ends only), leaving a gap.  Each run is greedy:
    it takes the step (in block ``starts``) of its first two blocks and
    ends where the next step differs; the runs cover disjoint blocks and
    stay consecutive in master order, so no query's merge order moves.
    """
    steps = np.diff(starts[blocks])
    if (steps == steps[:1]).all():  # one block grid, no gap
        return [blocks]
    steps = steps.tolist()
    runs, a = [], 0
    for i in range(1, len(steps)):
        if steps[i] != steps[a]:
            runs.append(blocks[a : i + 1])
            a = i + 1
    runs.append(blocks[a:])
    return runs


def _interior(runs: List[_Run]) -> List[List[_Cut]]:
    """One query group's runs cut into [interior, leading, trailing].

    The *interior* is the run of blocks where every live column group
    has work; the blocks before and after it (clipped at a sequence
    edge) are the leading and trailing *edge*.  Each part lists the
    runs restricted to its blocks, master order kept, empty ones
    dropped.  Runs are evenly spaced, so the interior spans the latest
    first block to the earliest last one; a group where that span is
    empty (a column group cut at a gap) or off one block grid stays whole.
    """
    whole: List[List[_Cut]] = [[(r, 0, len(r.pos)) for r in runs], [], []]
    if not runs:
        return whole
    lo = max(r.pos[0] for r in runs)
    hi = min(r.pos[-1] for r in runs)
    steps = {r.step for r in runs if len(r.pos) > 1} or {1}
    step = min(steps)
    if lo > hi or len(steps) > 1 or any((lo - r.pos[0]) % step for r in runs):
        return whole
    parts: List[List[_Cut]] = [[], [], []]
    for r in runs:
        a = (lo - r.pos[0]) // step
        b = a + (hi - lo) // step + 1
        for part, (x, y) in zip(parts, ((a, b), (0, a), (b, len(r.pos)))):
            if x < y:
                part.append((r, x, y))
    return parts


def _group_runs(index: PassIndex, group: int, offset: int, first_query: int):
    """One query group's runs, from its tiling: ``[interior, leading,
    trailing, straddle]`` cuts, column groups in master order in each."""
    t = index.tilings[group]
    _, order = index.orders[group]
    work = t.has_work
    pid = np.cumsum(work.ravel()).reshape(work.shape) + (offset - 1)
    live = np.flatnonzero(work.any(axis=0))
    first = work[:, live].argmax(axis=0)
    column = dict(zip(index.colgroup[pid[first, live]].tolist(), live.tolist()))
    lens = t.stops - t.starts
    start0, len0 = int(t.starts[0]), int(lens[0])
    # Rows of block 0 below the first query (only block 0 can straddle it).
    skip = min(max(-((t.residue - first_query) // t.dilation) - start0, 0), len0)
    whole, straddle = [], []
    for cg in order:
        c = column[cg]
        segments = index.colgroups[cg]
        for blocks in _even_block_runs(np.flatnonzero(work[:, c]), t.starts):
            if skip and blocks[0] == 0:
                rows = len0 - skip
                head = [start0 + skip]
                run = _Run(t, group, segments, pid[:1, c], head, [rows], rows, skip, rows)
                straddle.append((run, 0, 1))
                blocks = blocks[1:]
            if len(blocks):
                pos, used, pids = t.starts[blocks].tolist(), lens[blocks].tolist(), pid[blocks, c]
                rows = max(used)
                step = pos[1] - pos[0] if len(pos) > 1 else rows
                whole.append(_Run(t, group, segments, pids, pos, used, rows, 0, step))
    return _interior(whole) + [straddle]


def _build_window_jobs(cp: "CompiledPlan", full, slots, cells) -> Tuple[WindowJob, ...]:
    """Window jobs from the scheduler's tiling (see module docstring).

    Column groups run in each query group's master order.  Groups of one
    dilation are disjoint residue classes, so in a consecutive run of
    same-dilation groups the ``k``-th cuts batch into families (one set
    of GEMMs for every residue class); groups of different dilations can
    share queries and stay in order.  Each run is emitted as sub-runs —
    interiors, leading edges, trailing edges, first-query straddle
    blocks (:func:`_group_runs`) — so a group's interior jobs cover the
    same blocks and fold into one :class:`JobChain`.  No query's merges
    move: a query block lives in one sub-run, which keeps master order.
    The straddle cut reads ``first_query`` only (a global query row is
    left out of ``keep`` but computed) and leaves the passes, so every
    cost model, untouched.  ``full`` / ``slots`` / ``cells``: see
    :func:`_cell_facts`.
    """
    index = cp.passes
    runs: List[List[List[List[_Cut]]]] = []  # per same-dilation run, per group: sub-runs
    last_dil, offset = None, 0
    for group, t in enumerate(index.tilings):
        if t.dilation != last_dil or not runs:
            runs.append([])
            last_dil = t.dilation
        runs[-1].append(_group_runs(index, group, offset, cp.first_query))
        offset += int(np.count_nonzero(t.has_work))
    # One clamped id ramp spans every undilated key stream: a stream starts
    # at ``key_residue + rel_lo + pos`` (``0 <= pos < n``) and ends before
    # the padded rows of a block starting below ``n`` run ``width`` past it.
    undilated = [s for cg in index.colgroups for s in cg if s.dilation == 1]
    lo = min([0] + [s.key_residue + s.rel_lo for s in undilated])
    hi = cp.n + cp.pad_rows + max([0] + [s.key_residue + s.rel_lo + s.width for s in undilated])
    ramp = _clamp(np.arange(lo, hi, dtype=np.int64), cp.n)
    facts = _Facts(cp, full, slots, cells, {}, ramp, lo)
    jobs: List[WindowJob] = []
    for run in runs:
        for sub in zip(*run):
            for k in range(max(len(g) for g in sub)):
                jobs.extend(_families(facts, [g[k] for g in sub if k < len(g)]))
    return tuple(jobs)


class _Facts(NamedTuple):
    """What :func:`_families` reads besides the cuts (see :func:`_cell_facts`)."""

    cp: "CompiledPlan"
    full: np.ndarray
    slots: np.ndarray
    cells: np.ndarray
    shared: dict  # query-range key -> (q_ids, q_safe, keep): one per block range
    ramp: np.ndarray  # clip(arange(lo, lo + len), 0, n - 1): every undilated stream is a slice
    lo: int


def _families(facts: _Facts, cuts: List[_Cut]) -> List[WindowJob]:
    """Families among the ``k``-th cuts of one same-dilation sub-run of groups.

    Cuts with equal signatures have identical strided-view geometry and
    batch into one job, differing only in gather bases and boundary
    masks.  Jobs over the same block range share their query arrays
    (``facts.shared``), which is how :func:`_build_job_chains` sees them
    chain.  A block is masked where a member's row within the job is not
    full — a short block, or an invalid cell of an expanded pass — and
    only the masked block run's cells are built.
    """
    cp, full, slots, cells, shared, ramp, lo = facts
    buckets: dict = {}  # signature -> cuts
    for r, a, b in cuts:
        rows = max(r.lens[a:b])
        block_step = r.step if b - a > 1 else rows
        cols = sum(seg.width for seg in r.segments)
        sig = (b - a, rows, cols, block_step, tuple((s.width, s.dilation) for s in r.segments))
        buckets.setdefault(sig, []).append((r, a, b))
    n = cp.n
    jobs: List[WindowJob] = []
    for (num_blocks, rows, cols, block_step, seg_sig), members in buckets.items():
        r0, a0, _ = members[0]
        lone = len(members) == 1  # range facts describe a single group's ids
        pids = _stack([r.pids[a:b] for r, a, b in members])  # (G, B)
        rowsel = [slice(r.skip, r.skip + rows) for r, _, _ in members]
        key = (tuple((r.group, r.pos[a]) for r, a, _ in members), num_blocks, block_step, rows)
        if key not in shared:
            q_ids = _stack([cp.q_ids[p, s] for p, s in zip(pids, rowsel)])
            keep = _stack([cp.keep[p, s] for p, s in zip(pids, rowsel)])
            shared[key] = (q_ids, np.maximum(q_ids, 0), keep)
        q_ids, q_safe, keep = shared[key]
        streams: List[SegmentStream] = []
        # Segment order == column order: the engine lays the
        # per-segment bands side by side along the column axis in this order.
        for s, (width, dil) in enumerate(seg_sig):
            length = (num_blocks - 1) * block_step + rows + width - 1
            ids = []
            for r, a, _ in members:
                seg = r.segments[s]
                base = seg.key_residue + (r.pos[a] + seg.rel_lo) * dil
                if dil == 1:
                    ids.append(ramp[base - lo : base - lo + length])
                else:
                    ids.append(_clamp(base + np.arange(length, dtype=np.int64) * dil, n))
            start = None
            if lone:
                start = r0.stream_start(r0.segments[s], n)
                start = None if start is None else start + a0 * r0.step
            streams.append(SegmentStream(_stack(ids), width, block_step, start))
        bad = set()
        for r, a, b in members:
            if min(r.lens[a:b]) < rows:  # a short block pads rows
                bad.update(i for i, used in enumerate(r.lens[a:b]) if used < rows)
        sl = slots[pids]
        expanded = np.flatnonzero((sl >= 0).any(axis=0)).tolist() if sl.max() >= 0 else []
        bad.update(i for i in expanded if not all(full[p[i], s].all() for p, s in zip(pids, rowsel)))
        m0, m1 = (min(bad), max(bad) + 1) if bad else (0, 0)
        validf = np.zeros((1, len(members), 0, rows, cols))
        if m1 > m0:
            validf = np.empty((1, len(members), m1 - m0, rows, cols))
            for g, (p, s) in enumerate(zip(pids, rowsel)):
                validf[0, g] = full[p[m0:m1], s][:, :, None]  # exact for whole passes
                for i in expanded:
                    if m0 <= i < m1 and slots[p[i]] >= 0:
                        validf[0, g, i - m0] = cells[slots[p[i]], s, :cols]
        key_views = []
        for seg in streams:
            ids = seg.gather_ids
            s_g, s_l = ids.strides
            view = np.ndarray(
                (len(members), num_blocks, rows, seg.width), np.int64, ids, 0,
                (s_g, block_step * s_l, s_l, s_l),
            )  # fmt: skip
            view.flags.writeable = False
            key_views.append(view)
        q_start = r0.q_start() if lone else None
        jobs.append(
            WindowJob(
                pass_indices=pids.ravel(),
                num_groups=len(members),
                num_blocks=num_blocks,
                rows=rows,
                cols=cols,
                q_ids=q_ids,
                q_safe=q_safe,
                keep=keep,
                segments=tuple(streams),
                masked=(m0, m1),
                validf=validf,
                key_views=tuple(key_views),
                q_start=None if q_start is None else q_start + a0 * r0.rows,
            )
        )
    return jobs


def _cell_facts(cp: "CompiledPlan") -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(full, slots, cells)`` of a compiled plan's passes.

    Only a pass whose valid count falls short of its rectangle has an
    invalid cell, and only those are expanded: ``cells`` holds their
    ``(R, C)`` validity, ``slots[p]`` indexes pass ``p``'s (-1 for a
    whole pass) and ``full (P, R)`` marks the rows whose every cell is
    valid.
    """
    rest = np.flatnonzero(cp.valid_counts != cp.rows_used * cp.cols_used)
    slots = np.full(cp.num_passes, -1, dtype=np.int64)
    slots[rest] = np.arange(len(rest))
    parts = (a[rest] for a in (cp.qpos, cp.col_base, cp.col_dil, cp.rows_used))
    cells = _valid_cells(*parts, cp.n, cp.global_tokens)
    full = np.arange(cp.pad_rows) < cp.rows_used[:, None]
    padding = np.arange(cp.pad_cols) >= cp.cols_used[rest, None]
    full[rest] = (cells | padding[:, None, :]).all(axis=2)
    return full, slots, cells


def _build_schedule(cp: CompiledPlan) -> ExecutionSchedule:
    """Derive the :class:`ExecutionSchedule` of a compiled plan."""
    return _finish_schedule(cp, _build_window_jobs(cp, *_cell_facts(cp)))


def _finish_schedule(cp: CompiledPlan, jobs: Tuple[WindowJob, ...]) -> ExecutionSchedule:
    """The :class:`ExecutionSchedule` around a plan's window jobs."""
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


@dataclass(frozen=True, eq=False)
class PassIndex(Sequence[TilePass]):
    """A plan's passes, held column-wise: the single index derivation.

    Everything downstream — the exact / expanded split, the traffic
    aggregates, the global-row schedule, the window-job order — reads
    these arrays.  Pass ``i`` computes key ``col_base[i, c] + qpos[i, r]
    * col_dil[i, c]`` at PE row ``r``, column ``c``; its block is its
    first row ``qpos[i, 0]``, its column group ``colgroup[i]`` (numbered
    by first appearance, segments in ``colgroups``).  ``orders`` lists
    each query group as its dilation and its column groups in master
    order (:func:`_merge_order`).  ``first_pass[k]``: the first pass
    streaming key ``k``, ``P`` if none (plans with global tokens only).
    ``tilings`` are those query groups as the scheduler tiled them
    (:class:`~repro.scheduler.plan.GroupTiling`): group ``g``'s passes
    are its has-work cells in row-major order, numbered on from the
    groups before it, and the window jobs are built from them.

    As a sequence it is the pass list (``plan.passes``): ``len`` reads
    the arrays, and the :class:`TilePass` objects are built on the first
    read of an item (then ``"objects" in vars(index)``).
    """

    lengths: np.ndarray  # (P,) PE rows used
    cols_used: np.ndarray  # (P,) PE columns used
    residues: np.ndarray  # (P,) query residue
    dilations: np.ndarray  # (P,) query dilation
    qpos: np.ndarray  # (P, R) query group positions, 0 on padding
    col_base: np.ndarray  # (P, C) key id at group position 0, -1 on padding
    col_dil: np.ndarray  # (P, C) key-id advance per group position, 0 on padding
    distinct: np.ndarray  # (P,) distinct in-range non-global keys
    exact: np.ndarray  # (P,) bool: every key of the rectangle is in range, not global
    colgroup: np.ndarray  # (P,) column group
    colgroups: Tuple[Tuple[BandSegment, ...], ...]
    orders: Tuple[Tuple[int, Tuple[int, ...]], ...]
    first_pass: Optional[np.ndarray]  # (n,) int64
    tilings: Tuple[GroupTiling, ...]  # the query groups with work, as ``orders``

    @cached_property
    def objects(self) -> Tuple[TilePass, ...]:
        """The :class:`TilePass` objects, built from the arrays on first read."""
        rows = zip(self.qpos.tolist(), self.lengths.tolist(), self.colgroup.tolist())
        return tuple(
            TilePass(r, d, tuple(row[:used]), self.colgroups[c])
            for r, d, (row, used, c) in zip(self.residues.tolist(), self.dilations.tolist(), rows)
        )

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, i):
        return self.objects[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, (PassIndex, list, tuple)):
            return list(self) == list(other)
        return NotImplemented


def _index(
    n, global_tokens, qpos, lengths, residues, dilations, colgroup, colgroups, orders, tilings
) -> PassIndex:
    """The :class:`PassIndex` of passes given by their rows and column groups.

    Passes of one column group share the closed form of their key ids,
    and their duplicate structure is shift invariant: every block is a
    run of consecutive group positions and a column group has one
    dilation.  So the cells holding a pass's first occurrence of each
    key — the first in row-major order, so a pass using a prefix of the
    rows keeps exactly the cells whose row survives — are found once for
    all of them and evaluated in one broadcast: ``R + W - 1`` keys per
    segment instead of ``R * W`` cells.  A pass is exact when each of its
    distinct keys is in range and not global.
    """
    num = len(lengths)
    rows = np.arange(qpos.shape[1], dtype=np.int64)
    pad_cols = max((sum(s.width for s in segs) for segs in colgroups), default=1)
    col_base = np.full((num, pad_cols), -1, dtype=np.int64)
    col_dil = np.zeros((num, pad_cols), dtype=np.int64)
    cols_used, distinct = np.zeros((2, num), dtype=np.int64)
    exact = np.ones(num, dtype=bool)
    is_global = np.zeros(n + 1, dtype=bool)  # index -1 (not streamed) reads False
    is_global[np.asarray(global_tokens, dtype=np.int64)] = True
    first_pass = np.full(n, num, dtype=np.int64) if len(global_tokens) else None
    for segs, ia in zip(colgroups, _members(colgroup, len(colgroups))):
        offsets = [s.rel_lo + np.arange(s.width, dtype=np.int64) for s in segs]
        base = np.concatenate([s.key_residue + o * s.dilation for s, o in zip(segs, offsets)])
        dcol = np.concatenate([np.full(s.width, s.dilation, dtype=np.int64) for s in segs])
        cols_used[ia] = cols = len(base)
        col_base[ia, :cols], col_dil[ia, :cols] = base, dcol
        rel = rows[: int(lengths[ia].max())]  # row offsets from each block's first row
        keys = base[None, :] + rel[:, None] * dcol[None, :]
        rr, cc = np.divmod(np.unique(keys.ravel(), return_index=True)[1], len(base))
        keys = base[cc] + (qpos[ia, :1] + rel[rr]) * dcol[cc]
        live = rr < lengths[ia, None]
        streamed = (keys >= 0) & (keys < n) & live
        fresh = streamed & ~is_global[np.where(streamed, keys, -1)]
        distinct[ia], exact[ia] = fresh.sum(axis=1), (fresh | ~live).all(axis=1)
        if first_pass is not None:
            owner = np.broadcast_to(ia[:, None], keys.shape)
            np.minimum.at(first_pass, keys[streamed], owner[streamed])
    return PassIndex(
        lengths, cols_used, residues, dilations, qpos, col_base, col_dil,
        distinct, exact, colgroup, tuple(colgroups), tuple(orders), first_pass,
        tuple(tilings),
    )  # fmt: skip


def tiling_index(
    groups: Sequence[GroupTiling], n: int, global_tokens: Sequence[int]
) -> PassIndex:
    """The :class:`PassIndex` of the scheduler's product, by broadcasting.

    The passes are each group's has-work cells in ``(block, column
    group)`` order; a group's master order is a masked walk over them
    (:func:`_merge_order` of each block's live column groups).
    """
    colgroups, orders, tables = [], [], [np.empty((0, 5), dtype=np.int64)]
    tilings = [g for g in groups if g.has_work.any()]
    for g in tilings:
        b, c = np.nonzero(g.has_work)
        live = np.flatnonzero(g.has_work.any(axis=0))
        seen = live[np.argsort(g.has_work[:, live].argmax(axis=0), kind="stable")]  # by first block
        ids = np.zeros(len(g.colgroups), dtype=np.int64)
        ids[seen] = len(colgroups) + np.arange(len(seen))
        colgroups += [g.colgroups[i] for i in seen.tolist()]
        pair = b[1:] == b[:-1]  # consecutive cells of one block
        edges = zip(ids[c[:-1][pair]].tolist(), ids[c[1:][pair]].tolist())
        orders.append((g.dilation, tuple(_merge_order(ids[seen].tolist(), edges))))
        group = np.array([[g.residue, g.dilation]], dtype=np.int64).repeat(len(b), axis=0)
        tables.append(np.column_stack([g.starts[b], g.stops[b], ids[c], group]))
    starts, stops, colgroup, residues, dilations = np.ascontiguousarray(np.concatenate(tables).T)
    lengths = stops - starts
    rows = np.arange(int(lengths.max()) if len(lengths) else 1, dtype=np.int64)
    qpos = np.where(rows < lengths[:, None], starts[:, None] + rows, 0)
    return _index(
        n, global_tokens, qpos, lengths, residues, dilations, colgroup, colgroups, orders, tilings
    )


def _global_row_schedule(
    index: PassIndex, n: int, pe_cols: int
) -> Tuple[List[np.ndarray], int]:
    """Bulk equivalent of :meth:`ExecutionPlan.global_row_schedule`.

    A key's batch is determined by the *first* pass that streams it
    (``PassIndex.first_pass``), so the sequential seen-set walk reduces
    to one stable sort of the keys by that pass: batches come out in
    first-pass order with tokens ascending — exactly the reference
    walk's output — and the keys no pass streams, ascending, last.
    """
    order = np.argsort(index.first_pass, kind="stable")
    owner = index.first_pass[order]
    streamed = int(np.searchsorted(owner, len(index.lengths)))
    owner = owner[:streamed]
    cuts = np.flatnonzero(owner[1:] != owner[:-1]) + 1
    batches = np.split(order[:streamed], cuts) if streamed else []
    rest = order[streamed:]
    cleanup = [rest[i : i + pe_cols] for i in range(0, len(rest), pe_cols)]
    return batches + cleanup, len(cleanup)


def compile_plan(plan: ExecutionPlan) -> CompiledPlan:
    """Precompute every structural tensor of ``plan`` (see module docstring)."""
    n = plan.n
    index = plan.passes
    rows_used, cols_used = index.lengths, index.cols_used
    num_passes = len(rows_used)
    pad_rows, pad_cols = index.qpos.shape[1], index.col_base.shape[1]

    row_valid = np.arange(pad_rows, dtype=np.int64)[None, :] < rows_used[:, None]
    q_ids = np.where(
        row_valid, index.residues[:, None] + index.qpos * index.dilations[:, None], -1
    )
    gtok = np.asarray(plan.global_tokens, dtype=np.int64)
    keep = row_valid & ~np.isin(q_ids, gtok) if len(gtok) else row_valid

    # Exact passes are whole rectangles; only the rest is expanded to cells.
    rest = np.flatnonzero(~index.exact)
    parts = (a[rest] for a in (index.qpos, index.col_base, index.col_dil, rows_used))
    cells = _valid_cells(*parts, n, gtok)
    valid_counts = rows_used * cols_used
    valid_counts[rest] = cells.sum(axis=(1, 2))
    row_has_work = row_valid.copy()
    row_has_work[rest] = cells.any(axis=2)

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
        passes=index,
        num_passes=num_passes,
        pad_rows=pad_rows,
        pad_cols=pad_cols,
        q_ids=q_ids,
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
