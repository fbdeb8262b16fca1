"""Test oracle: the window jobs of a plan, built from its flattened pass list.

``_build_schedule`` builds the window jobs and their chains from the
scheduler's tiling (``PassIndex.tilings``).  This module keeps the
builder it replaced, which re-derived everything from the pass index
alone: each column group's passes cut into evenly spaced column runs
(:func:`_even_runs`, :func:`_column_run`), each query group's runs cut
into interior, edges and the first-query straddle block
(:func:`_split_blocks`), and the ``k``-th cuts of a same-dilation run
of groups batched into families (:func:`_position_families`).
:func:`build_schedule` is the whole :class:`ExecutionSchedule` on it, so
tests compare every field.  Tests import it as ``_schedule_oracle``: the
root ``conftest.py`` puts ``tests/`` on the import path.
"""

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.scheduler.compiled import (
    ExecutionSchedule,
    PassIndex,
    SegmentStream,
    WindowJob,
    _cell_facts,
    _clamp,
    _clipped_arange_start,
    _finish_schedule,
    _members,
    _stack,
)


def _padded_arange_start(a: np.ndarray) -> Optional[int]:
    """Start ``s`` when ``a[i] == s + i`` wherever ``a[i] >= 0`` (padding is -1)."""
    real = a >= 0
    if not real.any():
        return None
    i = int(real.argmax())
    s = int(a[i]) - i
    return s if np.array_equal(a[real], np.arange(s, s + a.size)[real]) else None


def build_schedule(cp) -> ExecutionSchedule:
    """The :class:`ExecutionSchedule` of ``cp`` with the pass-list builder."""
    full, slots, cells = _cell_facts(cp)
    jobs = _build_window_jobs(
        cp.passes, cp.n, cp.q_ids, cp.keep, full, slots, cells, cp.first_query
    )
    return _finish_schedule(cp, jobs)


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
    ``full`` marks the rows whose every cell is valid (a whole pass: its
    used rows); the blocks of the other passes also point into their
    expanded cells.
    """

    idxs: np.ndarray  # (B,) pass indices in block order
    lengths: Tuple[int, ...]  # rows used per block
    skip: int  # rows of each pass before row 0 of the run
    slots: np.ndarray  # (B,) int64 index into the expanded cells, -1 if whole
    first_block: int  # group position of block 0's first query
    block_step: int  # group positions from one block to the next
    cols: int
    seg_sig: Tuple[Tuple[int, int], ...]  # (width, dilation) per segment
    q_ids: np.ndarray  # (B, R) int64, -1 on padding
    keep: np.ndarray  # (B, R) bool
    full: np.ndarray  # (B, R) bool: every cell of the row is valid
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
    if (steps == steps[:1]).all():  # one block grid, no gap
        return [idxs]
    runs, a = [], 0
    for i in range(1, len(steps)):
        if steps[i] != steps[a]:
            runs.append(idxs[a : i + 1])
            a = i + 1
    runs.append(idxs[a:])
    return runs


def _column_run(
    index: PassIndex,
    n: int,
    idxs: List[int],
    q_ids: np.ndarray,
    keep: np.ndarray,
    full: np.ndarray,
    slots: np.ndarray,
    skip: int = 0,
) -> _ColumnRun:
    """The :class:`_ColumnRun` of one evenly spaced run of passes.

    ``skip`` drops the first rows of a one-block run: the block that
    straddles a plan's first query starts at its first live row, so its
    query ids, masks, key streams and range facts all begin there.
    """
    ia = np.asarray(idxs, dtype=np.int64)
    q = q_ids[ia, skip:]
    lengths = (q >= 0).sum(axis=1)
    rows = int(lengths.max())
    segments = index.colgroups[index.colgroup[idxs[0]]]
    first_block = int(index.qpos[idxs[0], 0]) + skip
    block_step = int(index.qpos[idxs[1], 0]) - first_block if len(idxs) > 1 else rows
    q = np.ascontiguousarray(q[:, :rows])
    streams, starts = [], []
    for seg in segments:
        # Key id at (block b, row r, column t): base + (b*step + r + t)*dil.
        base = seg.key_residue + (first_block + seg.rel_lo) * seg.dilation
        length = (len(idxs) - 1) * block_step + rows + seg.width - 1
        offsets = np.arange(length, dtype=np.int64) * seg.dilation
        streams.append(_clamp(base + offsets, n))
        starts.append(_clipped_arange_start(streams[-1], n))
    return _ColumnRun(
        idxs=ia,
        lengths=tuple(lengths.tolist()),
        skip=skip,
        slots=slots[ia],
        first_block=first_block,
        block_step=block_step,
        cols=int(index.cols_used[idxs[0]]),
        seg_sig=tuple((seg.width, seg.dilation) for seg in segments),
        q_ids=q,
        keep=np.ascontiguousarray(keep[ia][:, skip : skip + rows]),
        full=np.ascontiguousarray(full[ia][:, skip : skip + rows]),
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
    index: PassIndex,
    n: int,
    q_ids: np.ndarray,
    keep: np.ndarray,
    full: np.ndarray,
    slots: np.ndarray,
    cells: np.ndarray,
    first_query: int,
) -> Tuple[WindowJob, ...]:
    """Batch the pass stream into window-job families (see ``repro.scheduler.compiled``).

    Within each query group, column groups execute in the group's master
    order (``PassIndex.orders``).  Query groups of one dilation are
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
    untouched: the hardware still spends the full PE block.  ``full``
    marks the rows whose every cell is valid; ``slots[p]`` indexes pass
    ``p``'s expanded ``cells``, -1 for a whole pass.
    """
    members = _members(index.colgroup, len(index.colgroups))
    runs: List[List[List[List[_Cut]]]] = []  # per run, per group: its sub-runs
    last_dil = None
    for dil, order in index.orders:
        if dil != last_dil or not runs:
            runs.append([])
            last_dil = dil
        whole, trimmed = [], []
        for cg in order:
            for run in _even_runs(members[cg].tolist(), q_ids):
                ids = q_ids[run[0]]
                skip = int(np.count_nonzero((ids >= 0) & (ids < first_query)))
                if skip:
                    head = _column_run(index, n, run[:1], q_ids, keep, full, slots, skip)
                    trimmed.append((head, 0, 1))
                    run = run[1:]
                if run:
                    whole.append(_column_run(index, n, run, q_ids, keep, full, slots))
        runs[-1].append(_split_blocks(whole) + [trimmed])

    jobs: List[WindowJob] = []
    for run in runs:
        for sub in zip(*run):
            for k in range(max(len(g) for g in sub)):
                jobs.extend(_position_families([g[k] for g in sub if k < len(g)], cells))
    return tuple(jobs)


def _cut_valid(cut: _Cut, rows: int, cells: np.ndarray) -> np.ndarray:
    """``(b - a, rows, cols)`` float64 cell validity of a cut's blocks."""
    c, a, b = cut
    valid = np.empty((b - a, rows, c.cols))
    valid[...] = c.full[a:b, :rows, None]  # exact for the blocks of whole passes
    for i in np.flatnonzero(c.slots[a:b] >= 0).tolist():
        valid[i] = cells[c.slots[a + i], c.skip : c.skip + rows, : c.cols]
    return valid


def _position_families(cuts: List[_Cut], cells: np.ndarray) -> List[WindowJob]:
    """Families among the ``k``-th cuts of one same-dilation sub-run of groups.

    Cuts with equal signatures have identical strided-view geometry and
    batch into one job, differing only in gather bases and boundary
    masks.  A block is masked where a member's row within the job is
    not full (padding, or an invalid cell of an expanded pass), and
    only the masked block run's cells are built.
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
        full = _stack([c.full[a:b, :rows] for c, a, b in members])
        bad = np.flatnonzero(~full.all(axis=(0, 2)))
        m0, m1 = (int(bad[0]), int(bad[-1]) + 1) if bad.size else (0, 0)
        validf = np.zeros((1, len(members), 0, rows, cols))
        if m1 > m0:
            blocks = [_cut_valid((c, a + m0, a + m1), rows, cells) for c, a, _ in members]
            validf = _stack(blocks)[None]
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
                keep=_stack([c.keep[a:b, :rows] for c, a, b in members]),
                segments=tuple(streams),
                masked=(m0, m1),
                validf=validf,
                key_views=tuple(key_views),
                q_start=c0.q_start + a0 * c0.q_ids.shape[1]
                if lone and c0.q_start is not None
                else None,
            )
        )
    return jobs
