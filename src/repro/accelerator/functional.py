"""Vectorised functional engine: execute a tile plan on real data.

This engine computes the attention output a SALO instance would produce —
same pass structure, same fixed-point arithmetic, same PWL exp, same
reciprocal unit and weighted-sum merges — but evaluates each pass with
vectorised numpy instead of per-cycle PE state, so it scales to full
workloads.  The cycle-accurate micro-simulator
(:mod:`repro.accelerator.systolic`) is bit-identical to this engine on its
(small) parameter space; see ``tests/accelerator/test_systolic.py`` and
``tests/accelerator/test_compiled_equivalence.py``.

Semantics of a pass (rows = query block, columns = packed band segments):

1. ``S = Q_blk @ K_cols^T * scale`` (masked cells excluded),
2. ``E = exp(S)`` via the PWL unit, masked cells contribute 0,
3. ``W = rowsum(E)``, ``inv = recip(W)``,
4. ``S' = E * inv`` quantised to the probability format,
5. ``out = S' @ V_cols`` quantised to the output format,

then the weighted-sum module merges ``(out, W)`` into the query's running
output.  Global-token queries are produced by the global PE row (their
full row is computed in ``pe_cols``-wide chunks, merged the same way);
global-token keys are produced once per query by the global PE column and
excluded from window passes to avoid double counting.

Execution pipeline
------------------
The engine holds two executors.  The *reference* path (``mode="legacy"``)
walks ``plan.passes`` per head and per pass with ordered einsums; it
executes any :class:`~repro.scheduler.plan.TilePass` sequence and is what
the equivalence suites compare against.  The *production* path consumes
the plan's memoized :class:`~repro.scheduler.compiled.CompiledPlan`:
passes are structural — identical across heads and across calls — so
Q/K/V are quantised once for all heads, stages 1 and 5 run as banded
GEMMs over block chunks of all lanes, a fused epilogue covers stages
2–4, and the weighted-sum merges replay per job chain in the hardware's
per-query pass order — every one of them, window, global column and
global row alike, through the single masked Eq. 2 primitive
:meth:`FunctionalEngine._merge_part`, as the array has one weighted-sum
module per PE row.  The unit of work is the *chain*: the job builder
cuts each query group's blocks into an interior, where every column
group is live, and two edges, so one chain carries all passes of the
interior blocks (16 column passes per block on Longformer-4096/512,
91.6% of its passes) — its merge state stays on accumulator views, and
when its jobs slice one band a single stage-1 GEMM spans all of their
columns.
The production path runs in the hardware's *code domain*: the operand
slabs hold Q8.4 codes in float32, so stage 1 yields score codes, the
epilogue hands probability codes to stage 5, stage 5 (codes times codes,
float32 again) is shifted and rounded to output codes, and every merge
and the accumulator work on output codes; the output resolution is
applied once, when the result is copied out.  Nothing between the
stages rescales.
Operands are never gathered where the ids are a range: every key
stream and query block of an undilated band is a (clip-clamped)
contiguous id range, a fact verified when the plan is compiled, and
:meth:`FunctionalEngine._rows` — the one place Q/K/V are read — serves
those as zero-copy slices of an edge-padded operand slab; ``np.take``
remains for dilated bands, ``G > 1`` families and scattered global
batches only.

``mode="compiled"`` (default) picks between them from what the engine
observes, never from a caller-set value, in one place —
:meth:`FunctionalEngine._supports_tiled`, at construction — and the
production path never re-tests what that gate proved.  One gate, three
proofs: GEMM reordering is only bit-exact when every stage-1/5
accumulation over integer codes is exact in float32
(:meth:`Datapath.supports_exact_gemm` — quantised datapaths inside the
24-bit budget: 20 bits for stage 1 and about 22 for stage 5 at the
default numerics); the epilogue's one
quantiser tail has no saturation clip, an identity only when no
normalised weight can exceed the probability format
(:attr:`Datapath.prob_bounded`, a bound read off the reciprocal LUT:
1.0039 against Q1.15's 1.99997 at the default numerics); and the stage-5
quantiser has none either, an identity only when no output over ``n``
keys can exceed the output format (:meth:`Datapath.stage5_bounded`: up
to ``n`` = 917 k at the default numerics).  Plans that pass all three
run the production path — on a fully quantised datapath, so its
``*_into`` quantisers and ``merge_into`` carry no unquantised branch —
and everything else (``exact()`` configs, bit widths past the float32
budget, a probability format without an integer bit, an output format
too narrow for the operands) runs the reference path, where summation order is
part of the result.  Either way the output is bit-identical to
``mode="legacy"``; :attr:`FunctionalEngine.tiled` reports which executor
a given engine uses.  The production path is total over the scheduler:
every plan :meth:`DataScheduler.schedule` emits has a job schedule
(:class:`~repro.scheduler.compiled.IrregularPassError` is left to
hand-built pass lists with non-contiguous query rows).

Working memory and the unit of isolation
----------------------------------------
The production path allocates nothing but the arrays it returns: every
reusable buffer — operand slabs, score rectangles, band and epilogue
vectors, the running accumulator, the weighted-sum and reciprocal
temporaries — is a view of the process-wide scratch arena
(:mod:`repro.accelerator.arena`), one grow-only buffer per name sized
by the largest request ever seen, the way the accelerator runs every
pass of every layer through one fixed set of SRAMs.  Plans keep only
structure — the :class:`~repro.scheduler.compiled.ExecutionSchedule`
value (jobs with their masks and key-id views, chains, slab margins,
global range facts), built with the plan and never written by an
engine, which holds no per-plan memo of its own — so memory does not
scale with cached plans or chunk shapes, and a never-seen structure of
an already-served shape runs on touched pages.  The price is that the
unit of isolation is the *process*:
production runs of all engines share the arena, so :meth:`run` holds
its lock and a run started from inside another run or from a second
thread raises :class:`EngineError` instead of corrupting the first.
Concurrency is by process — a forked transport worker inherits a
copy-on-write image of the parent's arena and owns it from then on.
The reference path (``mode="legacy"``) allocates as it goes and is not
subject to the guard.

Batch axis (multi-sequence serving)
-----------------------------------
:meth:`FunctionalEngine.run` also accepts a leading batch axis
``(b, n, heads*head_dim)``: a batch of independent sequences that share
the same execution plan (the unit the serving layer in
:mod:`repro.serving` dispatches).  The reference path loops the
sequences; the production path folds the batch and head axes into a
single *lane* axis ``L = b * heads`` — every GEMM then runs over
``(lanes, groups, blocks, rows, ...)`` operands and every
weighted-sum merge chain is carried per lane.  All lane-axis operations
are elementwise, exact GEMMs, or reduce only trailing axes, so each
sequence's arithmetic (summation trees included) is exactly that of
its own ``b=1`` call: batched outputs are bit-identical to looped
single-sequence runs (``tests/accelerator/test_batched_equivalence.py``).
The single-sequence call is simply the ``b=1`` special case with the
leading axis elided.

Padded tails (cross-length batching)
------------------------------------
:meth:`FunctionalEngine.run` optionally takes per-sequence ``valid_lens``:
sequence ``i`` of the batch carries real data only in rows
``[0, valid_lens[i])`` and the rest is zero padding up to the plan length.
Keys at or beyond a lane's valid length are masked out of stage 2 (their
``exp`` contribution is an exact ``0.0``, excluded from the softmax
denominator), so the retained query rows attend exactly the key set of an
unpadded run at the true length — the serving layer's ``pad_to_bucket``
mode uses this to batch same-structure requests of different lengths
under one bucket-length plan and slice outputs back.  Padded query rows
compute garbage (the caller slices them away) and are exempt from the
every-query-has-a-part check, as are the rows below a plan's
``first_query``: no engine computes or merges them (a decode step plan
runs no pass wholly below the first query, and the production path's
window jobs start the straddling block at it), so they read 0.0.
Global tokens must lie inside every lane's valid prefix.  Equivalence
to the unpadded per-request plan is mathematical, not bit-exact: the
bucket-length plan partitions the same
key sets into different passes, so partial-softmax merge trees (and their
quantisation points) differ — ``tests/serving/test_padding.py``
characterises the bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..scheduler.compiled import CompiledPlan, JobChain, WindowJob
from ..scheduler.plan import ExecutionPlan, TilePass
from .arena import ARENA
from .datapath import Datapath
from .weighted_sum import WeightedSumModule

__all__ = ["FunctionalEngine", "FunctionalResult", "EngineError"]


class EngineError(RuntimeError):
    """Raised when a plan cannot be executed on the given data."""


# Every reusable buffer of the production path is an arena view.
_buf, _zbuf = ARENA.buf, ARENA.zbuf


class _Slab(NamedTuple):
    """A quantised ``(lanes, n, d)`` operand inside edge-padded storage.

    ``base`` carries ``head`` margin rows before the core and a tail
    margin after it, replicating the core's first/last row — exactly what
    a clip-clamped gather of an out-of-range id loads — so an id stream
    that is a clamped range overhanging the sequence edges is a plain
    slice of ``base`` (see :meth:`FunctionalEngine._rows`).
    """

    core: np.ndarray  # (lanes, n, d) view of ``base``
    base: np.ndarray  # (lanes, head + n + tail, d)
    head: int


def _shift(start: Optional[int], by: int) -> Optional[int]:
    """A range fact moved ``by`` ids along its stream (``None`` stays ``None``)."""
    return None if start is None else start + by


def _band(rect: np.ndarray, width: int) -> np.ndarray:
    """The ``(..., R, width)`` diagonal band of a score rectangle whose
    last axis has at least ``R + width - 1`` columns: ``[r, c]`` is
    ``rect[..., r, r + c]``."""
    s = rect.strides
    return as_strided(rect, rect.shape[:-1] + (width,), s[:-2] + (s[-2] + s[-1], s[-1]))


def _require_parts(has: np.ndarray, first_query: int, lens=None) -> None:
    """Raise unless every query of every lane of ``has (lanes, n)`` got a part.

    Rows below ``first_query`` hold no query and rows at or past a lane's
    ``lens`` entry are padding: their outputs are unspecified.  Without
    ``lens`` the check reads a view and allocates nothing.
    """
    covered = has[:, first_query:]
    if lens is not None:
        rows = np.arange(first_query, has.shape[-1])
        covered = covered | (rows[None, :] >= np.asarray(lens)[:, None])
    if not covered.all():
        missing = first_query + np.flatnonzero(~covered.all(axis=0))
        raise EngineError(
            f"queries {missing[:8].tolist()}... received no attention part; "
            "the pattern leaves them without keys"
        )


@dataclass
class FunctionalResult:
    """Output of a functional run.

    Single-sequence runs produce ``output (n, heads*head_dim)`` and
    ``parts (heads, n)``; batched runs carry a leading batch axis on
    both (``(b, n, heads*head_dim)`` / ``(b, heads, n)``).
    """

    output: np.ndarray  # (n, heads * head_dim) or (b, n, heads * head_dim)
    merges: int  # weighted-sum merge operations performed (all sequences)
    # (heads, n) or (b, heads, n) partial outputs per query; None for
    # engines that do not track part counts (the systolic adapter).
    parts: Optional[np.ndarray]

    @property
    def n(self) -> int:
        return self.output.shape[-2]

    @property
    def batch(self) -> Optional[int]:
        """Batch size, or ``None`` for a single-sequence result."""
        return self.output.shape[0] if self.output.ndim == 3 else None


class _Accumulator:
    """Running (output, weight) state for one head, merged part by part."""

    def __init__(
        self, n: int, d: int, module: WeightedSumModule
    ) -> None:
        self.out = np.zeros((n, d), dtype=np.float64)
        self.w = np.zeros(n, dtype=np.float64)
        self.has = np.zeros(n, dtype=bool)
        self.parts = np.zeros(n, dtype=np.int64)
        self.module = module
        self.merges = 0

    def add_part(self, rows: np.ndarray, out: np.ndarray, w: np.ndarray) -> None:
        """Merge a partial output for the given query rows."""
        rows = np.asarray(rows, dtype=np.int64)
        fresh = ~self.has[rows]
        if fresh.any():
            fr = rows[fresh]
            self.out[fr] = out[fresh]
            self.w[fr] = w[fresh]
            self.has[fr] = True
        stale = ~fresh
        if stale.any():
            sr = rows[stale]
            merged, total = self.module.merge(
                self.out[sr], self.w[sr], out[stale], w[stale]
            )
            self.out[sr] = merged
            self.w[sr] = total
            self.merges += int(stale.sum())
        self.parts[rows] += 1


class _BatchAccumulator:
    """Running (output codes, weight) state for all execution lanes at once.

    A *lane* is one (sequence, head) pair: single-sequence runs carry one
    lane per head, batched runs fold the batch and head axes into
    ``b * heads`` lanes.  Parts are merged in by
    :meth:`FunctionalEngine._merge_part`, on these arrays or on views of
    them; each part holds a query at most once per lane, so the pairwise
    merge chain per ``(lane, query)`` is exactly the per-head chain of
    :class:`_Accumulator` for that lane's sequence.
    """

    def __init__(self, lanes: int, n: int, d: int) -> None:
        self.out = _buf("acc_out", (lanes, n, d))
        self.w = _buf("acc_w", (lanes, n))
        self.has = _buf("acc_has", (lanes, n), np.bool_)
        self.parts = _buf("acc_parts", (lanes, n), np.int64)
        self.out.fill(0.0)
        self.w.fill(0.0)
        self.has.fill(False)
        self.parts.fill(0)
        self.merges = 0


_EXP_TABLE_MAX = 1 << 17


@functools.lru_cache(maxsize=64)
def _exp_code_table(numerics, scale: float):
    """``(table, first code)`` or ``None`` when inapplicable.

    On a quantised datapath stage 1 yields integer score codes ``c`` of
    value ``c * 2^-2f`` (``f`` input fraction bits), so the whole exp
    pipeline — scale, clamp, range reduction, LUT chords, shift, output
    quantise — is a function of the code ``c`` alone.  The table
    evaluates the elementwise path's own multiply ``(c * 2^-2f) * scale``
    and the reference unit at every code whose scaled score can fall
    inside the clamp range, so a gather from it is bit-identical by
    construction for any positive ``scale``.  The multiply is monotone
    in ``c``, so codes beyond either end land — via the take's index
    clip — on an entry whose scaled score is already clamped, exactly
    like the unit's input clamp.

    One read-only table per (numerics, scale) serves every plan and
    engine of the process.
    """
    datapath = Datapath(numerics)
    fi, unit = datapath.input_format, datapath.exp_unit
    if fi is None or unit is None or not (0.0 < scale < math.inf):
        return None
    g = math.ldexp(1.0, -2 * fi.frac_bits)
    # One spare code at each end: the divisions are off by far less.
    c_min = math.floor(unit.lo / (g * scale)) - 1
    c_max = math.ceil(unit.hi / (g * scale)) + 1
    if c_max - c_min + 1 > _EXP_TABLE_MAX:
        return None
    table = unit(np.multiply(np.arange(c_min, c_max + 1) * g, np.float64(scale)))
    table.flags.writeable = False
    return table, float(c_min)


class FunctionalEngine:
    """Executes :class:`ExecutionPlan` instances on (Q, K, V) data.

    ``mode="legacy"`` runs the per-head, per-pass reference path.
    ``mode="compiled"`` (default) runs the chunked-GEMM production path
    over the plan's :class:`~repro.scheduler.compiled.CompiledPlan`
    whenever that is provably bit-exact for the plan's datapath, and the
    reference path otherwise (see the module docstring); :attr:`tiled`
    reports the choice.  Both modes produce bit-identical outputs.  At
    the system level they are the ``"functional"`` and
    ``"functional-legacy"`` engine backends
    (:data:`repro.core.salo.ENGINE_BACKENDS` / the :mod:`repro.api`
    registry); select them by name there rather than constructing
    engines directly.
    """

    def __init__(self, plan: ExecutionPlan, mode: str = "compiled") -> None:
        if mode not in ("compiled", "legacy"):
            raise ValueError(f"unknown engine mode {mode!r}; known: compiled, legacy")
        self.plan = plan
        self.mode = mode
        self.datapath = Datapath(plan.config.numerics)
        self.module = WeightedSumModule(self.datapath)
        # Every (plan, datapath) fact the production path relies on is
        # decided here, once; elsewhere the reference path runs.
        self.tiled = mode == "compiled" and self._supports_tiled()
        if self.tiled:
            # Compile once at construction (memoized on the plan), and
            # derive the execution schedule now: engines always run.
            plan.compiled().schedule

    def _supports_tiled(self) -> bool:
        """Whether the chunked GEMM path is bit-exact for this plan.

        The one gate of the production path, read from the plan's
        configuration alone, so an engine that takes the reference path
        never compiles.  Three proofs, none re-tested per call: every
        stage-1/5 accumulation over codes is exact in float32 — no stage-5
        reduction is longer than the cells of one pass (a score
        rectangle's ``rows + width - 1`` span and a global-row batch —
        the distinct keys one pass streams — both fit inside it) or, for
        the global PE column, the number of global tokens
        (:meth:`Datapath.supports_exact_gemm`); no normalised weight can
        saturate the probability format (:attr:`Datapath.prob_bounded`),
        which the fused epilogue's clip-free quantiser relies on; and no
        stage-5 output can saturate the output format at this sequence
        length (:meth:`Datapath.stage5_bounded`), which the clip-free
        stage-5 quantiser relies on.
        """
        plan, cfg = self.plan, self.plan.config
        max_cols = max(cfg.pe_rows * cfg.pe_cols, len(plan.global_tokens))
        return (
            self.datapath.supports_exact_gemm(plan.head_dim, max_cols)
            and self.datapath.prob_bounded
            and self.datapath.stage5_bounded(plan.n)
        )

    # ------------------------------------------------------------------
    def run(
        self,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        scale: Optional[float] = None,
        valid_lens: Optional[np.ndarray] = None,
    ) -> FunctionalResult:
        """Compute the sparse attention output.

        ``q``, ``k``, ``v`` are either a single sequence
        ``(n, heads*head_dim)`` or a batch of same-plan sequences
        ``(b, n, heads*head_dim)``; the result's shapes follow the input
        rank.  Batched outputs are bit-identical to looping the
        single-sequence call over the batch.

        ``valid_lens`` (one int per sequence, or a scalar for the
        single-sequence form) marks each sequence's real length: rows at
        or beyond it are zero padding whose keys are masked out of the
        softmax and whose query outputs are unspecified (see the module
        docstring).  ``None`` — the common case — means every sequence
        fills the plan length and takes the unmodified fast path.
        """
        plan = self.plan
        q = np.asarray(q, dtype=np.float64)
        k = np.asarray(k, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        if q.ndim not in (2, 3):
            raise EngineError(f"q must be (n, hidden) or (b, n, hidden), got shape {q.shape}")
        n, hidden = q.shape[-2:]
        if n != plan.n:
            raise EngineError(f"plan is for n={plan.n}, data has n={n}")
        if hidden != plan.heads * plan.head_dim:
            raise EngineError(
                f"hidden size {hidden} != heads*head_dim = {plan.heads * plan.head_dim}"
            )
        if k.shape != q.shape or v.shape != q.shape:
            raise EngineError("q, k, v must share shape")
        if scale is None:
            scale = 1.0 / np.sqrt(plan.head_dim)
        lens = self._check_valid_lens(valid_lens, q)

        if self.tiled:
            # One arena per process: a run from inside a run, or from a
            # second thread, would overwrite the buffers of the first.
            if not ARENA.lock.acquire(blocking=False):
                raise EngineError(
                    "the process-wide scratch arena (repro.accelerator.arena.ARENA) is "
                    "in use by another FunctionalEngine.run; production runs do not "
                    "nest or overlap across threads — use one process per concurrent run"
                )
            try:
                return self._run_compiled_tiled(q, k, v, scale, lens)
            finally:
                ARENA.lock.release()

        if q.ndim == 3:
            # Reference semantics of a batch: independent per-sequence runs.
            results = [
                self._run_legacy(
                    q[b], k[b], v[b], scale, None if lens is None else int(lens[b])
                )
                for b in range(q.shape[0])
            ]
            return FunctionalResult(
                output=np.stack([r.output for r in results]),
                merges=sum(r.merges for r in results),
                parts=np.stack([r.parts for r in results]),
            )
        return self._run_legacy(q, k, v, scale, None if lens is None else int(lens[0]))

    def _check_valid_lens(
        self, valid_lens, q: np.ndarray
    ) -> Optional[np.ndarray]:
        """Normalise ``valid_lens`` to an int64 ``(b,)`` array (or ``None``).

        All-full lens collapse to ``None`` so the common case stays on
        the untouched (bit-identical) execution path.
        """
        if valid_lens is None:
            return None
        plan = self.plan
        b = q.shape[0] if q.ndim == 3 else 1
        lens = np.atleast_1d(np.asarray(valid_lens, dtype=np.int64))
        if lens.shape != (b,):
            raise EngineError(
                f"valid_lens must hold one length per sequence ({b}), got shape {lens.shape}"
            )
        if np.any(lens < 1) or np.any(lens > plan.n):
            raise EngineError(
                f"valid_lens must lie in [1, {plan.n}], got {lens.tolist()}"
            )
        if np.all(lens == plan.n):
            return None
        gtok = plan.global_tokens
        if gtok and max(gtok) >= int(lens.min()):
            raise EngineError(
                f"global tokens {tuple(gtok)} must lie inside every sequence's "
                f"valid prefix (min valid_len {int(lens.min())})"
            )
        return lens

    def _run_legacy(
        self,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        scale: float,
        valid_len: Optional[int] = None,
    ) -> FunctionalResult:
        """Per-head, per-pass reference path for one sequence."""
        plan = self.plan
        n, hidden = q.shape
        out = np.empty((n, hidden), dtype=np.float64)
        merges = 0
        parts = np.zeros((plan.heads, n), dtype=np.int64)
        for h in range(plan.heads):
            sl = slice(h * plan.head_dim, (h + 1) * plan.head_dim)
            head_out, acc = self._run_head(q[:, sl], k[:, sl], v[:, sl], scale, valid_len)
            out[:, sl] = head_out
            merges += acc.merges
            parts[h] = acc.parts
        return FunctionalResult(output=out, merges=merges, parts=parts)

    # ------------------------------------------------------------------
    # Chunked-GEMM compiled path (quantised datapaths; see _supports_tiled)
    # ------------------------------------------------------------------
    # Stages 1 and 5 run as banded GEMMs: per block the full
    # (R, R + W - 1) score rectangle is one matmul against the segment's
    # overlapping stream view, and the band is extracted (stage 1) or
    # scattered back (stage 5) through a strided view.  Both GEMMs take
    # integer codes in float32 — operand codes, probability codes — and
    # every partial sum fits the 24-bit float32 significand
    # (``Datapath.supports_exact_gemm``), so the BLAS accumulation order
    # — and the exact zeros of the rectangle padding — cannot round:
    # results are bit-identical to the ordered float64 einsums of the
    # reference path.  Between the GEMMs the epilogue and the merges run
    # in float64 — an exp value times a reciprocal, an output code times
    # a merge coefficient and a row of up to 1024 exp values all need
    # more than 24 bits — and every dtype change is a casting
    # ``np.copyto``, never a mixed-dtype ufunc, whose iterator buffers
    # would allocate.  All buffers are views of the process arena
    # (:mod:`repro.accelerator.arena`), so a call allocates only the
    # arrays it returns — on a cached plan and, once the arena has seen
    # the shapes, on a never-seen one too.

    def _rows(self, slab: _Slab, name: str, ids: np.ndarray, start: Optional[int]) -> np.ndarray:
        """Rows ``ids`` of an operand slab, ``(lanes, ids.size, d)``: slice or gather.

        Every Q/K/V read of the production path comes through here.
        ``start`` is the fact that the flattened ``ids`` equal
        ``clip(arange(start, start + ids.size), 0, n - 1)``, read off
        the plan's schedule: ``SegmentStream.start``,
        ``WindowJob.q_start`` and ``JobChain.wide_start`` (shifted to
        the chunk) for window streams and query blocks,
        ``ExecutionSchedule.global_start`` and ``GlobalRowBucket.start``
        for the global id sets.  A range is a zero-copy slice of the
        edge-padded slab; anything else — dilated bands, ``G > 1`` — is
        gathered into arena buffer ``name`` through a contiguous index.
        """
        if start is not None:
            lo = slab.head + start
            return slab.base[:, lo : lo + ids.size]
        lanes, _, d = slab.core.shape
        idx = _buf((name, "ids"), ids.shape, np.int64)
        np.copyto(idx, ids)
        out = _buf(name, (lanes, ids.size, d), slab.core.dtype)
        np.take(slab.core, idx.reshape(-1), axis=1, out=out, mode="clip")
        return out

    def _run_compiled_tiled(
        self,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        scale: float,
        lens: Optional[np.ndarray] = None,
    ) -> FunctionalResult:
        plan = self.plan
        cp = plan.compiled()
        n, d, heads = plan.n, plan.head_dim, plan.heads
        batched = q.ndim == 3
        b = q.shape[0] if batched else 1
        lanes = b * heads
        lane_lens = None if lens is None else np.repeat(lens, heads)
        margins = cp.schedule.slab_margins
        qh, kh, vh = (
            self._lane_slab(name, x.reshape(b, n, heads, d), margins)
            for name, x in zip("qkv", (q, k, v))
        )
        acc = _BatchAccumulator(lanes, n, d)  # after the slabs: see _lane_slab

        for chain in cp.job_chains:
            self._run_chain_tiled(cp, chain, qh, kh, vh, scale, acc, lane_lens)
        if len(cp.global_tokens):
            self._run_global_column_tiled(cp, qh, kh, vh, scale, acc)
            self._run_global_rows_tiled(cp, qh, kh, vh, scale, acc, lane_lens)
        _require_parts(acc.has, plan.first_query, lane_lens)
        # The accumulator lives in the arena, so the caller-owned results
        # must be fresh copies; its output codes take their resolution here
        # (after the transpose: a ufunc over a strided view would allocate
        # iterator buffers).
        parts = acc.parts.reshape(b, heads, n).copy()
        output = np.empty((b, n, heads * d), dtype=np.float64)
        np.copyto(
            output.reshape(b, n, heads, d),
            acc.out.reshape(b, heads, n, d).transpose(0, 2, 1, 3),
        )
        np.multiply(output, self.datapath.output_format.resolution, out=output)
        if not batched:
            output = output.reshape(n, heads * d)
            parts = parts.reshape(heads, n)
        return FunctionalResult(output=output, merges=acc.merges, parts=parts)

    def _lane_slab(self, name: str, x: np.ndarray, margins: Tuple[int, int]) -> _Slab:
        """Float32 operand-code :class:`_Slab` of ``x (b, n, heads, d)``.

        Quantising is elementwise, so each lane holds exactly the codes
        of the values the reference path's per-head ``quantize_input``
        produces (at most ``input_bits`` wide, exact in float32); the
        ``(head, tail)`` margin rows are then filled from the core's
        edge rows.
        """
        b, n, heads, d = x.shape
        head, tail = margins
        base = _buf(("slab", name), (b * heads, head + n + tail, d), np.float32)
        core = base[:, head : head + n]
        # Round and clip in float64 through the accumulator's storage
        # (set up only after the slabs), then one casting copy.  The
        # transpose fuses into the quantiser's first multiply.
        codes = _buf("acc_out", core.shape)
        self.datapath.input_codes_into(
            x.transpose(0, 2, 1, 3), codes.reshape(b, heads, n, d)
        )
        np.copyto(core, codes)
        if head:
            base[:, :head] = core[:, 0:1]
        if tail:
            base[:, head + n :] = core[:, n - 1 : n]
        return _Slab(core, base, head)

    def _merge_part(self, ro, rw, rh, rp, out, w, has) -> int:
        """Merge one part into running state — the production path's only Eq. 2.

        ``ro (..., d)`` / ``rw`` / ``rh`` / ``rp`` are the running
        output codes, weight, coverage mask and part count (the accumulator, a
        view of it, or chain-local state) and ``(out, w, has)`` a part of
        the same cell shape.  Per cell this is the reference
        accumulator's ``add_part``: assigned where only the part has
        work, Eq. 2-merged where both sides do, untouched otherwise.
        Returns the number of merged cells.

        Cells outside ``has | rh`` may end up holding any finite value
        in ``ro`` / ``rw``: every later merge gates them out and callers
        never read them.
        """
        merges = 0
        if not rh.any():
            # Nothing to merge against yet: pure assignment.
            np.copyto(ro, out)
            np.copyto(rw, w)
            np.copyto(rh, has)
        elif np.array_equal(has, rh):
            # Same cells on both sides: one full-array in-place merge.
            self.module.merge_into(ro, rw, out, w)
            merges = int(has.sum())
        else:
            # Coverage differs: merge a scratch copy of the running
            # state, then commit per cell by masked copies.
            both = _buf("sel_both", w.shape, np.bool_)
            fresh = _buf("sel_fresh", w.shape, np.bool_)
            mout = _buf("sel_out", out.shape)
            mw = _buf("sel_w", w.shape)
            np.logical_and(has, rh, out=both)
            np.greater(has, rh, out=fresh)  # has & ~rh
            np.copyto(mout, ro)
            np.copyto(mw, rw)
            self.module.merge_into(mout, mw, out, w)
            np.copyto(ro, out, where=fresh[..., None])
            np.copyto(rw, w, where=fresh)
            np.copyto(ro, mout, where=both[..., None])
            np.copyto(rw, mw, where=both)
            np.logical_or(rh, has, out=rh)
            merges = int(both.sum())
        np.add(rp, has, out=rp)
        return merges

    def _run_chain_tiled(
        self,
        cp: CompiledPlan,
        chain: JobChain,
        qh: _Slab,
        kh: _Slab,
        vh: _Slab,
        scale: float,
        acc: "_BatchAccumulator",
        lane_lens: Optional[np.ndarray] = None,
    ) -> None:
        """Execute one job chain on chain-local merge state.

        The chunk loop is *outer*, jobs inner: within one block chunk
        (:meth:`CompiledPlan.chunk_blocks`, all lanes) every job's K/V
        streams stay cache-resident through stages 1–5, and per
        (lane, query) the merge order is exactly the job order of the
        schedule.  Chain-local state is *seeded* from the
        accumulator before the first job and committed back by plain
        assignment afterwards, so chains whose queries already carry
        parts from earlier jobs replay exactly the reference path's
        sequential per-pass merges.
        """
        jobs = [cp.window_jobs[ji] for ji in chain.jobs]
        job0 = jobs[0]
        lanes, _, d = qh.core.shape
        G, B, R = job0.num_groups, job0.num_blocks, job0.rows
        Bc = cp.chunk_blocks(job0, lanes)
        flat_keep, flat_q = chain.flat_keep, chain.flat_q
        M = flat_keep.size
        cells = G * B * R
        # (out, w, has, parts) of the accumulator, and of the run state.
        state = (acc.out, acc.w, acc.has, acc.parts)
        # When every cell is kept and the flattened query ids are one
        # contiguous range, the chain's cells *are* a slice of the
        # accumulator: run the merge state directly on accumulator views
        # — no seed, no commit, no scratch copies at all.
        alias = chain.keep_all and job0.q_start is not None
        if alias:
            base = job0.q_start
            run = [a[:, base : base + cells].reshape((lanes, G, B, R) + a.shape[2:]) for a in state]
        else:
            # Zero-invariant arena views (filled only when last served
            # at another shape): stale out/w values at non-kept cells —
            # this chain's or another same-shape chain's — are gated out
            # of every merge by the has masks and never committed (and
            # stay bounded, unlike raw np.empty garbage), so the per
            # -chain fill of the two big buffers can be dropped (and of
            # the part counts, which non-kept cells only ever add
            # ``False`` to); the masks themselves do need clearing.
            run = [
                _zbuf("chain_out", (lanes, G, B, R, d)),
                _zbuf("chain_w", (lanes, G, B, R)),
                _buf("chain_has", (lanes, G, B, R), np.bool_),
                _buf("chain_parts", (lanes, G, B, R), np.int64),
            ]
            run[2].fill(False)
            flat = [r.reshape((lanes, cells) + a.shape[2:]) for r, a in zip(run, state)]
            commit = [
                _buf(("commit", i), (lanes, M) + a.shape[2:], a.dtype)
                for i, a in enumerate(state)
            ]
            # Seed the kept cells with the accumulator's current state
            # for these queries (all zeros when no earlier job touched
            # them) so every chain job is a merge against exactly the
            # state the reference path's accumulator holds at that pass.
            k0, q0 = chain.keep_slice or (0, 0)
            for a, f, cb in zip(state, flat, commit):
                if chain.keep_slice is not None:
                    f[:, k0 : k0 + M] = a[:, q0 : q0 + M]
                else:
                    np.take(a, flat_q, axis=1, out=cb, mode="clip")
                    f[:, flat_keep] = cb
        for b0 in range(0, B, Bc):
            b1 = min(b0 + Bc, B)
            if chain.wide_ids is not None:
                stages = self._wide_job_stages(
                    chain, jobs, qh, kh, vh, scale, b0, b1, lane_lens
                )
            else:
                stages = (
                    self._job_stages_tiled(job, qh, kh, vh, scale, b0, b1, lane_lens)
                    for job in jobs
                )
            ro, rw, rh, rp = (r[:, :, b0:b1] for r in run)
            for out5, w, has in stages:
                acc.merges += self._merge_part(ro, rw, rh, rp, out5, w, has)
        if alias:
            return  # the accumulator *is* the run state
        for a, f, cb in zip(state, flat, commit):
            if chain.keep_slice is not None:
                a[:, q0 : q0 + M] = f[:, k0 : k0 + M]
            else:
                np.take(f, flat_keep, axis=1, out=cb, mode="clip")
                a[:, flat_q] = cb

    def _job_stages_tiled(
        self,
        job: WindowJob,
        qh: _Slab,
        kh: _Slab,
        vh: _Slab,
        scale: float,
        b0: int,
        b1: int,
        lane_lens: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stages 1–5 of one block chunk of a window job, on all lanes.

        Returns ``(out, w, has)`` arena views shaped
        ``(lanes, G, Bc, R, d)`` (output codes) / ``(lanes, G, Bc, R)``;
        the caller must consume them before the next call reuses the
        buffers.
        """
        lanes, _, d = qh.core.shape
        G, R, C = job.num_groups, job.rows, job.cols
        Bc = b1 - b0
        qv = self._rows(
            qh, "job_q", job.q_safe[:, b0:b1], _shift(job.q_start, b0 * R)
        ).reshape(lanes, G, Bc, R, d)
        band = _buf("job_band", (lanes, G, Bc, R, C))
        col0 = 0
        for s, seg in enumerate(job.segments):
            W = seg.width
            span = R + W - 1
            kview = self._stream_view(kh, "job_k", job, s, b0, b1)
            rect = _buf(("job_rect", s), (lanes, G, Bc, R, span), np.float32)
            np.matmul(qv, kview.swapaxes(-1, -2), out=rect)
            np.copyto(band[..., col0 : col0 + W], _band(rect, W))
            col0 += W
        w, has = self._job_epilogue(job, band, scale, b0, b1, lane_lens)
        acc5 = _buf("job_acc5", (lanes, G, Bc, R, d), np.float32)
        tmp5 = _buf("job_acc5b", acc5.shape, np.float32) if len(job.segments) > 1 else None
        col0 = 0
        for s, seg in enumerate(job.segments):
            W = seg.width
            span = R + W - 1
            # Zero-invariant: every use of one shape scatters into the
            # same band positions (the stage-1 rect holds garbage off-band).
            rect = _zbuf(("job_rect5", s), (lanes, G, Bc, R, span), np.float32)
            np.copyto(_band(rect, W), band[..., col0 : col0 + W])
            vview = self._stream_view(vh, "job_v", job, s, b0, b1)
            np.matmul(rect, vview, out=acc5 if s == 0 else tmp5)
            if s > 0:
                np.add(acc5, tmp5, out=acc5)
            col0 += W
        return self._output_codes(acc5, "job_out"), w, has

    def _stream_view(
        self, slab: _Slab, name: str, job: WindowJob, s: int, b0: int, b1: int
    ) -> np.ndarray:
        """Segment ``s``'s K or V stream for blocks ``[b0, b1)`` of a job.

        ``(lanes, G, Bc, R + W - 1, d)``: one overlapping window of the
        stream per block, advancing ``block_step`` rows — the diagonal
        k/v connections as strides.
        """
        seg = job.segments[s]
        span = job.rows + seg.width - 1
        lo = b0 * seg.block_step
        hi = (b1 - 1) * seg.block_step + span
        st = self._rows(slab, name, seg.gather_ids[:, lo:hi], _shift(seg.start, lo))
        st = st.reshape(st.shape[0], job.num_groups, hi - lo, st.shape[2])
        t_, g_, l_, d_ = st.strides
        return as_strided(
            st,
            (st.shape[0], job.num_groups, b1 - b0, span, st.shape[3]),
            (t_, g_, seg.block_step * l_, l_, d_),
        )

    def _job_epilogue(
        self,
        job: WindowJob,
        band: np.ndarray,
        scale: float,
        b0: int,
        b1: int,
        lane_lens: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Masks + fused epilogue of one job chunk; returns ``(w, has)``.

        The masks are slices of per-job facts — the job's masked block
        run, ``job.keep``, its key ids — so nothing the plan retains
        depends on where the chunks fall.
        """
        lanes, G, Bc, R, C = band.shape
        m0, m1 = job.masked
        lo, hi = max(b0, m0), min(b1, m1)
        valid = (slice(lo - b0, hi - b0), job.validf[:, :, lo - m0 : hi - m0]) if lo < hi else None
        lmask = None
        if lane_lens is not None:
            lmask = _buf("job_lmask", (lanes, G, Bc, R, C), np.bool_)
            col0 = 0
            for ids in job.key_views:
                W = ids.shape[3]
                np.less(
                    ids[None, :, b0:b1],
                    lane_lens[:, None, None, None, None],
                    out=lmask[..., col0 : col0 + W],
                )
                col0 += W
        w = _buf("job_w", (lanes, G, Bc, R))
        has = _buf("job_has", (lanes, G, Bc, R), np.bool_)
        self._band_epilogue(band, valid, lmask, scale, w, has)
        # Rows the window path never merges (global queries, padding) are
        # dropped by the reference path before its accumulator call
        # (``_run_window_pass``); clearing their ``has`` excludes them
        # from chain merges, part counts and the commit identically
        # (their values are discarded either way).
        np.logical_and(has, job.keep[None, :, b0:b1], out=has)
        return w, has

    def _wide_job_stages(
        self,
        chain: JobChain,
        jobs,
        qh: _Slab,
        kh: _Slab,
        vh: _Slab,
        scale: float,
        b0: int,
        b1: int,
        lane_lens: Optional[np.ndarray] = None,
    ):
        """Stages 1–5 of one block chunk of a single-band chain, on all lanes.

        The chain's jobs stream adjacent column slices of one window
        band (``JobChain.wide_ids``), so one read per operand serves
        every job of the chunk and stage 1 is *one* banded GEMM spanning
        every job's columns — each per-cell dot product is the identical
        exact integer regardless of the surrounding GEMM width, so
        extracting a job's band from the wide rectangle is bit-identical
        to the per-job GEMM it replaces.  Yields per-job ``(out, w, has)``
        arena views in schedule order; stage 5 stays per job (each job
        normalises and merges its own probabilities).
        """
        job0 = jobs[0]
        lanes, _, d = qh.core.shape
        G, R = job0.num_groups, job0.rows
        Bc = b1 - b0
        step = job0.segments[0].block_step
        offs = chain.wide_offsets
        widths = [j.segments[0].width for j in jobs]
        span = R + offs[-1] + widths[-1] - 1
        lo = b0 * step
        L = (Bc - 1) * step + span
        qv = self._rows(
            qh, "wide_q", job0.q_safe[:, b0:b1], _shift(job0.q_start, b0 * R)
        ).reshape(lanes, G, Bc, R, d)
        wids = chain.wide_ids[:, lo : lo + L]
        wstart = _shift(chain.wide_start, lo)
        kr = self._rows(kh, "wide_k", wids, wstart).reshape(lanes, G, L, d)
        vr = self._rows(vh, "wide_v", wids, wstart).reshape(lanes, G, L, d)
        st, sg, sl, sd = kr.strides
        vt, vg, vl, vd = vr.strides
        kview = as_strided(kr, (lanes, G, Bc, span, d), (st, sg, step * sl, sl, sd))
        rect = _buf("wide_rect", (lanes, G, Bc, R, span), np.float32)
        np.matmul(qv, kview.swapaxes(-1, -2), out=rect)
        for jpos, job in enumerate(jobs):
            W = widths[jpos]
            off = offs[jpos]
            span_j = R + W - 1
            band = _buf("job_band", (lanes, G, Bc, R, W))
            np.copyto(band, _band(rect[..., off:], W))
            w, has = self._job_epilogue(job, band, scale, b0, b1, lane_lens)
            # Zero-invariant: each use of one shape scatters the band
            # into the same strided positions, everything else stays 0.
            rect5 = _zbuf("wide_rect5", (lanes, G, Bc, R, span_j), np.float32)
            np.copyto(_band(rect5, W), band)
            vview = as_strided(
                vr[:, :, off:],
                (lanes, G, Bc, span_j, d),
                (vt, vg, step * vl, vl, vd),
            )
            acc5 = _buf("job_acc5", (lanes, G, Bc, R, d), np.float32)
            np.matmul(rect5, vview, out=acc5)
            yield self._output_codes(acc5, "job_out"), w, has

    def _exp_table(self, scale: float):
        """The datapath's score-code -> exp table for ``scale``, if any."""
        return _exp_code_table(self.datapath.numerics, float(scale))

    def _band_epilogue(
        self,
        band: np.ndarray,
        valid: Optional[Tuple[slice, np.ndarray]],
        lmask: Optional[np.ndarray],
        scale: float,
        w: np.ndarray,
        has: np.ndarray,
    ) -> None:
        """Fused mask + softmax epilogue: score codes -> probability codes in place.

        One pass per chunk over the contiguous float64 band buffer: PWL
        exp (a gather from the score-code table, or the scale and the
        unit), validity masking (``valid``: a run of the band's blocks
        and its 0/1 mask; ``lmask``: padded-tail keys), row sum, LUT
        reciprocal and probability quantisation — every step is the
        elementwise op the reference path's ``_attend_block`` applies,
        and the row sum (a GEMV against ones) adds fixed-point exp values
        far inside the double significand (exact in any order), so
        bit-identical.
        Rows without work come back with the safe weight 1.0 (``has``
        tells them apart): their cells are all exact zeros, so their
        probabilities are 0 either way, and a strictly positive weight
        on every row keeps Eq. 2 merges of cells empty on both sides —
        computed, then discarded — away from ``recip(0)``.
        """
        dp = self.datapath
        lut = self._exp_table(scale)
        if lut is not None:
            table, off = lut
            idx = _buf("exp_idx", band.shape, np.int64)
            np.subtract(band, off, out=band)
            np.copyto(idx, band, casting="unsafe")
            np.take(table, idx, out=band, mode="clip")
        else:
            # ``c * (2^-2f * scale)`` rounds once, like the reference's
            # ``(c * 2^-2f) * scale``: the power-of-two factor is exact.
            np.multiply(band, math.ldexp(scale, -2 * dp.input_format.frac_bits), out=band)
            dp.exp_into(band, band)
        if valid is not None:
            blocks, validf = valid
            masked = band[:, :, blocks]
            np.multiply(masked, validf, out=masked)
        if lmask is not None:
            np.multiply(band, lmask, out=band)
        ones = _buf("epi_ones", band.shape[-1:])
        ones.fill(1.0)
        np.matmul(band, ones, out=w)
        np.greater(w, 0.0, out=has)
        inv = _buf("epi_inv", w.shape)
        np.subtract(1.0, has, out=inv)
        np.add(w, inv, out=w)
        dp.recip_into(w, inv)
        # Fold the prob quantiser's power-of-two scale into the row-shaped
        # reciprocal: exact power-of-two scaling commutes with fp
        # rounding, so ``rint(e * (inv * 2^f))`` are the codes of
        # quantising ``e * inv`` — one fewer full-band pass — and the
        # saturation clip is an identity (``Datapath.prob_bounded``, part
        # of ``_supports_tiled``).
        np.multiply(inv, float(1 << dp.prob_format.frac_bits), out=inv)
        np.multiply(band, inv[..., None], out=band)
        np.rint(band, out=band)

    def _epilogue_on(self, s, name, lmask, scale, w, has) -> None:
        """:meth:`_band_epilogue` on a float32 stage-1 GEMM result ``s``,
        in place, through float64 arena buffer ``name``."""
        band = _buf(name, s.shape)
        np.copyto(band, s)
        self._band_epilogue(band, None, lmask, scale, w, has)
        np.copyto(s, band)

    def _output_codes(self, acc5: np.ndarray, name: str) -> np.ndarray:
        """Output codes of the float32 stage-5 sums ``acc5`` (overwritten),
        copied into float64 arena buffer ``name`` for the merges."""
        self.datapath.output_codes_into(acc5, acc5)
        out = _buf(name, acc5.shape)
        np.copyto(out, acc5)
        return out

    def _run_global_column_tiled(self, cp, qh, kh, vh, scale, acc) -> None:
        """Global PE column via GEMM + the fused epilogue.

        Computed for all ``n`` rows straight off the query slab — no row
        gather wherever the global tokens sit — with the global rows'
        own (discarded) cells masked out of ``has`` before the merge.
        """
        if len(cp.nonglobal_rows) == 0:
            return
        gtok = cp.global_tokens
        lanes, n, d = qh.core.shape
        g0 = cp.schedule.global_start
        kg = self._rows(kh, "gcol_k", gtok, g0)
        vg = self._rows(vh, "gcol_v", gtok, g0)
        s = _buf("gcol_s", (lanes, n, len(gtok)), np.float32)
        np.matmul(qh.core, kg.swapaxes(-1, -2), out=s)
        w = _buf("gcol_w", (lanes, n))
        has = _buf("gcol_has", (lanes, n), np.bool_)
        self._epilogue_on(s, "gcol_band", None, scale, w, has)
        acc5 = _buf("gcol_acc5", (lanes, n, d), np.float32)
        np.matmul(s, vg, out=acc5)
        out = self._output_codes(acc5, "gcol_out")
        has[:, gtok] = False
        acc.merges += self._merge_part(acc.out, acc.w, acc.has, acc.parts, out, w, has)

    def _run_global_rows_tiled(
        self, cp, qh, kh, vh, scale, acc, lane_lens: Optional[np.ndarray] = None
    ) -> None:
        """Global PE row via GEMM + fused epilogue in arena buffers.

        Same batches (``ExecutionPlan.global_row_schedule``) and the
        same sequential merge chain as the reference path's
        :meth:`_run_global_rows`; stages 1–5 of all batches of one length
        run together — gathered contiguous key/value slabs and ``matmul``
        replace the per-batch einsums (exact under quantisation, see
        :meth:`Datapath.supports_exact_gemm`), followed by the fused
        epilogue.
        """
        gtok = cp.global_tokens
        num_b = cp.global_batches.shape[0]
        if num_b == 0 or len(gtok) == 0:
            return
        lanes, _, d = qh.core.shape
        num_g = len(gtok)
        out = _buf("grow_out", (lanes, num_b, num_g, d))
        w = _buf("grow_w", (lanes, num_b, num_g))
        has = _buf("grow_has", (lanes, num_b, num_g), np.bool_)
        qg = self._rows(qh, "grow_qg", gtok, cp.schedule.global_start)
        for bucket in cp.schedule.global_buckets:
            bidx, keys, k0 = bucket.batches, bucket.keys, bucket.start
            nb, L = keys.shape
            kv = self._rows(kh, "grow_k", keys, k0).reshape(lanes, nb, L, d)
            vv = self._rows(vh, "grow_v", keys, k0).reshape(lanes, nb, L, d)
            s = _buf("grow_s", (lanes, nb, num_g, L), np.float32)
            np.matmul(qg[:, None], kv.swapaxes(-1, -2), out=s)
            lmask = None
            if lane_lens is not None:
                lmask = _buf("grow_lmask", (lanes, nb, 1, L), np.bool_)
                np.less(
                    keys[None, :, None, :], lane_lens[:, None, None, None], out=lmask
                )
            bw = _buf("grow_bw", (lanes, nb, num_g))
            bh = _buf("grow_bh", (lanes, nb, num_g), np.bool_)
            self._epilogue_on(s, "grow_band", lmask, scale, bw, bh)
            acc5 = _buf("grow_acc5", (lanes, nb, num_g, d), np.float32)
            np.matmul(s, vv, out=acc5)
            out[:, bidx] = self._output_codes(acc5, "grow_bo")
            w[:, bidx] = bw
            has[:, bidx] = bh
        self._merge_global_rows(cp, out, w, has, acc)

    def _merge_global_rows(self, cp, out, w, has, acc) -> None:
        """Sequential weighted-sum merge chain of the global-row batches.

        The batches form a private merge chain: no other part ever
        carries a global query row, so the chain runs on local
        ``(lanes, G)`` state and is committed to the accumulator once.
        """
        lanes, num_b, num_g, d = out.shape
        out_run = _buf("grow_run_out", (lanes, num_g, d))
        w_run = _buf("grow_run_w", (lanes, num_g))
        has_run = _buf("grow_run_has", (lanes, num_g), np.bool_)
        parts_run = _buf("grow_run_parts", (lanes, num_g), np.int64)
        has_run.fill(False)
        parts_run.fill(0)
        for b in range(num_b):
            acc.merges += self._merge_part(
                out_run, w_run, has_run, parts_run, out[:, b], w[:, b], has[:, b]
            )
        gtok = cp.global_tokens
        acc.out[:, gtok] = out_run
        acc.w[:, gtok] = w_run
        acc.has[:, gtok] = has_run
        acc.parts[:, gtok] += parts_run

    # ------------------------------------------------------------------
    # Legacy per-head, per-pass path (reference implementation)
    # ------------------------------------------------------------------
    def _run_head(
        self,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        scale: float,
        valid_len: Optional[int] = None,
    ) -> Tuple[np.ndarray, _Accumulator]:
        plan = self.plan
        n, d = q.shape
        qq = self.datapath.quantize_input(q)
        kq = self.datapath.quantize_input(k)
        vq = self.datapath.quantize_input(v)
        acc = _Accumulator(n, d, self.module)
        gset = plan.global_set
        gmask = np.zeros(n, dtype=bool)
        if gset:
            gmask[list(gset)] = True

        for tp in plan.passes:
            self._run_window_pass(tp, qq, kq, vq, scale, acc, gset, gmask, valid_len)
        if plan.global_tokens:
            self._run_global_column(qq, kq, vq, scale, acc, gmask)
            self._run_global_rows(qq, kq, vq, scale, acc, valid_len)
        _require_parts(acc.has[None], plan.first_query, None if valid_len is None else [valid_len])
        return acc.out, acc

    # ------------------------------------------------------------------
    def _attend_block(
        self,
        qb: np.ndarray,  # (rows, d) quantised queries
        key_ids: np.ndarray,  # (rows, cols) with -1 = masked
        kq: np.ndarray,
        vq: np.ndarray,
        scale: float,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stages 1–5 for one block; returns (out, w, row_has_work)."""
        valid = key_ids >= 0
        safe = np.where(valid, key_ids, 0)
        kb = kq[safe]  # (rows, cols, d)
        vb = vq[safe]
        s = np.einsum("rd,rcd->rc", qb, kb) * scale
        e = np.where(valid, self.datapath.exp(s), 0.0)
        w = e.sum(axis=1)
        has = w > 0
        out = np.zeros((qb.shape[0], vb.shape[2]), dtype=np.float64)
        if has.any():
            inv = self.datapath.recip(w[has])
            probs = self.datapath.quantize_prob(e[has] * inv[:, None])
            out[has] = self.datapath.quantize_output(
                np.einsum("rc,rcd->rd", probs, vb[has])
            )
        return out, w, has

    def _run_window_pass(
        self,
        tp: TilePass,
        qq: np.ndarray,
        kq: np.ndarray,
        vq: np.ndarray,
        scale: float,
        acc: _Accumulator,
        gset,
        gmask: np.ndarray,
        valid_len: Optional[int] = None,
    ) -> None:
        n = self.plan.n
        q_ids = tp.query_ids()
        key_ids = tp.key_ids(n, exclude=gset)
        if valid_len is not None:
            key_ids = np.where(key_ids >= valid_len, -1, key_ids)
        # Global queries are produced by the global PE row; drop their
        # rows, and those below the first query (never computed).
        keep = ~gmask[q_ids] & (q_ids >= self.plan.first_query)
        if not keep.any():
            return
        q_ids = q_ids[keep]
        key_ids = key_ids[keep]
        out, w, has = self._attend_block(qq[q_ids], key_ids, kq, vq, scale)
        acc.add_part(q_ids[has], out[has], w[has])

    def _run_global_column(
        self,
        qq: np.ndarray,
        kq: np.ndarray,
        vq: np.ndarray,
        scale: float,
        acc: _Accumulator,
        gmask: np.ndarray,
    ) -> None:
        """Global PE column: every non-global query attends the global keys."""
        rows = np.flatnonzero(~gmask)
        if len(rows) == 0:
            return
        gtok = np.asarray(self.plan.global_tokens, dtype=np.int64)
        key_ids = np.broadcast_to(gtok, (len(rows), len(gtok)))
        out, w, has = self._attend_block(qq[rows], key_ids, kq, vq, scale)
        acc.add_part(rows[has], out[has], w[has])

    def _run_global_rows(
        self,
        qq: np.ndarray,
        kq: np.ndarray,
        vq: np.ndarray,
        scale: float,
        acc: _Accumulator,
        valid_len: Optional[int] = None,
    ) -> None:
        """Global PE row: each global query attends the full sequence.

        Consumes the same memoized ``global_row_schedule`` as the compiled
        path and the micro-simulator, so merge orders cannot drift.
        """
        rows = np.asarray(self.plan.global_tokens, dtype=np.int64)
        for batch in self.plan.global_row_schedule():
            if valid_len is not None:
                batch = np.where(np.asarray(batch) >= valid_len, -1, batch)
            key_ids = np.broadcast_to(batch, (len(rows), len(batch)))
            out, w, has = self._attend_block(qq[rows], key_ids, kq, vq, scale)
            acc.add_part(rows[has], out[has], w[has])
