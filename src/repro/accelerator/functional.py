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
walks ``plan.passes`` per head and per pass with ordered einsums, reading
the :class:`~repro.scheduler.plan.TilePass` objects, and is what the
equivalence suites compare against.  The *production* path consumes
the plan's memoized :class:`~repro.scheduler.compiled.CompiledPlan`:
passes are structural — identical across heads and across calls — so
Q/K/V are quantised once for all heads, stages 1 and 5 run as banded
GEMMs over block chunks of all lanes, a fused epilogue covers stages
2–4, and every weighted-sum merge — window, global column and global
row alike — replays in the hardware's per-query pass order through the
one masked Eq. 2 primitive :meth:`FunctionalEngine._merge_part`.  The
unit of work is the *chain*: the job builder cuts each query group's
blocks into an interior, where every column group is live, and two
edges, so one chain carries all passes of the interior blocks (91.6% of
Longformer-4096/512's) on accumulator views, and when its jobs slice
one band a single stage-1 GEMM spans all of their columns.
It runs in the hardware's *code domain*.  The operand slabs hold Q8.4
codes in float32; stage 1 writes each block's score rectangle
transposed, ``K_window @ Q_blk^T`` (``(R + W - 1, R)``, the orientation
BLAS runs fastest on these shapes), and casts its diagonal band
(:func:`_band_t`) straight into the int64 index of the score-code exp
table; the epilogue hands probability codes to stage 5, whose V slab
was multiplied once by the power of two ``2^(out_frac - prob_frac -
in_frac)`` (:attr:`Datapath.output_shift`), so a stage-5 sum is in
output units and one ``rint`` is the whole output quantiser; the merges
and the accumulator work on output codes, and the output resolution is
applied once, when the result is copied out.  Both GEMMs take integer
codes (the V codes times an exact power of two) and every partial sum
fits the 24-bit float32 significand (:meth:`Datapath.supports_exact_gemm`),
so neither orientation nor BLAS order can round: each cell is the
reference path's exact dot product.
Operands are never gathered where the ids are a range: every key
stream and query block of an undilated band is a (clip-clamped)
contiguous id range, a fact verified when the plan is compiled, and
:meth:`FunctionalEngine._rows` — the one place Q/K/V are read — serves
those as zero-copy slices of an edge-padded operand slab; ``np.take``
remains for dilated bands, ``G > 1`` families and scattered global
batches only.

Two doors, one core
-------------------
:meth:`FunctionalEngine.run` takes float operands;
:meth:`FunctionalEngine.run_codes` takes lane-major ``(heads, n,
head_dim)`` windows of the operand codes :meth:`Datapath.input_codes_into`
makes of them — what a decode KV cache (:class:`repro.decode.KVState`)
holds, each row quantised once as it arrives, the way SALO quantises
Q/K/V once as they enter its buffers (Section 6.4).  On the production
path the doors differ only in how the float32 operand slabs are filled:
``run`` quantises into them, ``run_codes`` copies each window straight
into its lanes.  Everything after the slabs — job chains, the global
column and rows, merges, copy-out — is one code path, so the doors are
bit-identical on the same operands.  The reference path has no code
domain: ``run_codes`` hands it ``codes x resolution`` (a power of two,
so exactly the values ``run`` quantises to, and re-quantising them is
the identity) and it runs as under ``run``.

``mode="compiled"`` (default) picks between them from what the engine
observes, never from a caller-set value, in one place —
:meth:`FunctionalEngine._supports_tiled`, at construction — and the
production path never re-tests what that gate proved.  One gate, three
proofs: every stage-1/5 accumulation over integer codes is exact in
float32 (:meth:`Datapath.supports_exact_gemm`: 20 bits for stage 1 and
about 22 for stage 5 at the default numerics); no normalised weight can
saturate the probability format (:attr:`Datapath.prob_bounded`: 1.0039
against Q1.15's 1.99997); and no stage-5 output over ``n`` keys can
saturate the output format (:meth:`Datapath.stage5_bounded`: up to
``n`` = 917 k) — so the production path's quantisers carry neither a
clip nor an unquantised branch.  Everything else (``exact()`` configs,
bit widths past the float32 budget, formats that can saturate) runs the
reference path.  Either way the output is bit-identical to
``mode="legacy"``; :attr:`FunctionalEngine.tiled` reports the choice.
The production path is total: every plan comes from
:meth:`DataScheduler.schedule`, and every such plan has a job schedule.

Working memory and the unit of isolation
----------------------------------------
The production path allocates nothing but the arrays it returns: every
reusable buffer — operand slabs, score rectangles, band, exp-index and
epilogue vectors, the running accumulator, the weighted-sum and
reciprocal temporaries — is a view of the process-wide scratch arena
(:mod:`repro.accelerator.arena`), one grow-only buffer per name sized by
the largest request ever seen, the way the accelerator runs every pass
through one fixed set of SRAMs.  Between the GEMMs the epilogue and the
merges run in float64 (an exp value times a reciprocal, an output code
times a merge coefficient, a row of up to 1024 exp values all need more
than 24 bits), and every dtype change is a casting ``np.copyto``, never
a mixed-dtype ufunc, whose iterator buffers would allocate.  A part is
scratch: the merge that takes it scales it in place.  Plans keep only
structure — the :class:`~repro.scheduler.compiled.ExecutionSchedule`,
built with the plan and written by nobody — so memory does not scale
with cached plans or chunk shapes.  The price is that the unit of
isolation is the *process*: :meth:`run` holds the arena's lock, and a
run started from inside another run or from a second thread raises
:class:`EngineError` instead of corrupting the first.  Concurrency is by
process — a forked transport worker inherits a copy-on-write image of
the arena.  The reference path (``mode="legacy"``) allocates as it goes
and is not subject to the guard.


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
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple

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


def _band_t(rect_t: np.ndarray, width: int) -> np.ndarray:
    """:func:`_band` of a rectangle stored transposed, ``(..., span, R)``
    with ``span >= R + width - 1``: ``[r, c]`` is ``rect_t[..., r + c, r]``."""
    s = rect_t.strides
    shape = rect_t.shape[:-2] + (rect_t.shape[-1], width)
    return as_strided(rect_t, shape, s[:-2] + (s[-2] + s[-1], s[-2]))


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


class _Exp(NamedTuple):
    """Stage 2 of one run: the score scale and its :func:`_exp_code_table` entry."""

    scale: float
    lut: Optional[Tuple[np.ndarray, int]]


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
    pipeline is a function of ``c`` alone.  The table evaluates the
    elementwise path's own multiply ``(c * 2^-2f) * scale`` and the
    reference unit at every code whose scaled score can fall inside the
    clamp range, so a gather from it is bit-identical by construction;
    codes beyond either end land, via the take's index clip, on an entry
    already clamped, exactly like the unit's input clamp.  One read-only
    table per (numerics, scale) serves every engine of the process.
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
    return table, c_min


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
        stage-1/5 accumulation over codes is exact in float32 (no stage-5
        reduction is longer than the cells of one pass or, for the global
        PE column, the number of global tokens); no normalised weight
        saturates the probability format; no stage-5 output saturates the
        output format at this sequence length.
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
        scale = self._scale(scale)
        batched = q.ndim == 3
        b = q.shape[0] if batched else 1
        lens = self._check_valid_lens(valid_lens, b)

        if self.tiled:
            heads, d = plan.heads, plan.head_dim

            def fill(core: np.ndarray, x: np.ndarray) -> None:
                # Round and clip in float64 through the accumulator's
                # storage (set up only after the slabs), then one casting
                # copy.  The transpose fuses into the quantiser's first
                # multiply.
                codes = _buf("acc_out", core.shape)
                self.datapath.input_codes_into(
                    x.reshape(b, n, heads, d).transpose(0, 2, 1, 3),
                    codes.reshape(b, heads, n, d),
                )
                np.copyto(core, codes)

            return self._run_tiled(fill, (q, k, v), b, batched, scale, lens)

        if batched:
            # Reference semantics of a batch: independent per-sequence runs.
            results = [
                self._run_legacy(q[i], k[i], v[i], scale, None if lens is None else int(lens[i]))
                for i in range(b)
            ]
            return FunctionalResult(
                output=np.stack([r.output for r in results]),
                merges=sum(r.merges for r in results),
                parts=np.stack([r.parts for r in results]),
            )
        return self._run_legacy(q, k, v, scale, None if lens is None else int(lens[0]))

    def run_codes(
        self,
        q: Sequence[np.ndarray],
        k: Sequence[np.ndarray],
        v: Sequence[np.ndarray],
        scale: Optional[float] = None,
        valid_lens: Optional[np.ndarray] = None,
    ) -> FunctionalResult:
        """:meth:`run` on operands already in the datapath's input domain.

        ``q``, ``k``, ``v`` each hold ``b`` lane-major windows
        ``(heads, n, head_dim)`` — a sequence of them, or one
        ``(b, heads, n, head_dim)`` array — of the integer codes
        :meth:`Datapath.input_codes_into` makes of the float operands
        (float32 holds those of the production path's formats exactly),
        or, on a datapath without an input format (``exact()``), of the
        values themselves.  The result is batched, ``(b, n,
        heads*head_dim)``, and bit-identical to :meth:`run` on the float
        operands the codes came from.

        The production path copies each window straight into its lanes
        of the operand slab; from there on it is the code ``run`` runs.
        The reference path gets ``codes x resolution`` — exactly the
        values ``run`` would have quantised to, the resolution being a
        power of two — and runs on them.
        """
        plan = self.plan
        heads, n, d = plan.heads, plan.n, plan.head_dim
        b = len(q)
        if b < 1 or len(k) != b or len(v) != b:
            raise EngineError(
                f"q, k, v must hold the same number (>= 1) of windows, got "
                f"{len(q)}, {len(k)}, {len(v)}"
            )
        for name, windows in zip("qkv", (q, k, v)):
            for window in windows:
                if np.shape(window) != (heads, n, d):
                    raise EngineError(
                        f"{name} windows must be (heads, n, head_dim) = {(heads, n, d)}, "
                        f"got {np.shape(window)}"
                    )
        lens = self._check_valid_lens(valid_lens, b)

        if self.tiled:

            def fill(core: np.ndarray, windows) -> None:
                lanes = core.reshape(b, heads, n, d)
                for i, window in enumerate(windows):
                    np.copyto(lanes[i], window)

            return self._run_tiled(fill, (q, k, v), b, True, self._scale(scale), lens)

        fi = self.datapath.input_format
        resolution = 1.0 if fi is None else fi.resolution
        values = (
            np.multiply(np.stack(windows), resolution, dtype=np.float64)
            .transpose(0, 2, 1, 3)
            .reshape(b, n, heads * d)
            for windows in (q, k, v)
        )
        return self.run(*values, scale=scale, valid_lens=lens)

    def _scale(self, scale: Optional[float]) -> float:
        return 1.0 / np.sqrt(self.plan.head_dim) if scale is None else scale

    def _run_tiled(self, fill, operands, b: int, batched: bool, scale, lens) -> FunctionalResult:
        """The production path under the arena lock; ``fill(core, x)``
        writes operand ``x``'s codes into its slab core."""
        # One arena per process: a run from inside a run, or from a
        # second thread, would overwrite the buffers of the first.
        if not ARENA.lock.acquire(blocking=False):
            raise EngineError(
                "the process-wide scratch arena (repro.accelerator.arena.ARENA) is "
                "in use by another FunctionalEngine.run; production runs do not "
                "nest or overlap across threads — use one process per concurrent run"
            )
        try:
            return self._run_compiled_tiled(fill, operands, b, batched, scale, lens)
        finally:
            ARENA.lock.release()

    def _check_valid_lens(self, valid_lens, b: int) -> Optional[np.ndarray]:
        """Normalise ``valid_lens`` to an int64 ``(b,)`` array (or ``None``).

        Entries must be integers: a bool, a string, a non-finite or a
        fractional number is refused, not cast (an integral float such
        as ``64.0`` is taken as its integer).  All-full lens collapse to
        ``None`` so the common case stays on the untouched
        (bit-identical) execution path.
        """
        if valid_lens is None:
            return None
        plan = self.plan
        entries = np.asarray(valid_lens, dtype=object)
        for x in entries.flat:
            if type(x) is not int and (
                isinstance(x, (bool, np.bool_))
                or not isinstance(x, numbers.Real)
                or not (isinstance(x, numbers.Integral) or math.isfinite(x) and x == int(x))
            ):
                raise EngineError(
                    f"valid_lens entries must be integers, got {x!r} in {entries.tolist()}"
                )
        lens = np.atleast_1d(entries.astype(np.int64))
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
    # Stage 1 extracts its band from a transposed score rectangle, stage
    # 5 scatters probability codes into a zero-invariant one; every
    # buffer is an arena view (module docstring: "Execution pipeline",
    # "Working memory").

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
        fill,
        operands,
        b: int,
        batched: bool,
        scale: float,
        lens: Optional[np.ndarray] = None,
    ) -> FunctionalResult:
        plan = self.plan
        cp = plan.compiled()
        n, d, heads = plan.n, plan.head_dim, plan.heads
        lanes = b * heads
        lane_lens = None if lens is None else np.repeat(lens, heads)
        margins = cp.schedule.slab_margins
        qh, kh, vh = (
            self._lane_slab(name, x, lanes, margins, fill) for name, x in zip("qkv", operands)
        )
        # Stage 5's shift to output units rides in the V codes: a power
        # of two, so every stage-5 sum is the same exact integer sum, scaled.
        np.multiply(vh.base, self.datapath.output_shift, out=vh.base)
        acc = _BatchAccumulator(lanes, n, d)  # after the slabs: see run's fill
        exp = _Exp(scale, self._exp_table(scale))

        for chain in cp.job_chains:
            self._run_chain_tiled(cp, chain, qh, kh, vh, exp, acc, lane_lens)
        if len(cp.global_tokens):
            self._run_global_column_tiled(cp, qh, kh, vh, exp, acc)
            self._run_global_rows_tiled(cp, qh, kh, vh, exp, acc, lane_lens)
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

    def _lane_slab(self, name: str, x, lanes: int, margins: Tuple[int, int], fill) -> _Slab:
        """Float32 operand-code :class:`_Slab` of ``lanes`` lanes.

        ``fill(core, x)`` writes the codes of operand ``x`` into the
        ``(lanes, n, d)`` core — by quantising floats (:meth:`run`:
        quantising is elementwise, so each lane holds exactly the codes of
        the values the reference path's per-head ``quantize_input``
        produces, at most ``input_bits`` wide and exact in float32) or by
        copying codes (:meth:`run_codes`); the ``(head, tail)`` margin
        rows are then filled from the core's edge rows.
        """
        n, d = self.plan.n, self.plan.head_dim
        head, tail = margins
        base = _buf(("slab", name), (lanes, head + n + tail, d), np.float32)
        core = base[:, head : head + n]
        fill(core, x)
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
            # Coverage differs: commit the part's fresh cells, merge a
            # scratch copy of the running state (the merge consumes the
            # part), then commit the merged cells by masked copies.
            both = _buf("sel_both", w.shape, np.bool_)
            fresh = _buf("sel_fresh", w.shape, np.bool_)
            mout = _buf("sel_out", out.shape)
            mw = _buf("sel_w", w.shape)
            np.logical_and(has, rh, out=both)
            np.greater(has, rh, out=fresh)  # has & ~rh
            np.copyto(mout, ro)
            np.copyto(mw, rw)
            np.copyto(ro, out, where=fresh[..., None])
            np.copyto(rw, w, where=fresh)
            self.module.merge_into(mout, mw, out, w)
            np.copyto(ro, mout, where=both[..., None])
            np.copyto(rw, mw, where=both)
            np.logical_or(rh, has, out=rh)
            merges = int(both.sum())
        np.add(rp, 1, out=rp, where=has)
        return merges

    def _run_chain_tiled(
        self,
        cp: CompiledPlan,
        chain: JobChain,
        qh: _Slab,
        kh: _Slab,
        vh: _Slab,
        exp: _Exp,
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
            # the part counts, which non-kept cells never add to); the
            # masks themselves do need clearing.
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
                    chain, jobs, qh, kh, vh, exp, b0, b1, lane_lens
                )
            else:
                stages = (
                    self._job_stages_tiled(job, qh, kh, vh, exp, b0, b1, lane_lens)
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
        exp: _Exp,
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
        qt = self._rows(
            qh, "job_q", job.q_safe[:, b0:b1], _shift(job.q_start, b0 * R)
        ).reshape(lanes, G, Bc, R, d).swapaxes(-1, -2)
        band, sink = self._exp_buffers(exp, (lanes, G, Bc, R, C), "job_band")
        col0 = 0
        for s, seg in enumerate(job.segments):
            W = seg.width
            span = R + W - 1
            kview = self._stream_view(kh, "job_k", job, s, b0, b1)
            rect = _buf(("job_rect", s), (lanes, G, Bc, span, R), np.float32)
            np.matmul(kview, qt, out=rect)
            np.copyto(sink[..., col0 : col0 + W], _band_t(rect, W), casting="unsafe")
            col0 += W
        w, has = self._job_epilogue(job, band, sink, exp, b0, b1, lane_lens)
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
        sink: np.ndarray,
        exp: _Exp,
        b0: int,
        b1: int,
        lane_lens: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Masks + fused epilogue of one job chunk, whose score codes
        stage 1 left in ``sink`` (see :meth:`_exp_buffers`); returns
        ``(w, has)``.

        The masks are slices of per-job facts — the job's masked block
        run, ``job.keep``, its key ids — so nothing the plan retains
        depends on where the chunks fall.
        """
        lanes, G, Bc, R, C = band.shape
        m0, m1 = job.masked
        lo, hi = max(b0, m0), min(b1, m1)
        valid = (slice(lo - b0, hi - b0), job.validf[:, :, lo - m0 : hi - m0]) if lo < hi else None
        pad = None
        if lane_lens is not None:
            pad = _buf("job_pad", (lanes, G, Bc, R, C), np.bool_)
            col0 = 0
            for ids in job.key_views:
                W = ids.shape[3]
                np.greater_equal(
                    ids[None, :, b0:b1],
                    lane_lens[:, None, None, None, None],
                    out=pad[..., col0 : col0 + W],
                )
                col0 += W
        w = _buf("job_w", (lanes, G, Bc, R))
        has = _buf("job_has", (lanes, G, Bc, R), np.bool_)
        self._band_epilogue(band, sink, valid, pad, exp, w, has)
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
        exp: _Exp,
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
        qt = self._rows(
            qh, "wide_q", job0.q_safe[:, b0:b1], _shift(job0.q_start, b0 * R)
        ).reshape(lanes, G, Bc, R, d).swapaxes(-1, -2)
        wids = chain.wide_ids[:, lo : lo + L]
        wstart = _shift(chain.wide_start, lo)
        kr = self._rows(kh, "wide_k", wids, wstart).reshape(lanes, G, L, d)
        vr = self._rows(vh, "wide_v", wids, wstart).reshape(lanes, G, L, d)
        st, sg, sl, sd = kr.strides
        vt, vg, vl, vd = vr.strides
        kview = as_strided(kr, (lanes, G, Bc, span, d), (st, sg, step * sl, sl, sd))
        rect = _buf("wide_rect", (lanes, G, Bc, span, R), np.float32)
        np.matmul(kview, qt, out=rect)
        for jpos, job in enumerate(jobs):
            W = widths[jpos]
            off = offs[jpos]
            span_j = R + W - 1
            band, sink = self._exp_buffers(exp, (lanes, G, Bc, R, W), "job_band")
            np.copyto(sink, _band_t(rect[..., off:, :], W), casting="unsafe")
            w, has = self._job_epilogue(job, band, sink, exp, b0, b1, lane_lens)
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

    @staticmethod
    def _exp_buffers(exp: _Exp, shape, name: str) -> Tuple[np.ndarray, np.ndarray]:
        """``(band, sink)``: the float64 epilogue buffer ``name`` and where
        stage 1 casts its score codes — the int64 exp-table index when a
        table applies, else the band itself."""
        band = _buf(name, shape)
        return band, band if exp.lut is None else _buf("exp_idx", shape, np.int64)

    def _band_epilogue(
        self,
        band: np.ndarray,
        sink: np.ndarray,
        valid: Optional[Tuple[slice, np.ndarray]],
        pad: Optional[np.ndarray],
        exp: _Exp,
        w: np.ndarray,
        has: np.ndarray,
    ) -> None:
        """Fused mask + softmax epilogue: the score codes stage 1 cast into
        ``sink`` (:meth:`_exp_buffers`) -> probability codes in ``band``.

        PWL exp (a gather from the score-code table, or the scale and the
        unit), masking (``valid``: a run of the band's blocks and its 0/1
        mask; ``pad``: padded-tail keys), row sum, LUT reciprocal and
        probability quantisation: each the elementwise op of the reference
        path's ``_attend_block``, and the row sum (a GEMV against ones)
        adds fixed-point exp values exactly in any order.  Rows without
        work get the safe weight 1.0 (``has`` tells them apart): their
        probabilities are 0 either way, and a positive weight on every
        row keeps Eq. 2 merges of cells empty on both sides away from
        ``recip(0)``.
        """
        dp = self.datapath
        if exp.lut is not None:
            table, first = exp.lut
            np.subtract(sink, first, out=sink)
            np.take(table, sink, out=band, mode="clip")
        else:
            # ``c * (2^-2f * scale)`` rounds once, like the reference's
            # ``(c * 2^-2f) * scale``: the power-of-two factor is exact.
            np.multiply(band, math.ldexp(exp.scale, -2 * dp.input_format.frac_bits), out=band)
            dp.exp_into(band, band)
        if valid is not None:
            blocks, validf = valid
            masked = band[:, :, blocks]
            np.multiply(masked, validf, out=masked)
        if pad is not None:
            np.copyto(band, 0.0, where=pad)
        ones = _buf("epi_ones", band.shape[-1:])
        ones.fill(1.0)
        np.matmul(band, ones, out=w)
        np.greater(w, 0.0, out=has)
        idle = _buf("epi_idle", w.shape, np.bool_)
        np.logical_not(has, out=idle)
        np.copyto(w, 1.0, where=idle)
        inv = _buf("epi_inv", w.shape)
        dp.recip_into(w, inv)
        # The prob quantiser's power-of-two scale folds into the row-shaped
        # reciprocal (exact scaling commutes with fp rounding), and its
        # saturation clip is an identity (``Datapath.prob_bounded``).
        np.multiply(inv, float(1 << dp.prob_format.frac_bits), out=inv)
        np.multiply(band, inv[..., None], out=band)
        np.rint(band, out=band)

    def _epilogue_on(self, s, name, pad, exp, w, has) -> None:
        """:meth:`_band_epilogue` on a float32 stage-1 GEMM result ``s``,
        in place, through float64 arena buffer ``name``."""
        band, sink = self._exp_buffers(exp, s.shape, name)
        np.copyto(sink, s, casting="unsafe")
        self._band_epilogue(band, sink, None, pad, exp, w, has)
        np.copyto(s, band)

    @staticmethod
    def _output_codes(acc5: np.ndarray, name: str) -> np.ndarray:
        """Output codes of the float32 stage-5 sums ``acc5`` (rounded in
        place; the V slab carries the shift to output units), widened into
        float64 arena buffer ``name`` for the merges."""
        np.rint(acc5, out=acc5)
        out = _buf(name, acc5.shape)
        np.copyto(out, acc5)
        return out

    def _run_global_column_tiled(self, cp, qh, kh, vh, exp, acc) -> None:
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
        self._epilogue_on(s, "gcol_band", None, exp, w, has)
        acc5 = _buf("gcol_acc5", (lanes, n, d), np.float32)
        np.matmul(s, vg, out=acc5)
        out = self._output_codes(acc5, "gcol_out")
        has[:, gtok] = False
        acc.merges += self._merge_part(acc.out, acc.w, acc.has, acc.parts, out, w, has)

    def _run_global_rows_tiled(
        self, cp, qh, kh, vh, exp, acc, lane_lens: Optional[np.ndarray] = None
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
            pad = None
            if lane_lens is not None:
                pad = _buf("grow_pad", (lanes, nb, 1, L), np.bool_)
                np.greater_equal(
                    keys[None, :, None, :], lane_lens[:, None, None, None], out=pad
                )
            bw = _buf("grow_bw", (lanes, nb, num_g))
            bh = _buf("grow_bh", (lanes, nb, num_g), np.bool_)
            self._epilogue_on(s, "grow_band", pad, exp, bw, bh)
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
