"""Cycle-accurate micro-simulator of the SALO spatial accelerator.

This simulator advances explicit per-cycle PE state through the 5-stage
datapath of Figure 6 for every tile pass of an execution plan, including
the global PE row/column and the weighted-sum module.  It is the ground
truth for the analytic timing model (``timing.pass_cycles`` must match its
cycle count exactly — property-tested) and for the vectorised functional
engine (bit-identical outputs — cross-checked in tests).

Microarchitectural interpretation
---------------------------------
Stage 1 runs "in a typical output stationary systolic manner" (paper
Section 5.1): query elements enter each row from the left with the classic
one-cycle-per-row/column skew, so PE ``(r, c)`` executes MAC ``m`` of its
dot product at cycle ``m + r + c`` and the stage completes in
``d + rows + cols - 2`` cycles.  The diagonal k/v connections of Section
5.2 determine *which* key vector a PE sees (``key = query + band offset``,
constant along anti-diagonals) and eliminate SRAM re-reads — they do not
change the stage-1 schedule.  Stage 3 ripples the exp-sum left→right (one
add per cycle), the reciprocal unit and broadcast bus add fixed latencies,
and stage 5 streams value elements with the same column skew while partial
sums flow right, so output element ``m`` exits at cycle ``m + cols - 1``.

Because this simulator is pure Python over per-cycle PE state it is meant
for small configurations (tests use arrays up to ~16x16 with head
dimensions up to ~32); full workloads run on the functional engine +
analytic timing model instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..scheduler.plan import ExecutionPlan, TilePass
from .datapath import Datapath
from .functional import EngineError, FunctionalResult, _require_parts
from .pe import PE
from .timing import PassTiming, pass_cycles
from .weighted_sum import WeightedSumModule

__all__ = ["SystolicSimulator", "SimulationResult", "SystolicEngine"]


@dataclass
class SimulationResult:
    """Micro-simulation output for one head... or a whole run."""

    output: np.ndarray
    cycles: int
    pass_traces: List[PassTiming]
    merges: int


class _MergeState:
    """Output-buffer accumulators driven by the weighted-sum module."""

    def __init__(self, n: int, d: int, module: WeightedSumModule) -> None:
        self.out = np.zeros((n, d), dtype=np.float64)
        self.w = np.zeros(n, dtype=np.float64)
        self.has = np.zeros(n, dtype=bool)
        self.module = module
        self.merges = 0

    def add(self, qi: int, out_vec: np.ndarray, w: float) -> None:
        if not self.has[qi]:
            self.out[qi] = out_vec
            self.w[qi] = w
            self.has[qi] = True
            return
        merged, total = self.module.merge(
            self.out[qi][None, :], np.array([self.w[qi]]), out_vec[None, :], np.array([w])
        )
        self.out[qi] = merged[0]
        self.w[qi] = total[0]
        self.merges += 1


class SystolicEngine:
    """Plan-level engine interface over the cycle-accurate simulator.

    Adapts :class:`SystolicSimulator` to the execution-engine contract
    :class:`~repro.core.salo.SALO` drives (``run(q, k, v, scale,
    valid_lens)`` returning a
    :class:`~repro.accelerator.functional.FunctionalResult`), so the
    micro-simulator is selectable as the ``"systolic"`` engine backend.
    The simulator advances explicit per-cycle PE state, so the contract
    is narrower than the functional engine's: one sequence at a time (no
    batch axis) and no padded-tail masking — both rejected up front with
    an :class:`EngineError` rather than computed wrongly.  ``parts`` is
    ``None`` in the result: the micro-simulator does not track per-query
    part counts.
    """

    def __init__(self, plan: ExecutionPlan) -> None:
        self.plan = plan
        self.simulator = SystolicSimulator(plan)

    def run(
        self,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        scale: Optional[float] = None,
        valid_lens: Optional[np.ndarray] = None,
    ) -> FunctionalResult:
        q = np.asarray(q, dtype=np.float64)
        if q.ndim == 3:
            raise EngineError(
                "the systolic engine executes one sequence at a time; "
                "it does not support a batch axis"
            )
        if valid_lens is not None:
            raise EngineError(
                "the systolic engine does not support valid_lens (padded tails)"
            )
        result = self.simulator.run(q, k, v, scale=scale)
        return FunctionalResult(output=result.output, merges=result.merges, parts=None)


class SystolicSimulator:
    """Executes an :class:`ExecutionPlan` cycle by cycle."""

    def __init__(self, plan: ExecutionPlan) -> None:
        self.plan = plan
        self.datapath = Datapath(plan.config.numerics)
        self.module = WeightedSumModule(self.datapath)
        rows, cols = plan.config.pe_rows, plan.config.pe_cols
        self.pes = [[PE(self.datapath) for _ in range(cols)] for _ in range(rows)]

    # ------------------------------------------------------------------
    def run(
        self,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        scale: Optional[float] = None,
    ) -> SimulationResult:
        """Simulate the full plan on ``(n, heads*head_dim)`` inputs."""
        plan = self.plan
        q = np.asarray(q, dtype=np.float64)
        k = np.asarray(k, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        n, hidden = q.shape
        if n != plan.n or hidden != plan.heads * plan.head_dim:
            raise EngineError("input shape does not match plan")
        if scale is None:
            scale = 1.0 / np.sqrt(plan.head_dim)

        out = np.empty((n, hidden), dtype=np.float64)
        cycles = 0
        traces: List[PassTiming] = []
        merges = 0
        for h in range(plan.heads):
            sl = slice(h * plan.head_dim, (h + 1) * plan.head_dim)
            o, c, t, m = self._run_head(q[:, sl], k[:, sl], v[:, sl], scale)
            out[:, sl] = o
            cycles += c
            merges += m
            if h == 0:
                traces = t
        return SimulationResult(output=out, cycles=cycles, pass_traces=traces, merges=merges)

    # ------------------------------------------------------------------
    def _run_head(
        self, q: np.ndarray, k: np.ndarray, v: np.ndarray, scale: float
    ) -> Tuple[np.ndarray, int, List[PassTiming], int]:
        plan = self.plan
        n, d = q.shape
        qq = self.datapath.quantize_input(q)
        kq = self.datapath.quantize_input(k)
        vq = self.datapath.quantize_input(v)
        gset = plan.global_set
        state = _MergeState(n, d, self.module)
        gstate = _MergeState(n, d, self.module)  # global-row accumulators

        cycles = 0
        traces: List[PassTiming] = []

        for tp in plan.passes:
            trace = self._simulate_pass(tp, qq, kq, vq, scale, state, gset)
            cycles += trace.total
            traces.append(trace)

        if plan.global_tokens:
            # The global PE row consumes each pass's fresh keys
            # concurrently with the array (no extra cycles); only the
            # trailing cleanup batches — keys never streamed by a window
            # pass — cost dedicated global-only passes.  Both engines
            # consume the same memoized schedule, so the partial-softmax
            # merge order cannot drift between them.
            schedule = plan.global_row_schedule()
            first_cleanup = len(schedule) - plan.global_row_cleanup_batches
            for i, batch in enumerate(schedule):
                self._global_row_batch(batch, qq, kq, vq, scale, gstate)
                if i >= first_cleanup and plan.global_only_passes:
                    pt = pass_cycles(
                        plan.config, max(1, plan.config.global_rows), plan.config.pe_cols, d
                    )
                    cycles += pt.total
            self._global_column(qq, kq, vq, scale, state, gset)
            for g in plan.global_tokens:
                if gstate.has[g]:
                    state.out[g] = gstate.out[g]
                    state.w[g] = gstate.w[g]
                    state.has[g] = True

        _require_parts(state.has[None], plan.first_query)
        return state.out, cycles, traces, state.merges + gstate.merges

    # ------------------------------------------------------------------
    def _simulate_pass(
        self,
        tp: TilePass,
        qq: np.ndarray,
        kq: np.ndarray,
        vq: np.ndarray,
        scale: float,
        state: _MergeState,
        gset,
    ) -> PassTiming:
        plan = self.plan
        config = plan.config
        n = plan.n
        d = qq.shape[1]
        R, C = tp.rows_used, tp.cols_used
        q_ids = tp.query_ids()
        key_ids = tp.key_ids(n, exclude=gset)
        valid = key_ids >= 0
        safe = np.where(valid, key_ids, 0)

        pes = self.pes
        for r in range(R):
            for c in range(C):
                pes[r][c].reset(bool(valid[r, c]))

        # ---- Stage 1: output-stationary QK^T, schedule m + r + c -------
        stage1 = d + R + C - 2
        for t in range(stage1):
            for r in range(R):
                for c in range(C):
                    m = t - r - c
                    if 0 <= m < d:
                        pes[r][c].mac_qk(qq[q_ids[r], m], kq[safe[r, c], m])
        for r in range(R):
            for c in range(C):
                pes[r][c].apply_scale(scale)

        # ---- Stage 2: PWL exponential ----------------------------------
        for r in range(R):
            for c in range(C):
                pes[r][c].compute_exp()
        stage2 = config.stage2_exp_cycles

        # ---- Stage 3: ripple sum, reciprocal, broadcast ----------------
        w_row = np.zeros(R, dtype=np.float64)
        for r in range(R):
            partial = 0.0
            for c in range(C):  # one column hop per cycle
                partial = pes[r][c].add_to_sum(partial)
            w_row[r] = partial
        stage3 = C + config.stage3_inv_cycles + config.stage3_bcast_cycles
        inv_row = np.zeros(R, dtype=np.float64)
        rows_active = w_row > 0
        if rows_active.any():
            inv_row[rows_active] = self.datapath.recip(w_row[rows_active])

        # ---- Stage 4: normalise ----------------------------------------
        for r in range(R):
            if rows_active[r]:
                for c in range(C):
                    pes[r][c].normalize(inv_row[r])
        stage4 = 1

        # ---- Stage 5: weight-stationary S'V ----------------------------
        stage5 = d + C - 1
        psum = np.zeros((R, d), dtype=np.float64)
        for t in range(stage5):
            for r in range(R):
                for c in range(C):
                    m = t - c
                    if 0 <= m < d and rows_active[r]:
                        psum[r, m] = pes[r][c].mac_sv(vq[safe[r, c], m], psum[r, m])

        # ---- Weighted-sum merge ----------------------------------------
        for r in range(R):
            qi = int(q_ids[r])
            if qi in gset or not rows_active[r]:
                continue
            out_vec = self.datapath.quantize_output(psum[r])
            state.add(qi, out_vec, float(w_row[r]))

        return PassTiming(
            stage1=stage1,
            stage2=stage2,
            stage3=stage3,
            stage4=stage4,
            stage5=stage5,
            weighted_sum=config.weighted_sum_latency,
        )

    # ------------------------------------------------------------------
    def _global_row_batch(
        self,
        batch: np.ndarray,
        qq: np.ndarray,
        kq: np.ndarray,
        vq: np.ndarray,
        scale: float,
        gstate: _MergeState,
    ) -> None:
        """Global PE row: one partial-softmax batch per key stream."""
        d = qq.shape[1]
        for g in self.plan.global_tokens:
            pe_row = [PE(self.datapath) for _ in range(len(batch))]
            for c, j in enumerate(batch):
                pe_row[c].reset(True)
                for m in range(d):
                    pe_row[c].mac_qk(qq[g, m], kq[j, m])
                pe_row[c].apply_scale(scale)
                pe_row[c].compute_exp()
            w = 0.0
            for c in range(len(batch)):
                w = pe_row[c].add_to_sum(w)
            if w <= 0:
                continue
            inv = float(self.datapath.recip(np.array([w]))[0])
            for c in range(len(batch)):
                pe_row[c].normalize(inv)
            out = np.zeros(d, dtype=np.float64)
            for m in range(d):
                psum = 0.0
                for c, j in enumerate(batch):
                    psum = pe_row[c].mac_sv(vq[j, m], psum)
                out[m] = psum
            gstate.add(int(g), self.datapath.quantize_output(out), w)

    def _global_column(
        self,
        qq: np.ndarray,
        kq: np.ndarray,
        vq: np.ndarray,
        scale: float,
        state: _MergeState,
        gset,
    ) -> None:
        """Global PE column: every non-global query attends the global keys."""
        n, d = qq.shape
        gtok = list(self.plan.global_tokens)
        for qi in range(n):
            if qi in gset:
                continue
            col = [PE(self.datapath) for _ in gtok]
            for c, j in enumerate(gtok):
                col[c].reset(True)
                for m in range(d):
                    col[c].mac_qk(qq[qi, m], kq[j, m])
                col[c].apply_scale(scale)
                col[c].compute_exp()
            w = 0.0
            for c in range(len(gtok)):
                w = col[c].add_to_sum(w)
            if w <= 0:
                continue
            inv = float(self.datapath.recip(np.array([w]))[0])
            for c in range(len(gtok)):
                col[c].normalize(inv)
            out = np.zeros(d, dtype=np.float64)
            for m in range(d):
                psum = 0.0
                for c, j in enumerate(gtok):
                    psum = col[c].mac_sv(vq[j, m], psum)
                out[m] = psum
            state.add(qi, self.datapath.quantize_output(out), w)
