"""cold_churn: every op is the first ``attend`` of a never-seen structure.

The same ``core``/``scheduler``/``accelerator`` code as prefill_paper,
used the other way round: a round builds a fresh ``Runtime`` and attends
eight Longformer structures it has never compiled (n in {2048, 3072,
4096}, window 256..512, 2 heads x 8).  The shapes are a fixed design of
about equal cost (n x window = 1.0-1.3 M cells, 150-210 ms of user CPU
each), so every round — and every seed — does the same amount of work
and the pooled median latency does not sit on the edge between a cheap
and a dear shape; the seed picks the order and the data.  Each structure's global-token index is a
process-wide serial, so no memo anywhere can turn a measured op warm.

The wall clock of a cold op carries 0-950 ms of page-fault stall for
identical work on the reference host, which is why this workload's
gated signal is ``user_cpu_ms_per_ktoken``; its wall numbers are
reported like everyone else's and are the noisiest in the set.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from harness import Check, Recorder, Tracer, Workload, digest
from layers import COLD_CHAIN_SPANS, cold_chain, cold_chain_metrics, plan_cache_metrics

HEADS, HEAD_DIM = 2, 8

#: (n, window) of the eight structures of a round.
DESIGN: Tuple[Tuple[int, int], ...] = (
    (2048, 480),
    (2048, 512),
    (3072, 352),
    (3072, 384),
    (3072, 416),
    (4096, 256),
    (4096, 288),
    (4096, 320),
)
SMOKE_DESIGN: Tuple[Tuple[int, int], ...] = ((128, 16), (192, 24), (256, 32))


class ColdChurn(Workload):
    name = "cold_churn"
    nominal_round_s = 2.2  # eight cold attends of 150-210 ms user CPU, plus their page faults
    repeats_exactly = False  # a round's structures are new by construction
    clock = "user"  # the wall carries 0-950 ms of page-fault stall per op

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.design = SMOKE_DESIGN if self.smoke else DESIGN
        self.order = [self.design[i] for i in rng.permutation(len(self.design))]
        self.operands = {
            n: tuple(rng.standard_normal((n, HEADS * HEAD_DIM)) for _ in range(3))
            for n in sorted({n for n, _ in self.design})
        }
        self.serial = 0
        self.cache = [0, 0]
        self.round_items: List[tuple] = []

    def _fresh_pattern(self, n: int, window: int):
        from repro import longformer_pattern

        self.serial += 1  # a global-token index no earlier structure used
        return longformer_pattern(n, window, (self.serial,))

    # ------------------------------------------------------------------
    def run_round(self, rec: Recorder) -> None:
        from repro import Runtime

        self.rt = Runtime()
        self.round_items = []
        for n, window in self.order:
            pattern = self._fresh_pattern(n, window)
            q, k, v = self.operands[n]
            result = rec.op((n, window), n, self.rt.attend, pattern, q, k, v, heads=HEADS)
            self.round_items.append((pattern, n, None if result is None else result.output))
            if rec.tracer is not None and rec.round > 0:
                cold_chain(
                    rec.tracer,
                    lambda: self._fresh_pattern(n, window),
                    HEADS,
                    q,
                    k,
                    v,
                    kind=(n, window),
                    parent=rec.last_span,
                    op=len(rec.samples) - 1,
                )
        info = self.rt.cache_info()
        if rec.round > 0 and rec.tracer is None:
            self.cache[0] += info["hits"]
            self.cache[1] += info["misses"]

    def check_round(self) -> Check:
        """Every cold output equals the warm re-attend of its structure."""
        notes: List[str] = []
        failed = 0
        for pattern, n, cold in self.round_items:
            q, k, v = self.operands[n]
            warm = self.rt.attend(pattern, q, k, v, heads=HEADS).output
            if cold is None or not np.array_equal(cold, warm):
                failed += 1
                notes.append(f"cold attend of n={n} differs from its warm re-attend")
        outs = [o for _, _, o in self.round_items if o is not None]
        return Check(len(self.round_items), failed, digest(outs), notes)

    # ------------------------------------------------------------------
    def layer_probes(self, tracer: Tracer) -> Dict[str, float]:
        op_user = tracer.reduce("op", "user", scale=1e3)
        chain_user = sum(tracer.reduce(name, "user", scale=1e3) for name in COLD_CHAIN_SPANS)
        return {
            **cold_chain_metrics(tracer),
            "scheduler.passes": float(self._design_passes()),
            "core.cold_attend_wall_ms": tracer.reduce("op", scale=1e3),
            "core.cold_attend_user_ms": op_user,
            **plan_cache_metrics(*self.cache),
            "harness.decomposition_residual_share": (
                (op_user - chain_user) / op_user if op_user else 0.0
            ),
        }

    def _design_passes(self) -> int:
        """Structural passes of one round's eight plans (exact count)."""
        from repro import longformer_pattern
        from repro.core.config import HardwareConfig
        from repro.scheduler import DataScheduler

        scheduler = DataScheduler(HardwareConfig())
        return sum(
            scheduler.schedule(
                longformer_pattern(n, window, (0,)), heads=HEADS, head_dim=HEAD_DIM
            ).num_structural_passes
            for n, window in self.design
        )
