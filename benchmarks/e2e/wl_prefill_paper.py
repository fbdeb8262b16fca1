"""prefill_paper: warm ``Runtime.attend`` sweeps over the Table-2 layers.

The paper's own workloads.  One sweep is one attend of each layer:
Longformer (n=4096, window 512, head_dim 64, one global token; 4 of the
12 heads — lanes are independent, and the 12-head first touch alone
costs 10-30 s on the reference host), ViL-stage1 (56x56 grid, 15x15
window, 3 heads) and ViL-stage2 (28x28, 15x15, 6 heads).  Operands are
generated once from the seed and reused, so after round 0 nothing in a
sweep allocates for the first time and the plan cache only ever hits.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

import numpy as np

from harness import Check, Recorder, Tracer, Workload, digest
from layers import (
    cold_chain,
    cold_chain_metrics,
    plan_cache_metrics,
    thin_overheads_us,
    timed_loop_us,
    traced_alloc_kb,
)

#: |quantised engine - float64 dense oracle| accepted on ViL-stage2.
#: Over seeds 0-11 the mean reads 0.0037 every time and the maximum
#: 0.03-0.33 (a few saturated Q8.4 cells); outputs are O(1), so a broken
#: datapath fails both by a wide margin.
REF_MEAN_ERR_LIMIT = 0.01
REF_MAX_ERR_LIMIT = 1.0


class Layer(NamedTuple):
    name: str
    make_pattern: object  # () -> pattern
    heads: int  # heads executed
    paper_heads: int  # heads of the published layer (cost model only)
    head_dim: int


def _layers(smoke: bool) -> List[Layer]:
    from repro import longformer_pattern, vil_pattern

    if smoke:
        return [
            Layer("longformer", lambda: longformer_pattern(256, 32, (0,)), 2, 12, 8),
            Layer("vil1", lambda: vil_pattern(12, 12, 5), 1, 3, 8),
            Layer("vil2", lambda: vil_pattern(8, 8, 5), 2, 6, 8),
        ]
    return [
        Layer("longformer", lambda: longformer_pattern(4096, 512, (0,)), 4, 12, 64),
        Layer("vil1", lambda: vil_pattern(56, 56, 15), 3, 3, 64),
        Layer("vil2", lambda: vil_pattern(28, 28, 15), 6, 6, 64),
    ]


class PrefillPaper(Workload):
    name = "prefill_paper"
    nominal_round_s = 0.95  # one sweep: ~0.55 + 0.25 + 0.14 s

    def setup(self) -> None:
        from repro import Runtime

        rng = np.random.default_rng(self.seed)
        self.layers = _layers(self.smoke)
        self.patterns = {l.name: l.make_pattern() for l in self.layers}
        self.operands = {
            l.name: tuple(
                rng.standard_normal((self.patterns[l.name].n, l.heads * l.head_dim))
                for _ in range(3)
            )
            for l in self.layers
        }
        self.rt = Runtime()
        self.dense = Runtime(backend="dense")
        self.outputs: Dict[str, np.ndarray] = {}
        self.engines: Dict[str, object] = {}
        self.cache = [0, 0]
        self.ref_err = 0.0

    # ------------------------------------------------------------------
    def run_round(self, rec: Recorder) -> None:
        before = self.rt.cache_info()
        for layer in self.layers:
            pattern = self.patterns[layer.name]
            q, k, v = self.operands[layer.name]
            result = rec.op(
                layer.name,
                pattern.n,
                self.rt.attend,
                pattern,
                q,
                k,
                v,
                heads=layer.heads,
                headline=layer.name == "longformer",
            )
            self.outputs[layer.name] = None if result is None else result.output
            if rec.tracer is not None and rec.round > 0:
                self._replay(rec.tracer, layer, rec.last_span, len(rec.samples) - 1)
        after = self.rt.cache_info()
        if rec.round > 0 and rec.tracer is None:
            self.cache[0] += after["hits"] - before["hits"]
            self.cache[1] += after["misses"] - before["misses"]

    def check_round(self) -> Check:
        """Digest of the sweep's outputs; ViL-stage2 against the oracle."""
        notes: List[str] = []
        failed = 0
        outs = [self.outputs.get(l.name) for l in self.layers]
        if any(o is None for o in outs):
            return Check(1, 1, "", ["a layer produced no output"])
        layer = self.layers[-1]
        q, k, v = self.operands[layer.name]
        ref = self.dense.attend(self.patterns[layer.name], q, k, v, heads=layer.heads).output
        err = np.abs(outs[-1] - ref)
        self.ref_err = float(err.max())
        if not (self.ref_err < REF_MAX_ERR_LIMIT and float(err.mean()) < REF_MEAN_ERR_LIMIT):
            failed += 1
            notes.append(
                f"{layer.name} differs from the dense oracle: max {self.ref_err:.3g}, "
                f"mean {float(err.mean()):.3g}"
            )
        return Check(1, failed, digest(outs), notes)

    # ------------------------------------------------------------------
    def _engine(self, tracer: Tracer, layer: Layer):
        """The layer's own engine, built (and timed) on first use."""
        if layer.name not in self.engines:
            q, k, v = self.operands[layer.name]
            _, plan, engine = cold_chain(
                tracer, layer.make_pattern, layer.heads, q, k, v, kind=layer.name
            )
            self.engines[layer.name] = (plan, engine)
        return self.engines[layer.name]

    def _replay(self, tracer: Tracer, layer: Layer, op_span: int, op: int) -> None:
        """facade -> ``SALO.attend`` -> ``FunctionalEngine.run`` on the op's inputs."""
        _, engine = self._engine(tracer, layer)
        q, k, v = self.operands[layer.name]
        salo = self.rt.backend.salo
        _, core = tracer.call(
            "core.attend",
            salo.attend,
            self.patterns[layer.name],
            q,
            k,
            v,
            heads=layer.heads,
            parent=op_span,
            op=op,
            kind=layer.name,
        )
        tracer.call("accelerator.run", engine.run, q, k, v, parent=core, op=op, kind=layer.name)

    def layer_probes(self, tracer: Tracer) -> Dict[str, float]:
        from repro import Runtime, longformer_pattern

        small = self.layers[-1]
        pattern = self.patterns[small.name]
        rng = np.random.default_rng(self.seed + 1)
        tiny = longformer_pattern(256, 32, (0,))
        facade_us, hit_us = thin_overheads_us(
            tiny, *(rng.standard_normal((256, 16)) for _ in range(3)), heads=2
        )

        big = self.layers[0]
        _, big_engine = self._engine(tracer, big)
        model = Runtime()
        estimates = [
            model.estimate(self.patterns[l.name], heads=l.paper_heads, head_dim=l.head_dim)
            for l in self.layers
        ]
        cycles = sum(e.cycles for e in estimates)
        # an attend is the engine run plus the two thin layers above it
        op_ms = tracer.reduce("op", scale=1e3)
        covered_ms = tracer.reduce("accelerator.run", scale=1e3) + (facade_us + hit_us) / 1e3
        return {
            **cold_chain_metrics(tracer),
            "scheduler.passes": float(
                sum(p.num_structural_passes for p, _ in self.engines.values())
            ),
            "accelerator.run_longformer_ms": tracer.reduce("accelerator.run", kind="longformer", scale=1e3),
            "accelerator.run_vil1_ms": tracer.reduce("accelerator.run", kind="vil1", scale=1e3),
            "accelerator.run_vil2_ms": tracer.reduce("accelerator.run", kind="vil2", scale=1e3),
            "accelerator.warm_alloc_kb": traced_alloc_kb(
                lambda: big_engine.run(*self.operands[big.name])
            ),
            "accelerator.model_cycles": float(cycles),
            "accelerator.model_utilization": sum(e.utilization * e.cycles for e in estimates) / cycles,
            "accelerator.model_latency_ms": 1e3 * sum(e.latency_s for e in estimates),
            "accelerator.model_energy_mj": 1e3 * sum(e.energy_j for e in estimates),
            "accelerator.ref_max_abs_err": self.ref_err,
            "core.attend_hit_overhead_us": hit_us,
            **plan_cache_metrics(*self.cache),
            "api.facade_overhead_us": facade_us,
            "api.estimate_us": timed_loop_us(
                lambda: self.rt.estimate(pattern, heads=small.heads, head_dim=small.head_dim), 200
            ),
            "harness.decomposition_residual_share": (op_ms - covered_ms) / op_ms if op_ms else 0.0,
        }
