"""cluster_sim: three ``simulate()`` scenarios on the flat cost-model clock.

The control plane (``cluster``, ``serving.admission``/``batching``) with
no engine execution at all.  One op is one scenario of 3000 requests
(n=256, window 32, 2 heads x 8):

``steady``    4 workers, EDF, rho 0.9
``overload``  ``experiments.overload`` "admit+shed", 2 workers, rho 1.5
``faults``    ``experiments.faults`` "retry+steal", 2 workers, rho 0.8,
              worker 1 crashes mid-run and rejoins cold

Host time per simulated request is what the provisioning advisor pays
dozens of times per decision.  The simulated statistics repeat exactly
from round to round (sources are built once from the seed and replayed;
fault injectors are rebuilt per run), so a round that differs from
round 0's ``to_dict()`` is a behaviour change and counts as failed.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Dict, List

from harness import Check, Recorder, Tracer, Workload
from layers import timed_loop_us

SCENARIOS = ("steady", "overload", "faults")
RHO = {"steady": 0.9, "overload": 1.5, "faults": 0.8}
WORKERS = {"steady": 4, "overload": 2, "faults": 2}


class ClusterSim(Workload):
    name = "cluster_sim"
    nominal_round_s = 1.05  # ~0.25 + 0.35 + 0.40 s

    def setup(self) -> None:
        from repro.cluster import CostModelClock, PoissonProcess, WorkloadSpec, open_loop, service_scales
        from repro.experiments import faults, overload

        self.requests = 120 if self.smoke else 3000
        self.sim_clock = CostModelClock.flat()
        probe = WorkloadSpec(n=256, window=32, heads=2, head_dim=8)
        self.unit_s, self.dispatch_s = service_scales(probe, self.sim_clock)
        specs = {
            "steady": faults.faults_spec(self.requests, self.dispatch_s, seed=self.seed),
            "overload": overload.overload_spec(self.requests, self.dispatch_s, seed=self.seed + 1),
            "faults": faults.faults_spec(self.requests, self.dispatch_s, seed=self.seed + 2),
        }
        self.rates = {
            name: RHO[name] * WORKERS[name] / self.unit_s for name in SCENARIOS
        }
        self.build_ms: Dict[str, float] = {}
        self.sources = {}
        for name in SCENARIOS:
            t0 = time.perf_counter()
            self.sources[name] = open_loop(specs[name], PoissonProcess(rate_rps=self.rates[name]))
            self.build_ms[name] = 1e3 * (time.perf_counter() - t0)
        self.tokens = {
            name: sum(r.n for r in self.sources[name].requests) for name in SCENARIOS
        }
        self.reports: Dict[str, object] = {}
        self.first: Dict[str, dict] = {}

    def _config(self, name: str):
        """A fresh ``SimConfig`` (policies and fault injectors carry state)."""
        from repro.cluster import EDFPolicy, SimConfig
        from repro.experiments import faults, overload

        if name == "steady":
            return SimConfig(workers=WORKERS[name], policy=EDFPolicy(), service=self.sim_clock)
        if name == "overload":
            return overload.mode_config("admit+shed", WORKERS[name], self.sim_clock)
        horizon_s = self.requests / self.rates[name]
        return faults.mode_config(
            "retry+steal",
            WORKERS[name],
            self.sim_clock,
            crash_at_s=faults.CRASH_AT_FRAC * horizon_s,
            down_for_s=faults.DOWN_FOR_UNITS * self.unit_s,
            unit_s=self.unit_s,
        )

    # ------------------------------------------------------------------
    def run_round(self, rec: Recorder) -> None:
        from repro.cluster import simulate

        self.reports = {}
        for name in SCENARIOS:
            config = self._config(name)
            self.reports[name] = rec.op(
                name, self.tokens[name], simulate, self.sources[name], config,
                headline=name == "steady",
            )

    def check_round(self) -> Check:
        """Conservation on every report; reports equal to round 0's."""
        notes: List[str] = []
        failed = 0
        dicts = {}
        for name in SCENARIOS:
            rep = self.reports.get(name)
            if rep is None:
                failed += 1
                notes.append(f"{name}: no report")
                continue
            if rep.submitted != rep.completed + rep.rejected + rep.shed + rep.failed:
                failed += 1
                notes.append(f"{name}: submitted != completed+rejected+shed+failed")
            dicts[name] = rep.to_dict()
            if name in self.first and dicts[name] != self.first[name]:
                failed += 1
                notes.append(f"{name}: report differs from round 0's")
            self.first.setdefault(name, dicts[name])
        text = json.dumps(dicts, sort_keys=True)
        return Check(len(SCENARIOS), failed, hashlib.sha256(text.encode()).hexdigest(), notes)

    # ------------------------------------------------------------------
    def layer_probes(self, tracer: Tracer) -> Dict[str, float]:
        from repro import Runtime
        from repro.accelerator.timing import plan_timing
        from repro.advisor import SearchSpace, TrafficSpec, advise
        from repro.advisor.search import RunCache
        from repro.serving.trace import pattern_families, TraceSpec

        reports = [self.reports[name] for name in SCENARIOS]
        submitted = sum(r.submitted for r in reports)
        busy = [w.utilization for r in reports for w in r.workers]
        sim_ms = {
            name: tracer.reduce("op", kind=name, scale=1e3) for name in SCENARIOS
        }

        # what the cost-model clock asks the engine for on every dispatch
        rt = Runtime()
        fam = pattern_families(TraceSpec(n=256, window=32, heads=2, head_dim=8))[0]
        rt.estimate(fam, heads=2, head_dim=8)
        plan = rt.backend.salo.schedule(fam, heads=2, head_dim=8)

        traffic_path = Path(__file__).resolve().parents[2] / "examples" / "traffic_interactive_bulk.json"
        traffic = TrafficSpec.load(traffic_path)
        if self.smoke:
            traffic = TrafficSpec.from_dict({**traffic.to_dict(), "num_requests": 24})
        cache = RunCache()
        t0 = time.perf_counter()
        advise(
            traffic,
            SearchSpace(workers=(2, 4), policies=("greedy-fifo", "edf")),
            cache=cache,
            ablate_top=1,
        )
        advise_ms = 1e3 * (time.perf_counter() - t0)

        # the clock asks the engine for one estimate per dispatched batch;
        # what is left of simulate() is the control plane itself
        estimate_us = timed_loop_us(lambda: rt.estimate(fam, heads=2, head_dim=8), 200)
        batches = sum(w.batches for r in reports for w in r.workers)
        host_ms = sum(sim_ms.values())
        return {
            "accelerator.estimate_us": timed_loop_us(lambda: plan_timing(plan), 50),
            "api.estimate_us": estimate_us,
            "cluster.source_build_ms": sum(self.build_ms.values()),
            "cluster.simulate_steady_ms": sim_ms["steady"],
            "cluster.simulate_overload_ms": sim_ms["overload"],
            "cluster.simulate_faults_ms": sim_ms["faults"],
            "cluster.host_us_per_request": 1e3 * host_ms / submitted,
            "cluster.sim_goodput_rps": sum(r.goodput_rps for r in reports) / len(reports),
            "cluster.sim_deadline_met_share": sum(
                r.deadline_met_rate * r.completed for r in reports
            ) / submitted,
            "cluster.sim_completed": float(sum(r.completed for r in reports)),
            "cluster.sim_rejected": float(sum(r.rejected for r in reports)),
            "cluster.sim_shed": float(sum(r.shed for r in reports)),
            "cluster.sim_failed": float(sum(r.failed for r in reports)),
            "cluster.sim_retries": float(sum(r.retries for r in reports)),
            "cluster.sim_requeues": float(sum(r.requeues for r in reports)),
            "cluster.sim_cold_compiles": float(
                sum(w.cold_compiles for r in reports for w in r.workers)
            ),
            "cluster.sim_p99_ms": max(r.latency_p99_ms for r in reports),
            "cluster.sim_mean_batch_size": sum(r.mean_batch_size for r in reports) / len(reports),
            "cluster.sim_utilization": sum(busy) / len(busy),
            "advisor.advise_ms": advise_ms,
            "advisor.evaluations": float(cache.misses),
            "advisor.ms_per_evaluation": advise_ms / cache.misses if cache.misses else 0.0,
            "harness.decomposition_residual_share": (
                1.0 - batches * estimate_us / 1e3 / host_ms if host_ms else 0.0
            ),
        }
