"""Prefill/decode phase separation in the cluster simulator.

One-shot requests arrive with their full Q/K/V and leave after one
service; a *decode* sequence arrives with a prompt, produces its first
token when its first step completes (prefill), then holds a lane for
one engine step per generated token until its output budget is met.
This module simulates a fleet of continuous-batching decode workers on
the deterministic cost-model clock:

* **arrivals** — :class:`DecodeWorkloadSpec` draws prompt lengths,
  output-length distributions (geometric, capped) and ITL SLO classes
  from one seeded RNG stream;
* **service** — each worker step costs
  ``latency(step pattern) x lanes + batch overhead (+ cold compile)``
  via :class:`~repro.cluster.pool.CostModelClock`, where the step
  pattern sits at the bucket :func:`repro.decode.step_window` gives the
  real scheduler (the small tail bucket for banded structures, the KV
  bucket once a global token is active), with per-worker warm-plan
  tracking so the first step on a plan is the only cold one (mirroring
  the real decode path's plan cache);
* **metrics** — time-to-first-token (TTFT), inter-token latency (ITL)
  p50/p99, tokens/s, and time-weighted concurrency, per run and per SLO
  class;
* **conservation** — the existing four-way sequence law (``submitted ==
  completed + rejected + shed + failed`` through
  :class:`~repro.cluster.metrics.MetricsCollector`) plus a token-level
  law for admitted sequences: every target token is exactly one of
  completed, shed, or failed.

Admission reuses the :mod:`repro.serving.admission` policies through a
decode-aware queue-drain estimator: the wait is the time until enough
lanes retire (k-th smallest remaining token count times the current
step time), the service is the first step — so ``est-wait`` gates on
TTFT feasibility.  Shedding uses the same machinery's semantics:
TTFT-doomed queued sequences are shed at step boundaries, and lanes
whose inter-token gap blows past their ITL budget are shed mid-flight
(their produced tokens stay completed; the unproduced remainder is
shed).  Transient faults fail whole steps; a sequence whose retry
budget is exhausted moves to ``failed`` with its unproduced tokens.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.salo import SALO
from ..decode.session import step_window
from ..patterns.base import Band
from ..patterns.hybrid import HybridSparsePattern
from ..serving.admission import AdmissionContext, AdmissionPolicy
from .arrivals import SLOClass
from .faults import FaultInjector
from .metrics import MetricsCollector, RequestRecord, _percentile
from .pool import CostModelClock

__all__ = [
    "DecodeSLOClass",
    "DEFAULT_DECODE_SLO_CLASSES",
    "DecodeWorkloadSpec",
    "DecodeSimConfig",
    "DecodeClusterSimulator",
    "DecodeClassReport",
    "DecodeReport",
]

_ARRIVE = 0
_STEP = 1


@dataclass(frozen=True)
class DecodeSLOClass(SLOClass):
    """An SLO class with decode semantics.

    ``deadline_s`` (inherited) is the **TTFT budget** — how long the
    client waits for the first token; ``itl_deadline_s`` is the
    per-token pacing budget between subsequent tokens.  Either may be
    ``None`` (best effort).
    """

    itl_deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.itl_deadline_s is not None and self.itl_deadline_s <= 0:
            raise ValueError("itl_deadline_s must be positive or None")


#: Scenario-scale defaults against ``CostModelClock.flat()`` service
#: times (tens of microseconds per step at small buckets).
DEFAULT_DECODE_SLO_CLASSES: Tuple[DecodeSLOClass, ...] = (
    DecodeSLOClass("interactive", deadline_s=5e-3, share=0.7, itl_deadline_s=2e-3),
    DecodeSLOClass("bulk", deadline_s=5e-2, share=0.3, itl_deadline_s=None),
)


@dataclass(frozen=True)
class DecodeWorkloadSpec:
    """Decode-aware arrival spec: prompts plus output-length draws.

    Sequences arrive Poisson at ``rate_rps``; each draws a prompt
    length uniform in ``[prompt_min, prompt_max]``, an output budget
    geometric with mean ``mean_new_tokens`` capped at
    ``max_new_tokens``, and an SLO class by share weight — all from one
    RNG stream seeded by ``seed``, so the trace is a pure function of
    the spec.
    """

    sequences: int = 64
    rate_rps: float = 2000.0
    prompt_min: int = 4
    prompt_max: int = 48
    mean_new_tokens: float = 16.0
    max_new_tokens: int = 64
    window: int = 8
    global_tokens: Tuple[int, ...] = ()
    heads: int = 2
    head_dim: int = 8
    slo_classes: Tuple[DecodeSLOClass, ...] = DEFAULT_DECODE_SLO_CLASSES
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sequences < 1:
            raise ValueError("sequences must be >= 1")
        if not (self.rate_rps > 0):
            raise ValueError("rate_rps must be positive")
        if not (1 <= self.prompt_min <= self.prompt_max):
            raise ValueError("need 1 <= prompt_min <= prompt_max")
        if not (1 <= self.mean_new_tokens <= self.max_new_tokens):
            raise ValueError("need 1 <= mean_new_tokens <= max_new_tokens")
        if any(g < 0 for g in self.global_tokens):
            raise ValueError("global tokens must be non-negative")
        if not self.slo_classes:
            raise ValueError("need at least one SLO class")

    def bands(self) -> Tuple[Band, ...]:
        return (Band(-self.window, 0),)

    def max_length(self) -> int:
        return self.prompt_max + self.max_new_tokens

    def draw(self) -> List["_Seq"]:
        """The full deterministic arrival trace."""
        rng = np.random.default_rng(self.seed)
        shares = np.asarray([c.share for c in self.slo_classes], dtype=float)
        shares = shares / shares.sum()
        gaps = rng.exponential(1.0 / self.rate_rps, size=self.sequences)
        arrivals = np.cumsum(gaps)
        seqs = []
        for i in range(self.sequences):
            prompt_n = int(rng.integers(self.prompt_min, self.prompt_max + 1))
            target = int(min(rng.geometric(1.0 / self.mean_new_tokens),
                             self.max_new_tokens))
            slo = self.slo_classes[int(rng.choice(len(self.slo_classes), p=shares))]
            seqs.append(
                _Seq(
                    request_id=f"seq-{i}",
                    slo=slo,
                    arrival_s=float(arrivals[i]),
                    prompt_n=prompt_n,
                    target_tokens=target,
                )
            )
        return seqs


class _Seq:
    """One decode sequence in flight (duck-types the admission view)."""

    def __init__(self, request_id, slo, arrival_s, prompt_n, target_tokens):
        self.request_id = request_id
        self.slo = slo
        self.arrival_s = arrival_s
        self.prompt_n = prompt_n
        self.target_tokens = target_tokens
        self.produced = 0
        self.retries = 0
        self.first_dispatch_s: Optional[float] = None
        self.ttft_s: Optional[float] = None
        self.last_token_s: Optional[float] = None
        self.itl_gaps: List[float] = []

    # ---- the fields admission policies and drop records read --------
    @property
    def slo_class(self) -> str:
        return self.slo.name

    @property
    def deadline_s(self) -> Optional[float]:
        return self.slo.deadline_s  # TTFT budget

    client_id = None

    # ------------------------------------------------------------------
    @property
    def length(self) -> int:
        """Current KV length: prompt plus every appended token."""
        return self.prompt_n + self.produced

    @property
    def remaining(self) -> int:
        return self.target_tokens - self.produced

    @property
    def done(self) -> bool:
        return self.produced >= self.target_tokens


class _DecodeWorker:
    """One continuous-batching worker: lanes + a FIFO admission queue."""

    def __init__(self, wid: int, salo: SALO, max_lanes: int, bucket_floor: int):
        self.wid = wid
        self.salo = salo
        self.max_lanes = max_lanes
        self.bucket_floor = bucket_floor
        self.lanes: List[_Seq] = []
        self.queue: Deque[_Seq] = deque()
        self.busy = False
        self.warm_plans: set = set()
        self.steps = 0
        self.tokens = 0
        self.busy_s = 0.0
        self.cold_compiles = 0
        self.lane_time_s = 0.0  # integral of lanes over busy time

    @property
    def depth(self) -> int:
        return len(self.lanes) + len(self.queue)


@dataclass
class DecodeSimConfig:
    """Knobs of one decode-cluster run."""

    workers: int = 2
    max_lanes: int = 8
    bucket_floor: int = 16
    admission: Optional[AdmissionPolicy] = None
    service: Optional[CostModelClock] = None  # default: calibrated clock
    shed_lagging: bool = True
    itl_shed_factor: float = 4.0  # gap > factor x itl budget -> shed
    max_retries: int = 3
    faults: Optional[FaultInjector] = None
    salo_factory: Callable[[], SALO] = SALO

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_lanes < 1:
            raise ValueError("max_lanes must be >= 1")
        if not (self.itl_shed_factor >= 1.0):
            raise ValueError("itl_shed_factor must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


@dataclass
class DecodeClassReport:
    """Per-SLO-class decode attainment."""

    name: str
    sequences: int
    tokens: int
    ttft_p50_s: float
    ttft_p99_s: float
    itl_p50_s: float
    itl_p99_s: float
    ttft_attainment: float  # fraction of first tokens within budget
    itl_attainment: float  # fraction of gaps within budget


@dataclass
class DecodeReport:
    """What a decode-cluster run answers: pacing, throughput, loss."""

    submitted: int
    completed: int
    rejected: int
    shed: int
    failed: int
    tokens_target_admitted: int
    tokens_completed: int
    tokens_shed: int
    tokens_failed: int
    tokens_per_s: float
    mean_concurrency: float
    steps: int
    retries: int
    makespan_s: float
    ttft_p50_s: float
    ttft_p99_s: float
    itl_p50_s: float
    itl_p99_s: float
    classes: List[DecodeClassReport]
    workers: List[dict]

    @property
    def sequence_conservation(self) -> bool:
        return self.submitted == (
            self.completed + self.rejected + self.shed + self.failed
        )

    @property
    def token_conservation(self) -> bool:
        return self.tokens_target_admitted == (
            self.tokens_completed + self.tokens_shed + self.tokens_failed
        )

    def render(self) -> str:
        lines = [
            "decode cluster report",
            "=====================",
            f"sequences            {self.submitted} submitted = "
            f"{self.completed} completed + {self.rejected} rejected + "
            f"{self.shed} shed + {self.failed} failed",
            f"tokens (admitted)    {self.tokens_target_admitted} target = "
            f"{self.tokens_completed} completed + {self.tokens_shed} shed + "
            f"{self.tokens_failed} failed",
            f"throughput           {self.tokens_per_s:.0f} tokens/s over "
            f"{self.makespan_s * 1e3:.2f} ms ({self.steps} steps, "
            f"mean concurrency {self.mean_concurrency:.2f})",
            f"TTFT                 p50 {self.ttft_p50_s * 1e6:.0f} us / "
            f"p99 {self.ttft_p99_s * 1e6:.0f} us",
            f"ITL                  p50 {self.itl_p50_s * 1e6:.0f} us / "
            f"p99 {self.itl_p99_s * 1e6:.0f} us",
        ]
        if self.retries:
            lines.append(f"retries              {self.retries}")
        for c in self.classes:
            lines.append(
                f"  class {c.name:<12} {c.sequences} seq / {c.tokens} tok, "
                f"TTFT p99 {c.ttft_p99_s * 1e6:.0f} us "
                f"(attain {c.ttft_attainment:.0%}), "
                f"ITL p99 {c.itl_p99_s * 1e6:.0f} us "
                f"(attain {c.itl_attainment:.0%})"
            )
        for w in self.workers:
            lines.append(
                f"  worker {w['wid']}: {w['steps']} steps, {w['tokens']} tok, "
                f"busy {w['busy_s'] * 1e3:.2f} ms, "
                f"{w['cold_compiles']} cold compiles, "
                f"plan cache {w['plan_cache']['hits']}h/"
                f"{w['plan_cache']['misses']}m"
            )
        return "\n".join(lines)


class DecodeClusterSimulator:
    """Heap-driven decode simulation on the cost-model clock.

    Workers run continuous batches: one STEP event per worker while it
    has lanes; at each step completion every lane yields one token,
    finished lanes retire, queued sequences join, and the next step is
    scheduled — so joins and retirements happen between steps exactly
    as in :class:`repro.decode.DecodeScheduler`.
    """

    def __init__(self, config: Optional[DecodeSimConfig] = None) -> None:
        self.config = config or DecodeSimConfig()
        self.clock = (
            self.config.service if self.config.service is not None else CostModelClock()
        )
        self.metrics = MetricsCollector()
        self._patterns: Dict[Tuple, HybridSparsePattern] = {}
        self.retries = 0
        self.total_steps = 0
        self.lane_time_s = 0.0
        self.tokens_completed = 0
        self.tokens_shed = 0
        self.tokens_failed = 0
        self.tokens_target_admitted = 0

    # ------------------------------------------------------------------
    def _step_pattern(self, spec, lengths: Sequence[int]) -> HybridSparsePattern:
        """The plan one step over lanes of these lengths executes.

        Same rule as :meth:`repro.decode.DecodeScheduler.step`: globals
        every lane has grown past are active, and the bucket is the
        widest :func:`step_window` over the lanes.
        """
        shortest = min(lengths)
        active = tuple(g for g in spec.global_tokens if g < shortest)
        bands = spec.bands()
        floor = self.config.bucket_floor
        bucket = max(step_window(bands, active, n, floor)[1] for n in lengths)
        key = (bucket, active)
        pat = self._patterns.get(key)
        if pat is None:
            pat = HybridSparsePattern(bucket, list(bands), active)
            self._patterns[key] = pat
        return pat

    def _step_cost(self, worker: _DecodeWorker, spec) -> Tuple[float, bool]:
        pattern = self._step_pattern(spec, [s.length for s in worker.lanes])
        stats = worker.salo.estimate(
            pattern, heads=spec.heads, head_dim=spec.head_dim
        )
        key = (pattern.n, pattern.global_tokens())
        cold = key not in worker.warm_plans
        service = stats.latency_s * len(worker.lanes) + self.clock.batch_overhead_s
        if cold:
            worker.warm_plans.add(key)
            worker.cold_compiles += 1
            # same package: the clock's per-plan cold penalty is the
            # decode path's compile cost too
            service += self.clock._cold_penalty_s(stats)
        return service, cold

    def _drain_wait_estimate(
        self, worker: _DecodeWorker, spec
    ) -> Tuple[float, float]:
        """(wait_s, first_step_s): decode-aware queue-drain estimate.

        A new sequence starts decoding once a lane is free.  Lanes free
        in remaining-token order, so the wait for the ``k``-th queued
        arrival is the ``k``-th smallest remaining budget times the
        current step time — a drain model, not depth x unit.
        """
        lanes = worker.lanes
        # an idle worker's first step: one lane, anywhere in the prompt range
        lengths = [s.length for s in lanes] or [spec.prompt_min, spec.prompt_max]
        stats = worker.salo.estimate(
            self._step_pattern(spec, lengths),
            heads=spec.heads,
            head_dim=spec.head_dim,
        )
        step_s = stats.latency_s * max(len(lanes), 1) + self.clock.batch_overhead_s
        lanes_needed = worker.depth + 1 - worker.max_lanes
        if lanes_needed <= 0:
            return 0.0, step_s
        remaining = sorted(s.remaining for s in lanes)
        if lanes_needed <= len(remaining):
            wait = step_s * remaining[lanes_needed - 1]
        else:
            # queue deeper than the lane set: every lane must turn over
            waves = lanes_needed - len(remaining)
            wait = step_s * (remaining[-1] if remaining else 1) * (1 + waves)
        return wait, step_s

    # ------------------------------------------------------------------
    def run(self, spec: DecodeWorkloadSpec) -> DecodeReport:
        cfg = self.config
        workers = [
            _DecodeWorker(w, cfg.salo_factory(), cfg.max_lanes, cfg.bucket_floor)
            for w in range(cfg.workers)
        ]
        heap: List[Tuple[float, int, int, int]] = []
        order = 0
        seqs = spec.draw()
        for s in seqs:
            heapq.heappush(heap, (s.arrival_s, order, _ARRIVE, order))
            order += 1
        arrive_payload = {i: s for i, s in enumerate(seqs)}
        step_payload: Dict[int, Tuple[_DecodeWorker, float, bool]] = {}

        def begin_step(worker: _DecodeWorker, now: float) -> None:
            nonlocal order
            self._shed_boundary(worker, now)
            while worker.queue and len(worker.lanes) < worker.max_lanes:
                seq = worker.queue.popleft()
                worker.lanes.append(seq)
                if seq.first_dispatch_s is None:
                    seq.first_dispatch_s = now
            if not worker.lanes:
                worker.busy = False
                return
            worker.busy = True
            service, _cold = self._step_cost(worker, spec)
            fails = bool(
                cfg.faults is not None and cfg.faults.dispatch_fails(worker.wid, now)
            )
            worker.lane_time_s += service * len(worker.lanes)
            step_payload[order] = (worker, service, fails)
            heapq.heappush(heap, (now + service, order, _STEP, order))
            order += 1

        while heap:
            now, _, kind, payload = heapq.heappop(heap)
            if kind == _ARRIVE:
                seq = arrive_payload.pop(payload)
                self.metrics.note_arrival(now)
                worker = min(workers, key=lambda w: (w.depth, w.wid))
                ctx = AdmissionContext(
                    now=now,
                    depth=worker.depth,
                    estimator=lambda w=worker: self._drain_wait_estimate(w, spec),
                )
                policy = cfg.admission
                if policy is not None and not policy.admit(seq, ctx):
                    self.metrics.note_rejection(seq, now)
                    continue
                self.tokens_target_admitted += seq.target_tokens
                worker.queue.append(seq)
                if not worker.busy:
                    begin_step(worker, now)
            else:
                worker, service, fails = step_payload.pop(payload)
                worker.busy_s += service
                worker.steps += 1
                self.total_steps += 1
                if fails:
                    self.retries += 1
                    survivors = []
                    for seq in worker.lanes:
                        seq.retries += 1
                        if seq.retries > cfg.max_retries:
                            self.tokens_completed += seq.produced
                            self.tokens_failed += seq.remaining
                            self.metrics.note_failed(seq, now)
                        else:
                            survivors.append(seq)
                    worker.lanes = survivors
                else:
                    finished = []
                    for seq in worker.lanes:
                        seq.produced += 1
                        worker.tokens += 1
                        if seq.produced == 1:
                            seq.ttft_s = now - seq.arrival_s
                        else:
                            seq.itl_gaps.append(now - seq.last_token_s)
                        seq.last_token_s = now
                        if seq.done:
                            finished.append(seq)
                    for seq in finished:
                        worker.lanes.remove(seq)
                        self.tokens_completed += seq.produced
                        self.metrics.note_completion(
                            RequestRecord(
                                request_id=seq.request_id,
                                slo_class=seq.slo_class,
                                arrival_s=seq.arrival_s,
                                dispatch_s=seq.first_dispatch_s,
                                complete_s=now,
                                worker=worker.wid,
                                batch_size=len(worker.lanes) + len(finished),
                                deadline_s=None,
                            )
                        )
                self.metrics.sample(
                    now,
                    queued=sum(len(w.queue) for w in workers),
                    busy_workers=sum(1 for w in workers if w.busy),
                )
                begin_step(worker, now)

        leftover = [s for w in workers for s in list(w.lanes) + list(w.queue)]
        if leftover or arrive_payload:
            raise RuntimeError(
                f"drained simulation left {len(leftover)} sequences in flight"
            )
        return self._report(spec, seqs, workers)

    def _shed_boundary(self, worker: _DecodeWorker, now: float) -> None:
        """TTFT-doomed queued sequences and ITL-lagging lanes shed here."""
        cfg = self.config
        kept: Deque[_Seq] = deque()
        while worker.queue:
            seq = worker.queue.popleft()
            budget = seq.slo.deadline_s
            if budget is not None and now - seq.arrival_s > budget:
                self.tokens_shed += seq.target_tokens
                self.metrics.note_shed(seq, now)
            else:
                kept.append(seq)
        worker.queue = kept
        if not cfg.shed_lagging:
            return
        survivors = []
        for seq in worker.lanes:
            budget = seq.slo.itl_deadline_s
            lagging = (
                budget is not None
                and seq.last_token_s is not None
                and now - seq.last_token_s > cfg.itl_shed_factor * budget
            )
            if lagging and not seq.done:
                self.tokens_completed += seq.produced
                self.tokens_shed += seq.remaining
                self.metrics.note_shed(seq, now)
            else:
                survivors.append(seq)
        worker.lanes = survivors

    # ------------------------------------------------------------------
    def _report(self, spec, seqs, workers) -> DecodeReport:
        m = self.metrics
        completed_ids = {r.request_id for r in m.records}
        dropped = {d.request_id: d.kind for d in m.drops}
        ttfts = []
        gaps = []
        per_class: Dict[str, dict] = {}
        for seq in seqs:
            cls = per_class.setdefault(
                seq.slo_class,
                {"slo": seq.slo, "seqs": 0, "tokens": 0, "ttfts": [], "gaps": []},
            )
            if seq.request_id in completed_ids or dropped.get(seq.request_id) in (
                "shed",
                "failed",
            ):
                # produced tokens count toward pacing stats even when
                # the tail was shed or failed
                if seq.ttft_s is not None:
                    ttfts.append(seq.ttft_s)
                    cls["ttfts"].append(seq.ttft_s)
                gaps.extend(seq.itl_gaps)
                cls["gaps"].extend(seq.itl_gaps)
                cls["tokens"] += seq.produced
            if seq.request_id in completed_ids:
                cls["seqs"] += 1
        start = m.first_arrival_s or 0.0
        makespan = max(m.last_complete_s - start, 0.0)
        classes = []
        for name in sorted(per_class):
            c = per_class[name]
            slo = c["slo"]
            ttft_ok = (
                sum(1 for t in c["ttfts"] if t <= slo.deadline_s) / len(c["ttfts"])
                if slo.deadline_s is not None and c["ttfts"]
                else 1.0
            )
            itl_ok = (
                sum(1 for g in c["gaps"] if g <= slo.itl_deadline_s) / len(c["gaps"])
                if slo.itl_deadline_s is not None and c["gaps"]
                else 1.0
            )
            classes.append(
                DecodeClassReport(
                    name=name,
                    sequences=c["seqs"],
                    tokens=c["tokens"],
                    ttft_p50_s=_percentile(c["ttfts"], 50),
                    ttft_p99_s=_percentile(c["ttfts"], 99),
                    itl_p50_s=_percentile(c["gaps"], 50),
                    itl_p99_s=_percentile(c["gaps"], 99),
                    ttft_attainment=ttft_ok,
                    itl_attainment=itl_ok,
                )
            )
        return DecodeReport(
            submitted=m.submitted,
            completed=len(m.records),
            rejected=m.rejected,
            shed=m.shed,
            failed=m.failed,
            tokens_target_admitted=self.tokens_target_admitted,
            tokens_completed=self.tokens_completed,
            tokens_shed=self.tokens_shed,
            tokens_failed=self.tokens_failed,
            tokens_per_s=self.tokens_completed / makespan if makespan else 0.0,
            mean_concurrency=(
                sum(w.lane_time_s for w in workers) / makespan if makespan else 0.0
            ),
            steps=self.total_steps,
            retries=self.retries,
            makespan_s=makespan,
            ttft_p50_s=_percentile(ttfts, 50),
            ttft_p99_s=_percentile(ttfts, 99),
            itl_p50_s=_percentile(gaps, 50),
            itl_p99_s=_percentile(gaps, 99),
            classes=classes,
            workers=[
                {
                    "wid": w.wid,
                    "steps": w.steps,
                    "tokens": w.tokens,
                    "busy_s": w.busy_s,
                    "cold_compiles": w.cold_compiles,
                    "plan_cache": w.salo.cache_info(),
                }
                for w in workers
            ],
        )
