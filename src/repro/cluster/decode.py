"""Prefill/decode phase separation: decode as a workload shape on the plane.

A one-shot request arrives with its full Q/K/V and leaves after one
service; a *decode* sequence arrives with a prompt, produces its first
token when its first step completes (prefill), then holds a lane for
one engine step per generated token until its output budget is met.
Nothing here owns an event loop: :class:`DecodeClusterSimulator` is a
:class:`~repro.cluster.simulator.ControlPlane` front on the simulated
executor, and decode is two readings of the plane's own nouns:

* **a sequence is a request that holds a lane** — drawn by
  :class:`DecodeWorkloadSpec` (prompt lengths, geometric capped output
  budgets, ITL SLO classes; one seeded RNG stream), routed and admitted
  like any request, then resident in its worker's lane queue — waiting
  for a lane, or in one with its KV — until its last token;
* **a step is a launch** — at each consultation
  :class:`ContinuousBatching` sheds what can no longer meet its SLO
  (TTFT-doomed waiters; lanes whose inter-token gap blew past their ITL
  budget — produced tokens stay completed, the remainder is shed), joins
  waiters into free lanes and closes the lanes into one step batch at
  the bucket :func:`repro.decode.step_window` gives the real scheduler.
  The clock charges ``latency(step pattern) x lanes + batch overhead
  (+ cold compile)``; stragglers and transient faults hit it like any
  launch; a served step is one token per lane, a failed one retries *in
  place* against each sequence's retry budget (exhausted: ``failed``
  with its unproduced tokens).

Reported: time-to-first-token (TTFT), inter-token latency (ITL) p50/p99,
tokens/s and time-weighted concurrency, per run and per SLO class.
Conserved: the four-way sequence law (``submitted == completed +
rejected + shed + failed``) plus a token law for admitted sequences —
every target token is exactly one of completed, shed, or failed.
Admission reuses :mod:`repro.serving.admission` through a lane-drain
estimate: the wait is the time until enough lanes retire, the service is
the first step — so ``est-wait`` gates on TTFT feasibility.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.salo import SALO
from ..decode.session import decode_pattern, step_window
from ..patterns.base import Band
from ..patterns.hybrid import HybridSparsePattern
from ..scheduler import SchedulerError
from ..serving.admission import AdmissionContext, AdmissionPolicy, AdmitAll
from ..serving.batching import Batch, check_bucket_floor
from .arrivals import SLOClass
from .faults import FaultInjector, RecoveryConfig
from .metrics import _percentile
from .policy import BatchDecision, BatchPolicy
from .pool import CostModelClock, Worker
from .simulator import _ARRIVE, ControlConfig, ControlPlane, SimulatedExecutor

__all__ = [
    "DecodeSLOClass",
    "DEFAULT_DECODE_SLO_CLASSES",
    "DecodeWorkloadSpec",
    "DecodeSimConfig",
    "ContinuousBatching",
    "DecodeClusterSimulator",
    "DecodeClassReport",
    "DecodeReport",
]


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
            seqs.append(_Seq(f"seq-{i}", self, slo, float(arrivals[i]), prompt_n, target))
        return seqs


class _Seq:
    """One decode sequence: the plane's request, holding a lane while it decodes."""

    client_id = None

    def __init__(self, request_id, spec, slo, arrival_s, prompt_n, target_tokens):
        self.request_id = request_id
        self.spec = spec
        self.heads = spec.heads
        self.head_dim = spec.head_dim
        self.slo = slo
        self.slo_class = slo.name
        self.deadline_s = slo.deadline_s  # TTFT budget
        self.arrival_s = arrival_s
        self.prompt_n = prompt_n
        self.target_tokens = target_tokens
        self.produced = 0
        self.first_dispatch_s: Optional[float] = None
        self.ttft_s: Optional[float] = None
        self.last_token_s: Optional[float] = None
        self.itl_gaps: List[float] = []

    @property
    def length(self) -> int:
        """Current KV length: prompt plus every appended token."""
        return self.prompt_n + self.produced

    @property
    def remaining(self) -> int:
        return self.target_tokens - self.produced


def _split(items, predicate) -> Tuple[list, list]:
    """``(matching, rest)`` of ``items``, each in the order given."""
    hit, rest = [], []
    for item in items:
        (hit if predicate(item) else rest).append(item)
    return hit, rest


class _StepBatch(Batch):
    """The lanes of one decode step, launched like any batch."""

    def __init__(self, lanes: List[_Seq], pattern: HybridSparsePattern) -> None:
        # one band structure per run: (bucket, active globals) names the plan
        super().__init__(lanes, key=(pattern.n, pattern.global_tokens()), bucket=pattern.n)
        self._pattern = pattern

    def execution_pattern(self) -> HybridSparsePattern:
        return self._pattern

    def plan_key(self) -> Tuple:
        return self.key


class _LaneQueue:
    """A decode worker's queue — waiters and lanes — speaking what the
    plane and the router use of ``BatchScheduler``.  ``pending`` counts
    waiters only: the lanes ride the launched step, so ``Worker.depth()``
    is waiters plus lanes."""

    def __init__(self, max_lanes: int) -> None:
        self.max_batch_size = max_lanes
        self.waiting: Deque[_Seq] = deque()
        self.lanes: List[_Seq] = []
        self.tokens = 0  # tokens this worker's lanes have yielded

    @property
    def pending(self) -> int:
        return len(self.waiting)

    def group_key(self, seq: _Seq) -> None:
        return None  # one structure per run: affinity has nothing to tell apart

    def enqueue(self, seq: _Seq) -> None:
        self.waiting.append(seq)

    def prune(self, predicate: Callable[[_Seq], bool]) -> List[_Seq]:
        """Remove and return every waiter matching ``predicate``, in order."""
        removed, kept = _split(self.waiting, predicate)
        self.waiting = deque(kept)
        return removed


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
        check_bucket_floor(self.bucket_floor)
        if not (self.itl_shed_factor >= 1.0):
            raise ValueError("itl_shed_factor must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.faults is not None and self.faults.crashes:
            raise ValueError("CrashSpec: decode does not model what a dead worker's lanes and KV do")


class ContinuousBatching(BatchPolicy):
    """One consultation is one step boundary, as in
    :class:`repro.decode.DecodeScheduler`: TTFT-doomed waiters and
    ITL-lagging lanes are shed, waiters join the free lanes, and the
    lanes close into the next step."""

    name = "continuous"

    def __init__(self, config: DecodeSimConfig) -> None:
        super().__init__()
        self.config = config
        self._patterns: Dict[Tuple, HybridSparsePattern] = {}

    def step_pattern(self, spec, lengths: Sequence[int]) -> HybridSparsePattern:
        """The plan one step over lanes of these lengths is costed at, by
        the rule of :meth:`repro.decode.DecodeScheduler.step`: globals
        every lane has grown past are active, and the bucket is the
        widest :func:`step_window` over the lanes.  Costed at the full
        bucket: the cost model does not leave out the step plan's
        unwanted query blocks."""
        shortest = min(lengths)
        active = tuple(g for g in spec.global_tokens if g < shortest)
        bands = spec.bands()
        floor = self.config.bucket_floor
        bucket = max(step_window(bands, active, n, floor)[1] for n in lengths)
        key = (bucket, active)
        pat = self._patterns.get(key)
        if pat is None:
            pat = decode_pattern(bands, active, bucket, bucket)
            self._patterns[key] = pat
        return pat

    def next_batch(self, queue: _LaneQueue, now: float) -> BatchDecision:
        cfg = self.config
        shed = queue.prune(lambda s: s.deadline_s is not None and now - s.arrival_s > s.deadline_s)
        if cfg.shed_lagging:
            lagging, queue.lanes = _split(
                queue.lanes,
                lambda s: s.slo.itl_deadline_s is not None
                and s.last_token_s is not None
                and now - s.last_token_s > cfg.itl_shed_factor * s.slo.itl_deadline_s,
            )
            shed += lagging
        while queue.waiting and len(queue.lanes) < queue.max_batch_size:
            seq = queue.waiting.popleft()
            seq.first_dispatch_s = now
            queue.lanes.append(seq)
        if not queue.lanes:
            return BatchDecision(shed=tuple(shed))
        pattern = self.step_pattern(queue.lanes[0].spec, [s.length for s in queue.lanes])
        return BatchDecision(batch=_StepBatch(queue.lanes, pattern), shed=tuple(shed))


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


def _pacing(seqs: Sequence[_Seq]) -> Tuple[List[float], List[float]]:
    """First-token waits and inter-token gaps of ``seqs``."""
    ttfts = [s.ttft_s for s in seqs if s.ttft_s is not None]
    return ttfts, [g for s in seqs for g in s.itl_gaps]


def _percentiles(ttfts: List[float], gaps: List[float]) -> dict:
    """p50/p99 of both, under the report field names."""
    return {
        "ttft_p50_s": _percentile(ttfts, 50),
        "ttft_p99_s": _percentile(ttfts, 99),
        "itl_p50_s": _percentile(gaps, 50),
        "itl_p99_s": _percentile(gaps, 99),
    }


def _within(values: List[float], budget: Optional[float]) -> float:
    """Fraction of ``values`` within ``budget`` (1.0: best effort, or none)."""
    if budget is None or not values:
        return 1.0
    return sum(1 for v in values if v <= budget) / len(values)


class DecodeClusterSimulator(ControlPlane):
    """Decode traffic on the control plane's virtual-time executor.

    Routing, launch, fault draws, retry budgets, cold-plan accounting
    and the event heap are the plane's; the overrides say what differs
    for a request that stays: a served step is a token, a failed step
    retries where its KV is, the admission wait is a lane-drain estimate.
    """

    def __init__(self, config: Optional[DecodeSimConfig] = None) -> None:
        self.sim_config = cfg = config if config is not None else DecodeSimConfig()
        super().__init__(
            ControlConfig(
                workers=cfg.workers,
                max_batch_size=cfg.max_lanes,
                bucket_floor=cfg.bucket_floor,
                steal=False,  # a lane's KV lives on the worker it was routed to
                affinity_miss_prob=1.0,  # one structure per run: route by (depth, wid)
                policy=ContinuousBatching(cfg),  # drop_expired stays off: TTFT sheds at steps
                admission=cfg.admission if cfg.admission is not None else AdmitAll(),
                recovery=RecoveryConfig(max_retries=cfg.max_retries),
            ),
            salo_factory=cfg.salo_factory,
            queue_factory=lambda: _LaneQueue(cfg.max_lanes),
        )
        clock = cfg.service if cfg.service is not None else CostModelClock()
        self.executor = SimulatedExecutor(clock, cfg.faults, cfg.workers)

    def _admission_context(self, worker: Worker, request: _Seq, now: float) -> AdmissionContext:
        """A new sequence starts decoding once a lane is free.  Lanes free
        in remaining-token order, so the wait for the ``k``-th queued
        arrival is the ``k``-th smallest remaining budget times the
        current step time — a drain model, not depth x unit."""

        def estimate() -> Tuple[float, float]:
            spec, lanes = request.spec, worker.queue.lanes
            # an idle worker's first step: one lane, anywhere in the prompt range
            lengths = [s.length for s in lanes] or [spec.prompt_min, spec.prompt_max]
            stats = worker.salo.estimate(
                self.config.policy.step_pattern(spec, lengths),
                heads=spec.heads,
                head_dim=spec.head_dim,
            )
            step_s = stats.latency_s * max(len(lanes), 1) + self.executor.batch_overhead_s
            lanes_needed = worker.depth() + 1 - worker.queue.max_batch_size
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

        return AdmissionContext(now=now, depth=worker.depth(), estimator=estimate)

    def _retry_or_fail(self, batch: Batch, now: float) -> None:
        """A failed step retries in place — the lanes and their KV stay —
        charging every lane one attempt; the attempt past a sequence's
        budget fails it with its unproduced tokens."""
        self._retries += 1
        for seq in batch.requests:
            attempt = self._attempts.get(seq.request_id, 0) + 1
            self._attempts[seq.request_id] = attempt
            if attempt > self._recovery.max_retries:
                self.pool.workers[self._routed[seq.request_id]].queue.lanes.remove(seq)
                self._fail(seq, now)

    def _complete(self, seq: _Seq, batch: Batch, worker: Worker, dispatched: float, now: float) -> None:
        """A served step is one token for the lane; the token that meets
        the sequence's budget frees the lane and completes it."""
        seq.produced += 1
        worker.queue.tokens += 1
        if seq.produced == 1:
            seq.ttft_s = now - seq.arrival_s
        else:
            seq.itl_gaps.append(now - seq.last_token_s)
        seq.last_token_s = now
        if seq.produced == seq.target_tokens:
            worker.queue.lanes.remove(seq)
            super()._complete(seq, batch, worker, seq.first_dispatch_s, now)

    def _refuse_unschedulable(self, spec: DecodeWorkloadSpec) -> None:
        """Schedule, on a throwaway engine, the step at which each global
        token turns active (its smallest bucket) and the widest step."""
        probe = self.sim_config.salo_factory()
        top = spec.prompt_max + spec.max_new_tokens - 1  # longest history a step sees
        points = {min(max(g + 1, spec.prompt_min), top) for g in spec.global_tokens}
        for n in sorted(points | {top}):
            pattern = self.config.policy.step_pattern(spec, [n])
            try:
                probe.estimate(pattern, heads=spec.heads, head_dim=spec.head_dim)
            except SchedulerError as exc:
                raise ValueError(
                    f"decode workload with window={spec.window}, "
                    f"global_tokens={spec.global_tokens} has a step no worker can "
                    f"schedule (history length {n}): {exc}"
                ) from exc

    def run(self, spec: DecodeWorkloadSpec) -> DecodeReport:
        self._refuse_unschedulable(spec)
        seqs = spec.draw()
        for seq in seqs:
            self.executor.schedule(seq.arrival_s, _ARRIVE, seq)
        self._drive(0.0)
        if self.metrics.outstanding:
            raise RuntimeError(
                f"drained simulation left {self.metrics.outstanding} sequences in flight"
            )
        return self._report(seqs)

    def _report(self, seqs: List[_Seq]) -> DecodeReport:
        m, workers = self.metrics, self.pool.workers
        fate = {r.request_id: "completed" for r in m.records}
        fate.update((d.request_id, d.kind) for d in m.drops)
        # produced tokens count toward pacing and throughput even when
        # the tail was shed or failed
        admitted = [s for s in seqs if fate[s.request_id] != "rejected"]
        tokens_completed = sum(s.produced for s in admitted)
        makespan = max(m.last_complete_s - (m.first_arrival_s or 0.0), 0.0)
        slos = {s.slo_class: s.slo for s in reversed(seqs)}  # first drawn wins
        classes = []
        for name, slo in sorted(slos.items()):
            members = [s for s in admitted if s.slo_class == name]
            ttfts, gaps = _pacing(members)
            classes.append(
                DecodeClassReport(
                    name=name,
                    sequences=sum(fate[s.request_id] == "completed" for s in members),
                    tokens=sum(s.produced for s in members),
                    ttft_attainment=_within(ttfts, slo.deadline_s),
                    itl_attainment=_within(gaps, slo.itl_deadline_s),
                    **_percentiles(ttfts, gaps),
                )
            )
        return DecodeReport(
            submitted=m.submitted,
            completed=len(m.records),
            rejected=m.rejected,
            shed=m.shed,
            failed=m.failed,
            tokens_target_admitted=sum(s.target_tokens for s in admitted),
            tokens_completed=tokens_completed,
            tokens_shed=sum(s.remaining for s in admitted if fate[s.request_id] == "shed"),
            tokens_failed=sum(s.remaining for s in admitted if fate[s.request_id] == "failed"),
            tokens_per_s=tokens_completed / makespan if makespan else 0.0,
            mean_concurrency=sum(w.request_s for w in workers) / makespan if makespan else 0.0,
            steps=sum(w.batches for w in workers),
            retries=self._retries,
            makespan_s=makespan,
            classes=classes,
            workers=[
                {
                    "wid": w.wid,
                    "steps": w.batches,
                    "tokens": w.queue.tokens,
                    "busy_s": w.busy_s,
                    "cold_compiles": w.cold_compiles,
                    "plan_cache": self.executor.cache_info(w),
                }
                for w in workers
            ],
            **_percentiles(*_pacing(admitted)),
        )
