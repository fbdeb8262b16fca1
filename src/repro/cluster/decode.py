"""Decode on the control plane: one continuous-batching policy, two executors.

A one-shot request arrives with its full Q/K/V and leaves after one
service; a *decode* sequence arrives with a prompt, produces its first
token when its first step completes (prefill), then holds a lane for
one engine step per generated token until its output budget is met.
Nothing here owns an event loop; decode is two readings of the plane's
own nouns:

* **a sequence is a request that holds a lane** — routed and admitted
  like any request, then resident in its worker's lane queue — waiting
  for a lane, or in one with its KV — until its last token;
* **a step is a round of launches** — :class:`ContinuousBatching` sheds
  what can no longer meet its SLO (TTFT-doomed waiters; lanes whose
  inter-token gap blew past their ITL budget — produced tokens stay
  completed, the remainder is shed), joins waiters into free lanes and
  splits the lanes into the groups one engine call can serve (bands,
  active global set, heads, hidden); each group launches once, at the
  widest :func:`repro.decode.step_window` bucket among its lanes.  A
  served launch is one token per lane.

That policy builds each worker's lane queue from the plane's config
(:meth:`ContinuousBatching.queue`: ``max_batch_size`` lanes, the
config's ``bucket_floor``) and decides every step of two fronts:

* :class:`DecodeClusterSimulator` — a :class:`ClusterSimulator` under
  :class:`DecodeSimConfig` (a :class:`SimConfig` with decode's
  defaults) serving sequences drawn by :class:`DecodeWorkloadSpec`
  (prompt lengths, geometric capped output budgets, ITL SLO classes;
  one seeded RNG stream) on the cost-model clock, which charges
  ``latency(full-bucket step plan) x lanes + batch overhead (+ cold
  compile)``; stragglers and transient faults hit a launch like any
  other, and a failed one retries *in place* against each sequence's
  retry budget (exhausted: ``failed`` with its unproduced tokens);
* :class:`repro.decode.DecodeScheduler` — real sequences on
  :class:`~repro.cluster.pool.MeasuredClock`: a launch runs
  :meth:`_StepBatch.execute`, the lanes' step windows on the engine at
  the step plan, whose first query it derives from the lanes' valid
  lengths.

Reported by the simulator: time-to-first-token (TTFT), inter-token
latency (ITL) p50/p99, tokens/s and time-weighted concurrency, per run
and per SLO class.  Conserved: the four-way sequence law (``submitted ==
completed + rejected + shed + failed``) plus a token law for admitted
sequences — every target token is exactly one of completed, shed, or
failed.  Admission reuses :mod:`repro.serving.admission` through a
lane-drain estimate: the wait is the time until enough lanes retire,
the service is the first step — so ``est-wait`` gates on TTFT
feasibility.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..decode.session import _step_first_query, decode_pattern, step_window
from ..patterns.base import Band
from ..patterns.hybrid import HybridSparsePattern
from ..scheduler import SchedulerError
from ..serving.admission import AdmissionContext
from ..serving.batching import Batch, check_bucket_floor
from .arrivals import OpenLoopSource, PoissonProcess, SLOClass
from .metrics import _percentile
from .policy import BatchDecision, BatchPolicy
from .pool import Worker
from .simulator import ClusterSimulator, SimConfig

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
        if self.itl_deadline_s is not None and not (self.itl_deadline_s > 0):
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
        if self.window < 0:  # window 0 is a self-only causal band
            raise ValueError(f"window must be >= 0, got {self.window}")
        for name in ("heads", "head_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
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
        arrivals = PoissonProcess(self.rate_rps).times(rng, self.sequences)
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
        self.bands = spec.bands()
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

    def group_key(self) -> Tuple:
        """What lanes share to step in one engine call: bands, active
        global set, heads, hidden."""
        n = self.length
        active = tuple(g for g in self.spec.global_tokens if g < n)
        return self.bands, active, self.heads, self.heads * self.head_dim


def _probe(spec: DecodeWorkloadSpec, n: int) -> _Seq:
    """A sequence at history length ``n`` that no queue holds: what an
    estimate prices."""
    return _Seq("probe", spec, spec.slo_classes[0], 0.0, n, 1)


def _split(items, predicate) -> Tuple[list, list]:
    """``(matching, rest)`` of ``items``, each in the order given."""
    hit, rest = [], []
    for item in items:
        (hit if predicate(item) else rest).append(item)
    return hit, rest


class _StepBatch(Batch):
    """One group's lanes in one decode step, launched like any batch.

    ``key`` is ``(bucket,) + group key``; ``starts`` are the lanes'
    :func:`step_window` starts at that bucket.
    """

    def __init__(self, lanes: list, key: Tuple, starts: List[int], bucket: int,
                 policy: "ContinuousBatching") -> None:
        super().__init__(lanes, key=(bucket,) + key, bucket=bucket)
        self.starts = starts
        self._policy = policy

    def execution_pattern(self) -> HybridSparsePattern:
        """The full-bucket step plan: the cost model does not leave out
        the step plan's unwanted query blocks."""
        _, bands, active, _, _ = self.key
        return self._policy.pattern(bands, active, self.bucket)

    def plan_key(self) -> Tuple:
        return self.key

    def execute(self, engine) -> Tuple[List[np.ndarray], list]:
        """Attend the step windows of the lanes' KV histories (a real
        lane is a :class:`~repro.decode.session.KVState`) on ``engine``;
        returns each lane's new-token row.  Each lane keeps
        row ``valid - 1``, so the plan starts its queries at the block
        holding the lowest of them (:func:`_step_first_query`)."""
        _, bands, active, heads, _ = self.key
        lanes, bucket = self.requests, self.bucket
        valid = [lane.length - start for lane, start in zip(lanes, self.starts)]
        first = _step_first_query(active, bucket, min(valid))
        windows = [lane.window(start, bucket) for lane, start in zip(lanes, self.starts)]
        q, k, v = (np.stack(rows) for rows in zip(*windows))
        result = engine.attend(self._policy.pattern(bands, active, bucket, first), q, k, v,
                               heads=heads, valid_lens=valid)
        return [result.output[i, n - 1] for i, n in enumerate(valid)], [result] * self.size


class _LaneQueue:
    """A decode worker's queue — waiters and lanes — speaking what the
    plane and the router use of ``BatchScheduler``.  ``pending`` counts
    waiters only: the lanes ride the launched step, so ``Worker.depth()``
    is waiters plus lanes."""

    def __init__(self, max_batch_size: int, bucket_floor: int) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        self.max_batch_size = max_batch_size
        self.bucket_floor = check_bucket_floor(bucket_floor)
        self.waiting: Deque[_Seq] = deque()
        self.lanes: List[_Seq] = []
        self.round: Deque[_StepBatch] = deque()  # this step's groups not yet launched
        self.tokens = 0  # tokens this worker's lanes have yielded

    @property
    def pending(self) -> int:
        return len(self.waiting)

    def group_key(self, seq: _Seq) -> None:
        return None  # lanes route by (depth, wid), not by structure

    def enqueue(self, seq: _Seq) -> None:
        self.waiting.append(seq)

    def prune(self, predicate: Callable[[_Seq], bool]) -> List[_Seq]:
        """Remove and return every waiter matching ``predicate``, in order."""
        removed, kept = _split(self.waiting, predicate)
        self.waiting = deque(kept)
        return removed


class ContinuousBatching(BatchPolicy):
    """The one decision of every decode step, simulated or real.

    A step is a *round* of consultations.  The round's first one sheds
    TTFT-doomed waiters and ITL-lagging lanes, joins waiters into the
    free lanes and splits the lanes into groups by
    :meth:`_Seq.group_key` (a lane that has not yet grown past a global
    token steps apart from one that has); each group closes into a step
    batch at the widest :func:`step_window` bucket among its lanes.  The
    round's later consultations launch the remaining groups, one each.
    A lane is shed for lagging once its inter-token gap exceeds
    ``itl_shed_factor`` x its ITL budget; ``None`` never sheds a lane.
    """

    name = "continuous"

    def __init__(self, itl_shed_factor: Optional[float] = 4.0) -> None:
        super().__init__()
        if itl_shed_factor is not None and not (itl_shed_factor >= 1.0):
            raise ValueError(f"itl_shed_factor must be >= 1 or None, got {itl_shed_factor}")
        self.itl_shed_factor = itl_shed_factor
        self._patterns: Dict[Tuple, HybridSparsePattern] = {}

    def queue(self, config) -> _LaneQueue:
        return _LaneQueue(config.max_batch_size, config.bucket_floor)

    def pattern(self, bands: Tuple[Band, ...], active: Tuple[int, ...], bucket: int,
                first_query: int = 0) -> HybridSparsePattern:
        """The step plan at ``bucket`` (cached: one object per plan)."""
        key = (bands, active, bucket, first_query)
        pat = self._patterns.get(key)
        if pat is None:
            pat = self._patterns[key] = decode_pattern(bands, active, bucket, bucket, first_query)
        return pat

    def _round(self, lanes: list, floor: int) -> Deque[_StepBatch]:
        groups: Dict[Tuple, list] = {}
        for lane in lanes:
            groups.setdefault(lane.group_key(), []).append(lane)
        batches: Deque[_StepBatch] = deque()
        for key in sorted(groups, key=repr):
            members = groups[key]
            windows = [step_window(key[0], key[1], lane.length, floor) for lane in members]
            starts = [start for start, _ in windows]
            batches.append(_StepBatch(members, key, starts, max(b for _, b in windows), self))
        return batches

    def next_batch(self, queue: _LaneQueue, now: float) -> BatchDecision:
        if queue.round:
            return BatchDecision(batch=queue.round.popleft())
        factor = self.itl_shed_factor
        shed = queue.prune(lambda s: s.deadline_s is not None and now - s.arrival_s > s.deadline_s)
        if factor is not None:
            lagging, queue.lanes = _split(
                queue.lanes,
                lambda s: s.slo.itl_deadline_s is not None
                and s.last_token_s is not None
                and now - s.last_token_s > factor * s.slo.itl_deadline_s,
            )
            shed += lagging
        while queue.waiting and len(queue.lanes) < queue.max_batch_size:
            seq = queue.waiting.popleft()
            seq.first_dispatch_s = now
            queue.lanes.append(seq)
        if not queue.lanes:
            return BatchDecision(shed=tuple(shed))
        queue.round = self._round(queue.lanes, queue.bucket_floor)
        return BatchDecision(batch=queue.round.popleft(), shed=tuple(shed))


@dataclass
class DecodeSimConfig(SimConfig):
    """A :class:`SimConfig` with decode's defaults: every step is decided
    by :class:`ContinuousBatching` (``max_batch_size`` is the lanes per
    worker), and nothing is stolen — a lane's KV lives on the worker it
    was routed to.  What decode does not model is refused by name."""

    policy: BatchPolicy = field(default_factory=ContinuousBatching)
    steal: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.policy, ContinuousBatching):
            raise ValueError(
                f"policy: decode steps under ContinuousBatching, got {type(self.policy).__name__}"
            )
        if self.steal:
            raise ValueError("steal: a lane's KV lives on its worker; a lane queue has nothing to steal")
        if self.pad_to_bucket:
            raise ValueError("pad_to_bucket: a decode step already runs at its step-window bucket")
        if self.faults is not None and self.faults.crashes:
            raise ValueError("CrashSpec: decode does not model what a dead worker's lanes and KV do")


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


class DecodeClusterSimulator(ClusterSimulator):
    """Decode traffic on the cluster simulator.

    Routing, launch, fault draws, retry budgets, cold-plan accounting,
    the event heap and the drain are the simulator's; the overrides say
    what differs for a request that stays: a served step is a token, a
    failed step retries where its KV is, the admission wait is a
    lane-drain estimate.
    """

    def __init__(self, config: Optional[DecodeSimConfig] = None) -> None:
        super().__init__(config if config is not None else DecodeSimConfig())

    def _admission_context(self, worker: Worker, request: _Seq, now: float) -> AdmissionContext:
        """A new sequence starts decoding once a lane is free.  Lanes free
        in remaining-token order, so the wait for the ``k``-th queued
        arrival is the ``k``-th smallest remaining budget times the
        current step time — a drain model, not depth x unit.  A step is
        priced as the policy runs it: each group's latency times its
        lanes, plus one batch overhead per group."""

        def estimate() -> Tuple[float, float]:
            spec, lanes = request.spec, worker.queue.lanes
            # an idle worker's first step: one lane at the longest prompt
            step_s = sum(
                worker.salo.estimate(
                    batch.execution_pattern(), heads=spec.heads, head_dim=spec.head_dim
                ).latency_s * batch.size + self.executor.batch_overhead_s
                for batch in self.config.policy._round(
                    lanes or [_probe(spec, spec.prompt_max)], worker.queue.bucket_floor)
            )
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
        """Schedule, on a throwaway engine from the pool's factory, the
        step at which each global token turns active (its smallest
        bucket) and the widest step."""
        engine = self.pool.salo_factory()
        top = spec.prompt_max + spec.max_new_tokens - 1  # longest history a step sees
        points = {min(max(g + 1, spec.prompt_min), top) for g in spec.global_tokens}
        for n in sorted(points | {top}):
            (step,) = self.config.policy._round([_probe(spec, n)], self.config.bucket_floor)
            try:
                engine.estimate(step.execution_pattern(), heads=spec.heads, head_dim=spec.head_dim)
            except SchedulerError as exc:
                raise ValueError(
                    f"decode workload with window={spec.window}, "
                    f"global_tokens={spec.global_tokens} has a step no worker can "
                    f"schedule (history length {n}): {exc}"
                ) from exc

    def run(self, spec: DecodeWorkloadSpec) -> DecodeReport:
        """Refuse an unschedulable workload, then serve every drawn sequence."""
        self._refuse_unschedulable(spec)
        seqs = spec.draw()
        self._play(OpenLoopSource(seqs))
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
