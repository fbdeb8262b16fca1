"""Engine pool: N SALO workers, plan-affinity routing, work stealing.

Each :class:`Worker` owns a full :class:`~repro.core.salo.SALO` instance
(its *warm* plan cache is the point: compiled plans are per-engine
state) plus a plan-keyed request queue.  The :class:`EnginePool` routes
arrivals by scoring workers on *cache-hit probability over queue
pressure* — a worker that has served a structure before will skip
scheduling, compilation and the cost models on a repeat, so sending the
repeat there is usually worth a slightly deeper queue.  When a worker
runs dry it steals queued work from the most loaded peer, trading a cold
compile for idleness.

Service-time clocks
-------------------
The simulator charges a batch's service time through a
:class:`ServiceModel`:

* :class:`CostModelClock` — **deterministic**: the paper's cycle model
  via ``SALO.estimate`` is the service-time oracle (the accelerator runs
  the plan once per sequence, so a batch of ``b`` costs ``b`` times the
  per-sequence latency), plus a host-side dispatch overhead per batch
  and a cold-compile penalty the first time a worker serves a structure.
  Both host-side terms default to **named constants measured once on the
  reference host** (``DISPATCH_OVERHEAD_S``, ``COMPILE_S_PER_PASS``): the
  dispatch overhead is a sequential-vs-batched attend gap, and the
  compile penalty is a per-pass rate times the served plan's own pass
  count, so a 4096-token longformer pays ~200x the cold cost of a toy
  plan instead of one flat constant.  Nothing is read from disk and no
  wall clock is read anywhere on this path, so an installed package
  simulates the same numbers as a checkout.
* :class:`MeasuredClock` — executes the batch on the worker's engine and
  uses the measured wall time; grounding runs that trade determinism for
  end-to-end realism, and the in-process
  :class:`~repro.serving.session.ServingSession` front.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from ..core.salo import SALO
from ..serving.batching import Batch, BatchScheduler
from ..serving.request import AttentionRequest
from ..serving.trace import pattern_families
from .faults import WORKER_DOWN, WORKER_UP

__all__ = [
    "CircuitBreaker",
    "Worker",
    "ServiceModel",
    "CostModelClock",
    "MeasuredClock",
    "EnginePool",
    "service_scales",
    "INTERACTIVE_BUDGET",
    "BULK_BUDGET",
]

# Default SLO deadline budgets as multiples of the dispatch unit (one
# request's cost-model latency plus a full per-batch overhead): shared
# by the CLI `simulate` defaults and the serving_capacity sweep so their
# deadline semantics cannot drift apart.
INTERACTIVE_BUDGET = 30.0
BULK_BUDGET = 400.0

# ----------------------------------------------------------------------
# Host-side constants of CostModelClock
# ----------------------------------------------------------------------

#: Default dispatch overhead per batch: the gap between eight sequential
#: single-sequence attends and one batched attend of eight — seven extra
#: engine dispatches — divided by seven, as measured on the reference
#: host.  It is what one batch amortises, so it is charged once per batch.
DISPATCH_OVERHEAD_S = 0.0010405297428535828

#: Default cold-compile rate per structural pass: everything a plan-cache
#: miss runs before the engine (schedule, compile, window jobs, job
#: chains; linear in passes) on longformer(4096, 512) x 12 heads,
#: 0.0519018 s, over that plan's 1992 passes.
COMPILE_S_PER_PASS = 2.6055120481393034e-05

#: The flat clock's constants (see :meth:`CostModelClock.flat`); the flat
#: compile penalty also serves estimates that carry no pass count.
_FLAT_BATCH_OVERHEAD_S = 2e-5
_FLAT_COLD_COMPILE_S = 5e-4


def service_scales(
    spec,
    clock: "CostModelClock",
    full_batch: int = 8,
    backend: Optional[str] = None,
) -> Tuple[float, float]:
    """(amortised unit, dispatch unit) of the cost model, in seconds.

    ``spec`` is a :class:`~repro.serving.trace.TraceSpec`.  The
    *amortised unit* — mean per-request service over the workload's
    pattern families at full batches — sets pool capacity; the *dispatch
    unit* — one request plus one whole batch overhead — is the latency
    floor SLO deadlines are scaled from.  Shared by the CLI ``simulate``
    defaults and the ``serving_capacity`` sweep so the two cannot drift.

    ``backend`` names the registered backend whose cost model the scales
    are probed from — the **same** model the pool's workers charge
    service with, which is the whole point: a ``--backend dense``
    simulation must scale its SLO budgets from the dense cost model, not
    from the default SALO estimator, or budgets and service times come
    from two different machines.  ``None`` keeps the default SALO
    estimator (identical to the default ``functional`` backend's).
    """
    if full_batch < 1:
        raise ValueError(f"full_batch must be >= 1, got {full_batch}")
    if backend is None:
        estimator = SALO()
    else:
        from ..api import Runtime

        estimator = Runtime(backend=backend)
    units = [
        estimator.estimate(p, heads=spec.heads, head_dim=spec.head_dim).latency_s
        for p in pattern_families(spec)
    ]
    mean_unit = float(np.mean(units))
    return (
        mean_unit + clock.batch_overhead_s / full_batch,
        mean_unit + clock.batch_overhead_s,
    )


class CircuitBreaker:
    """Per-worker transient-error-rate breaker.

    Heartbeats catch *dead* workers; they miss **grey failures** — a
    worker that answers probes but fails most of its dispatches (flaky
    NIC, failing DIMM, a bad cable on one link).  The breaker watches a
    sliding window of recent dispatch outcomes and *opens* once the
    failure rate over at least ``min_samples`` outcomes reaches
    ``threshold``: the router stops sending the worker new traffic for
    ``cooldown_s``.  After the cooldown the breaker is **half-open** —
    the worker is routable again and the next completed dispatch is its
    probe: a success recloses the breaker (window reset), a failure
    re-opens it for another cooldown.

    Everything is driven by the caller's clock and the recorded
    outcomes — no wall time, no RNG — so simulations stay replayable.
    """

    def __init__(
        self,
        threshold: float = 0.5,
        window: int = 8,
        min_samples: int = 4,
        cooldown_s: float = 2e-3,
    ) -> None:
        if not (0.0 < threshold <= 1.0):
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        if min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {min_samples}")
        if window < min_samples:
            raise ValueError(
                f"window ({window}) must be >= min_samples ({min_samples})"
            )
        if not (cooldown_s > 0):
            raise ValueError(f"cooldown_s must be positive, got {cooldown_s}")
        self.threshold = threshold
        self.window = window
        self.min_samples = min_samples
        self.cooldown_s = cooldown_s
        self._outcomes: Deque[bool] = deque(maxlen=window)
        self.open_until_s: Optional[float] = None
        self.trips = 0

    def is_open(self, now: float) -> bool:
        """True while the cooldown holds; past it the breaker is
        half-open and the worker routable (its next outcome decides)."""
        return self.open_until_s is not None and now < self.open_until_s

    def record(self, ok: bool, now: float) -> None:
        """Fold one dispatch outcome in; may trip, re-trip or reclose."""
        if self.open_until_s is not None:
            if now < self.open_until_s:
                # outcome of a dispatch launched before the trip: the
                # breaker already acted on this failure burst
                return
            # half-open probe outcome
            if ok:
                self.open_until_s = None
                self._outcomes.clear()
                self._outcomes.append(True)
            else:
                self.open_until_s = now + self.cooldown_s
                self.trips += 1
            return
        self._outcomes.append(ok)
        if len(self._outcomes) < self.min_samples:
            return
        failures = sum(1 for o in self._outcomes if not o)
        if failures / len(self._outcomes) >= self.threshold:
            self.open_until_s = now + self.cooldown_s
            self.trips += 1
            self._outcomes.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(threshold={self.threshold}, "
            f"window={self.window}, trips={self.trips})"
        )


class Worker:
    """One engine: a SALO instance, its queue, and accounting.

    Lifecycle (``up -> suspect -> down -> rejoined up``): ``alive`` is
    ground truth — whether the process exists — while ``state`` is what
    the *cluster believes* from heartbeats.  The gap between the two is
    detection latency: a freshly crashed worker is dead but still routed
    to, exactly like a real node whose failure nobody has noticed yet.
    A worker that rejoins comes back with a **cold plan cache**: its
    ``warm``/``warm_plans`` sets are cleared, so its next batch of any
    structure pays the cold-compile penalty again — a replacement
    process, not a resurrection.
    """

    def __init__(
        self,
        wid: int,
        salo: SALO,
        max_batch_size: int = 8,
        bucket_floor: int = 16,
        pad_to_bucket: bool = False,
        queue=None,
    ) -> None:
        self.wid = wid
        self.salo = salo
        # ``queue``: a stand-in speaking BatchScheduler's protocol (decode's lanes)
        self.queue = queue if queue is not None else BatchScheduler(
            max_batch_size=max_batch_size,
            bucket_floor=bucket_floor,
            pad_to_bucket=pad_to_bucket,
        )
        # launch id -> (batch, dispatched_s, charged_until_s): the batches
        # the worker holds; lost with it if it dies before they complete.
        # Only note_dispatch, note_complete and forfeit change it, and
        # they keep ``inflight`` (its requests) in step.
        self.launched: Dict[int, Tuple[Batch, float, float]] = {}
        self.inflight = 0
        self.busy_s = 0.0  # accumulated service time
        self.request_s = 0.0  # service time x batch size (mean concurrency)
        self.batches = 0
        self.served = 0
        self.stolen_in = 0  # requests stolen from peers
        self.cold_compiles = 0
        self.warm: set = set()  # group keys this worker has served (routing)
        self.warm_plans: set = set()  # plan keys actually compiled (cold accounting)
        # --- lifecycle / health (see repro.cluster.faults) ---
        self.alive = True  # ground truth: does the process exist
        self.state = WORKER_UP  # what heartbeats have established
        self.last_heartbeat_s = 0.0
        self.crashed_at_s: Optional[float] = None
        self.down_since_s: Optional[float] = None
        self.downtime_s = 0.0  # accumulated across finished down windows
        self.crashes = 0
        self.rejoins = 0
        self.detect_delays: List[float] = []  # crash -> marked-down latency
        # Optional transient-error circuit breaker (see CircuitBreaker);
        # attached by the control plane when RecoveryConfig enables it.
        self.breaker: Optional[CircuitBreaker] = None
        self.transport = None  # the real worker's WorkerTransport, if any

    # ------------------------------------------------------------------
    @property
    def healthy(self) -> bool:
        """Routable as far as the cluster knows (not marked down)."""
        return self.state != WORKER_DOWN

    def breaker_open(self, now: Optional[float]) -> bool:
        """True when the circuit breaker is holding traffic off this
        worker (grey failure).  Lifecycle-independent: a breaker-open
        worker is alive and heartbeating, just not worth routing to."""
        return (
            self.breaker is not None
            and now is not None
            and self.breaker.is_open(now)
        )

    def crash(self, now: float) -> None:
        """The process dies.  Nothing else learns of it until heartbeats
        time out: ``state`` stays as-is, arrivals keep routing here, and
        the launched batches stay on the books as lost work until the
        failure is detected (or the worker rejoins)."""
        self.alive = False
        self.crashes += 1
        self.crashed_at_s = now

    def mark_down(self, now: float) -> None:
        """Heartbeat timeout fired: the cluster now *knows* the worker is
        gone.  Records detection latency and frees its slots (the control
        plane takes the lost batches' members with :meth:`forfeit` first)."""
        self.state = WORKER_DOWN
        self.down_since_s = now
        if self.crashed_at_s is not None:
            self.detect_delays.append(now - self.crashed_at_s)
            self.crashed_at_s = None
        self.forfeit()

    def rejoin(self, now: float) -> None:
        """A replacement process comes up: healthy again, cold caches."""
        self.alive = True
        self.state = WORKER_UP
        if self.down_since_s is not None:
            self.downtime_s += now - self.down_since_s
            self.down_since_s = None
        self.crashed_at_s = None
        self.last_heartbeat_s = now
        self.rejoins += 1
        self.forfeit()
        self.warm.clear()
        self.warm_plans.clear()

    def forfeit(self) -> List[AttentionRequest]:
        """Free every slot; returns the members of the batches that held
        them, in launch order — the work a dead worker strands."""
        stranded = [r for batch, _, _ in self.launched.values() for r in batch.requests]
        self.launched.clear()
        self.inflight = 0
        return stranded

    def note_warm(self, pattern, heads: int, head_dim: int = 64) -> None:
        """A plan the worker compiled before traffic (``head_dim`` defaults
        like :meth:`repro.api.Runtime.warm`), keyed by the queue the
        traffic itself goes through."""
        zeros = np.broadcast_to(0.0, (pattern.n, heads * head_dim))
        self.queue.enqueue(AttentionRequest(None, pattern, zeros, zeros, zeros, heads=heads))
        batch = self.queue.next_batch()
        self.warm.add(batch.key)
        self.warm_plans.add(batch.plan_key())

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        return bool(self.launched)

    def depth(self) -> int:
        """Queue pressure the router scores against: queued + executing
        (two counters)."""
        return self.queue.pending + self.inflight

    def is_cold_plan(self, batch: Batch) -> bool:
        """True when this batch's dispatch compiles a new plan here.

        Keyed on the executed plan, not the group key: in
        ``pad_to_bucket`` mode one group key covers both the exact- and
        bucket-length plans, and only the one actually run gets warm.
        """
        return batch.plan_key() not in self.warm_plans

    def note_dispatch(
        self, launch_id: int, batch: Batch, now: float, service_s: float, cold: bool
    ) -> None:
        """Book one launched batch; ``service_s`` is what is known of its
        service time at launch (all of it on a simulated clock)."""
        self.launched[launch_id] = (batch, now, now + service_s)
        self.inflight += batch.size
        self.busy_s += service_s
        self.request_s += service_s * batch.size
        self.batches += 1
        self.served += batch.size
        if cold:
            self.cold_compiles += 1
        self.warm.add(batch.key)
        self.warm_plans.add(batch.plan_key())

    def note_complete(self, launch_id: int, service_s: float) -> None:
        """Free the batch's slot; ``service_s`` is service time only known
        now (a real worker's measured engine time)."""
        self.inflight -= self.launched.pop(launch_id)[0].size
        self.busy_s += service_s


class ServiceModel:
    """Maps (worker, batch) to a service time; may execute the batch."""

    #: True when service times are free of wall-clock reads (replayable).
    deterministic = True

    def service_s(self, worker: Worker, batch: Batch, cold: bool) -> float:
        raise NotImplementedError


class CostModelClock(ServiceModel):
    """Paper-grounded oracle: ``SALO.estimate`` latency per sequence.

    ``batch_overhead_s`` models the host-side dispatch cost one engine
    call amortises across the batch (queue pop, operand staging) — the
    term that makes batching a throughput win in simulated time, exactly
    as it is in the measured benches.  ``cold_compile_s`` is charged the
    first time a worker serves a structure (scheduling + plan
    compilation + engine build on its SALO), which is what plan-affinity
    routing exists to avoid.

    **Defaults are measured, not guessed.**  An argument left ``None``
    takes the reference-host constant: ``DISPATCH_OVERHEAD_S`` per
    batch, and a cold penalty of ``COMPILE_S_PER_PASS`` times *the
    served plan's own structural pass count* (read off the estimate, so
    a 4096-token plan pays proportionally more than a toy one).  An
    explicit ``cold_compile_s`` is charged flat instead, and estimates
    with no pass count (the oracle backends) pay the flat constant.

    .. warning:: **Units depend on the backend.**  The latency oracle is
       whatever ``SALO.estimate`` returns for the worker's engine.  For
       the accelerator backends that is the paper's cycle model
       (accelerator-seconds); for the ``dense`` oracle it is a GPU
       roofline (1080Ti-seconds), and the oracle backends additionally
       report zero plan-cache stats to pool accounting (they compile no
       plans, so ``cold_compile_s`` models work they never do).
       Simulated times are therefore comparable *within* one backend
       but **not across backends** — a ``--backend dense`` simulation
       answers "what would a GPU cluster do", not "how much faster is
       the GPU than the accelerator".  Cross-backend latency comparisons
       belong to the measured benches, which share one wall clock.
    """

    deterministic = True

    def __init__(
        self,
        batch_overhead_s: Optional[float] = None,
        cold_compile_s: Optional[float] = None,
    ) -> None:
        if batch_overhead_s is None:
            batch_overhead_s = DISPATCH_OVERHEAD_S
        # An explicit penalty is charged flat; the default scales with passes.
        self._per_pass = cold_compile_s is None
        if self._per_pass:
            cold_compile_s = _FLAT_COLD_COMPILE_S
        if batch_overhead_s < 0 or cold_compile_s < 0:
            raise ValueError("overheads must be >= 0")
        self.batch_overhead_s = batch_overhead_s
        self.cold_compile_s = cold_compile_s

    @classmethod
    def flat(cls) -> "CostModelClock":
        """The uncalibrated clock: flat 20 us dispatch, 0.5 ms compile.

        For scenario-scaled simulations — the overload/capacity sweeps
        and tests that size arrival rates, deadlines and heartbeat
        timings against a fixed service scale.  Those scenarios pin this
        clock so re-measuring the default constants cannot silently move
        them; runs meant to reflect the measured host should construct
        :class:`CostModelClock` with defaults instead.
        """
        return cls(
            batch_overhead_s=_FLAT_BATCH_OVERHEAD_S,
            cold_compile_s=_FLAT_COLD_COMPILE_S,
        )

    def _cold_penalty_s(self, stats) -> float:
        """Compile penalty for this dispatch: measured rate x plan passes.

        Flat ``cold_compile_s`` when the clock was built with an
        explicit penalty or when the estimate carries no pass count
        (oracle backends, which compile nothing — the flat constant
        keeps modelling the generic warm-up work they skip).
        """
        if self._per_pass:
            passes = getattr(getattr(stats, "plan", None), "num_passes", None)
            if passes:
                return COMPILE_S_PER_PASS * float(passes)
        return self.cold_compile_s

    def service_s(self, worker: Worker, batch: Batch, cold: bool) -> float:
        req = batch.requests[0]
        pattern = batch.execution_pattern()
        stats = worker.salo.estimate(pattern, heads=req.heads, head_dim=req.head_dim)
        service = stats.latency_s * batch.size + self.batch_overhead_s
        if cold:
            service += self._cold_penalty_s(stats)
        return service


class MeasuredClock(ServiceModel):
    """Run the batch on the worker's engine; the wall clock is the time.

    ``served`` is what the last batch produced: :meth:`Batch.execute`'s
    ``(outputs, results)``, one entry per member in batch order.  Members
    holding undrawn operands (:meth:`AttentionRequest.drawn
    <repro.serving.request.AttentionRequest.drawn>`) are drawn before the
    clock starts: making the traffic is not service time.
    """

    deterministic = False

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.served: Tuple[List[np.ndarray], List[object]] = ([], [])

    def service_s(self, worker: Worker, batch: Batch, cold: bool) -> float:
        for r in batch.requests:
            if isinstance(r, AttentionRequest):
                r.operands()
        t0 = self.clock()
        self.served = batch.execute(worker.salo)
        return self.clock() - t0


class EnginePool:
    """Routes requests across workers; steals work for idle ones.

    Each worker's engine comes from ``salo_factory`` — by default a
    fresh :class:`~repro.core.salo.SALO` per worker.  ``backend``
    instead names a registered backend
    (:func:`repro.api.engine_factory` builds the per-worker factory),
    so a pool of legacy-path or oracle engines is one string away;
    passing both a custom factory and a backend name is ambiguous and
    rejected.
    """

    def __init__(
        self,
        workers: int,
        salo_factory: Callable[[], SALO] = SALO,
        max_batch_size: int = 8,
        bucket_floor: int = 16,
        pad_to_bucket: bool = False,
        affinity_miss_prob: float = 0.1,
        backend: Optional[str] = None,
        queue_factory: Optional[Callable[[], object]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if backend is not None:
            if salo_factory is not SALO:
                raise ValueError(
                    "pass either salo_factory or backend, not both"
                )
            from ..api import engine_factory

            salo_factory = engine_factory(backend)
        if not 0.0 < affinity_miss_prob <= 1.0:
            raise ValueError(
                f"affinity_miss_prob must be in (0, 1], got {affinity_miss_prob}"
            )
        self.workers: List[Worker] = [
            Worker(
                wid,
                salo_factory(),
                max_batch_size=max_batch_size,
                bucket_floor=bucket_floor,
                pad_to_bucket=pad_to_bucket,
                queue=queue_factory() if queue_factory is not None else None,
            )
            for wid in range(workers)
        ]
        self.affinity_miss_prob = affinity_miss_prob
        self.steals = 0

    # ------------------------------------------------------------------
    def route(self, request: AttentionRequest, now: float) -> Worker:
        """Pick the worker maximising cache-hit probability per queue slot.

        Score = P(plan cache hit) / (1 + depth): a warm worker wins until
        its backlog outweighs the compile it would save (with miss
        probability 0.1, a warm worker is preferred up to ~10x the queue
        depth).  Ties break toward the shallower queue, then the lower
        id — fully deterministic.

        Workers *marked down* are skipped — but workers that crashed and
        have not yet missed enough heartbeats still receive traffic (the
        router only knows what detection has told it).  Workers whose
        circuit breaker is open at ``now`` (grey failures: alive,
        heartbeating, failing dispatches) are skipped the same way —
        which is why ``now`` is **required**: an omitted clock used to
        silently disable the breaker check, routing traffic straight
        into tripped workers.  If every worker is excluded the request
        still routes (to the best of the excluded set) and is recovered
        by the next heartbeat sweep or breaker probe.
        """
        if now is None:
            raise TypeError(
                "EnginePool.route requires the caller's clock: an omitted "
                "`now` would silently skip the circuit-breaker check and "
                "route into tripped workers"
            )
        key = self.workers[0].queue.group_key(request)
        candidates = [
            w for w in self.workers if w.healthy and not w.breaker_open(now)
        ]
        if not candidates:
            candidates = [w for w in self.workers if w.healthy] or self.workers
        best: Optional[Worker] = None
        best_score: Optional[Tuple[float, int, int]] = None
        for worker in candidates:
            hit_p = 1.0 if key in worker.warm else self.affinity_miss_prob
            depth = worker.depth()
            score = (-hit_p / (1 + depth), depth, worker.wid)
            if best_score is None or score < best_score:
                best, best_score = worker, score
        return best

    def steal_into(self, thief: Worker, now: float) -> int:
        """Move queued work from the most loaded *busy* peer to an idle thief.

        Takes up to ``max_batch_size`` requests from the back of the
        victim's deepest queue (the work the victim would reach last),
        re-enqueues them on the thief and returns the count.  The thief
        pays a cold compile unless it happens to be warm for the stolen
        structure — idleness is worse.  Only busy victims qualify: an
        idle worker with queued requests is *holding* them open on
        purpose (a max-wait policy building a batch), and robbing it
        would defeat the policy rather than reduce idleness.
        """
        victim: Optional[Worker] = None
        for worker in self.workers:
            if worker is thief or not worker.busy or worker.queue.pending == 0:
                continue
            if victim is None or worker.queue.pending > victim.queue.pending:
                victim = worker
        if victim is None:
            return 0
        stolen = victim.queue.steal(thief.queue.max_batch_size)
        if not stolen:
            return 0
        thief.queue.requeue(stolen)
        thief.stolen_in += len(stolen)
        self.steals += 1
        return len(stolen)

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        return sum(w.queue.pending for w in self.workers)

    @property
    def busy_workers(self) -> int:
        return sum(1 for w in self.workers if w.busy)
