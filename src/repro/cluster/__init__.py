"""Discrete-event cluster simulator for SALO serving deployments.

Answers the provisioning question a deployed accelerator study needs:
*how many SALO engines, under which batching policy, meet a p99 latency
SLO at a given traffic level?*  Layered on the serving stack:

* :mod:`repro.cluster.arrivals` — traffic: Poisson / bursty (on-off)
  open-loop generators and a closed-loop client population over a
  :class:`~repro.serving.trace.TraceSpec` request stream, all emitting
  timestamped ``AttentionRequest`` s with SLO classes and latency
  deadlines.
* :mod:`repro.cluster.policy` — *when* a batch closes: greedy FIFO,
  max-wait timeout, size-vs-latency target, earliest-deadline-first,
  weighted-fair (deficit round-robin over SLO classes); every policy can
  also shed already-doomed requests (``drop_expired``).
* :mod:`repro.serving.admission` (re-exported here) — whether a request
  enters at all: admit-all, queue-depth cap, estimated-wait cap
  (cost-model doomed-at-arrival test), per-SLO-class token buckets —
  the overload valve that keeps rho > 1 traffic from collapsing goodput.
* :mod:`repro.cluster.pool` — N worker engines with plan-affinity
  routing (warm plan caches are per-engine state worth routing for),
  work stealing and per-worker accounting; service times come from the
  paper's cycle model (``SALO.estimate``) in the deterministic default,
  or measured engine wall time.
* :mod:`repro.cluster.faults` — deterministic fault injection (worker
  crash / straggler / transient dispatch errors) plus the heartbeat and
  retry/requeue recovery knobs; workers carry an ``up -> suspect ->
  down -> rejoined`` lifecycle and the conservation law gains a terminal
  ``failed`` bucket.
* :mod:`repro.cluster.simulator` / :mod:`repro.cluster.metrics` — the
  heap-driven event loop and the :class:`ClusterReport` (per-class
  percentiles, goodput, utilisation, queue-depth time series,
  availability and recovery counters under faults).
* :mod:`repro.cluster.decode` — the decode phase on the same event
  loop: a sequence is a request that holds a lane, a step is a launch;
  TTFT/ITL SLO classes, tokens/s-vs-concurrency metrics, and a
  token-level conservation law on top of the sequence-level one.

Entry points: the ``salo-repro simulate`` CLI subcommand and the
``serving_capacity`` experiment sweep.
"""

# Admission control lives in the serving layer (both the session door
# and the cluster arrival gate consume it); re-exported here because it
# is the cluster simulator's overload valve.
from ..serving.admission import (
    ADMISSIONS,
    AdmissionContext,
    AdmissionPolicy,
    AdmitAll,
    EstimatedWaitCap,
    QueueDepthCap,
    TokenBucketAdmission,
    make_admission,
    queue_drain_estimate,
)
from .arrivals import (
    DEFAULT_SLO_CLASSES,
    ClosedLoopSource,
    OnOffProcess,
    OpenLoopSource,
    PoissonProcess,
    RequestFactory,
    RequestSource,
    SLOClass,
    WorkloadSpec,
    open_loop,
)
from .faults import (
    CrashSpec,
    FaultInjector,
    FaultSpec,
    RecoveryConfig,
    StragglerSpec,
    TransientSpec,
    WORKER_DOWN,
    WORKER_SUSPECT,
    WORKER_UP,
)
from .metrics import (
    ClassReport,
    ClusterReport,
    DropRecord,
    MetricsCollector,
    RequestRecord,
    WorkerReport,
    jain_index,
)
from .policy import (
    POLICIES,
    BatchDecision,
    BatchPolicy,
    EDFPolicy,
    GreedyFIFOPolicy,
    MaxWaitPolicy,
    SizeLatencyPolicy,
    WeightedFairPolicy,
    make_policy,
)
from .pool import (
    BULK_BUDGET,
    INTERACTIVE_BUDGET,
    CircuitBreaker,
    CostModelClock,
    EnginePool,
    MeasuredClock,
    ServiceModel,
    Worker,
    service_scales,
)
from .decode import (
    DEFAULT_DECODE_SLO_CLASSES,
    DecodeClassReport,
    DecodeClusterSimulator,
    DecodeReport,
    DecodeSimConfig,
    DecodeSLOClass,
    DecodeWorkloadSpec,
)
from .simulator import ClusterSimulator, SimConfig, simulate

__all__ = [
    "SLOClass",
    "DEFAULT_SLO_CLASSES",
    "WorkloadSpec",
    "RequestFactory",
    "RequestSource",
    "OpenLoopSource",
    "ClosedLoopSource",
    "PoissonProcess",
    "OnOffProcess",
    "open_loop",
    "BatchDecision",
    "BatchPolicy",
    "GreedyFIFOPolicy",
    "MaxWaitPolicy",
    "SizeLatencyPolicy",
    "EDFPolicy",
    "WeightedFairPolicy",
    "POLICIES",
    "make_policy",
    "AdmissionContext",
    "AdmissionPolicy",
    "AdmitAll",
    "QueueDepthCap",
    "EstimatedWaitCap",
    "TokenBucketAdmission",
    "ADMISSIONS",
    "make_admission",
    "queue_drain_estimate",
    "Worker",
    "CircuitBreaker",
    "EnginePool",
    "ServiceModel",
    "CostModelClock",
    "MeasuredClock",
    "service_scales",
    "INTERACTIVE_BUDGET",
    "BULK_BUDGET",
    "SimConfig",
    "ClusterSimulator",
    "simulate",
    "DecodeSLOClass",
    "DEFAULT_DECODE_SLO_CLASSES",
    "DecodeWorkloadSpec",
    "DecodeSimConfig",
    "DecodeClusterSimulator",
    "DecodeClassReport",
    "DecodeReport",
    "CrashSpec",
    "StragglerSpec",
    "TransientSpec",
    "FaultSpec",
    "FaultInjector",
    "RecoveryConfig",
    "WORKER_UP",
    "WORKER_SUSPECT",
    "WORKER_DOWN",
    "MetricsCollector",
    "RequestRecord",
    "DropRecord",
    "ClassReport",
    "WorkerReport",
    "ClusterReport",
    "jain_index",
]
