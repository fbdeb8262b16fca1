"""Batched multi-sequence serving layer (request -> bucket -> batch -> engine).

The reproduction's serving path for repeated-structure traffic: queued
:class:`AttentionRequest` objects are grouped by execution-plan key and
length bucket (:class:`BatchScheduler`), stacked into same-plan batches
and executed as single batched engine dispatches (:func:`execute_batch`)
— amortising scheduling, plan compilation and per-job dispatch across
requests while keeping outputs bit-identical to per-request calls.
These pieces, and :mod:`repro.serving.admission`'s overload doors, are
what the cluster control plane is built from.  :class:`ServingSession`
is that plane's synchronous in-process front: one worker running
batches on the caller's engine.
"""

from .admission import (
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
from .batching import Batch, BatchScheduler, execute_batch, length_bucket
from .request import AttentionRequest, RequestResult, ServingStats
from .session import ServingSession
from .trace import ArrivalSpec, ReplayReport, TraceSpec, replay, synthetic_trace

__all__ = [
    "AttentionRequest",
    "RequestResult",
    "Batch",
    "BatchScheduler",
    "length_bucket",
    "ServingSession",
    "ServingStats",
    "execute_batch",
    "ArrivalSpec",
    "TraceSpec",
    "ReplayReport",
    "replay",
    "synthetic_trace",
    "AdmissionContext",
    "AdmissionPolicy",
    "AdmitAll",
    "QueueDepthCap",
    "EstimatedWaitCap",
    "TokenBucketAdmission",
    "ADMISSIONS",
    "make_admission",
    "queue_drain_estimate",
]
