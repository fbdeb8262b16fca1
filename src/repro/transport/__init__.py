"""Worker transports: the driver layer between cluster and engines.

See :mod:`repro.transport.base` for the protocol, and
:mod:`repro.transport.cluster` for the wall-clock executor that puts the
simulator's own control plane on actual workers.
"""

from .base import (
    Completion,
    DISPATCH_ERROR,
    DISPATCH_OK,
    TransportClosed,
    TransportRequest,
    WorkerTransport,
    stacked_operands,
)
from .cluster import (
    TRANSPORTS,
    TransportCluster,
    TransportClusterConfig,
    make_transport,
)
from .inprocess import InProcessTransport
from .multiprocess import MultiprocessTransport, default_context
from .shm import ShmBatch, ShmLayout, attach

__all__ = [
    "WorkerTransport",
    "TransportRequest",
    "Completion",
    "TransportClosed",
    "DISPATCH_OK",
    "DISPATCH_ERROR",
    "stacked_operands",
    "InProcessTransport",
    "MultiprocessTransport",
    "default_context",
    "TransportCluster",
    "TransportClusterConfig",
    "TRANSPORTS",
    "make_transport",
    "ShmBatch",
    "ShmLayout",
    "attach",
]
