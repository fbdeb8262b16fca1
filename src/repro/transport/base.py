"""The :class:`WorkerTransport` protocol: how a driver talks to one worker.

The cluster layer was built around a *dispatch-outcome* seam — a worker
receives a batch, and either a :data:`~repro.cluster.faults.DISPATCH_OK`
completion comes back with outputs, a
:data:`~repro.cluster.faults.DISPATCH_ERROR` completion comes back with
an error, or **nothing comes back at all** (the worker died mid-batch)
and only missed heartbeats reveal it.  The simulator models that seam;
this package *implements* it, so the same recovery machinery (detection,
retry, requeue, the four-way conservation law) runs against real worker
processes.

A transport owns exactly one worker.  The protocol is deliberately
narrow and asynchronous:

``submit(request)`` / ``submit_members(batch_id, pattern, requests, heads)``
    Hand the worker one batch, pre-stacked (:class:`TransportRequest`)
    or as its member requests.  Never blocks on execution; completions
    surface later via :meth:`poll`.
``poll(timeout_s)``
    Collect finished batches as :class:`Completion` objects.  A batch
    submitted to a worker that dies before answering produces **no**
    completion, ever — callers detect that through probes.
``probe(timeout_s)``
    Health check: does the worker answer a status ping within the
    budget?  The real-transport analogue of the simulator's heartbeat
    probe events.
``kill()``
    Make the worker fail *unannounced* (``SIGKILL`` for a process
    driver) — the crash-testing hook; in-flight batches are lost.
``close()``
    Orderly shutdown; releases queues, processes and shared memory.

Drivers
-------
* :class:`~repro.transport.inprocess.InProcessTransport` — the engine
  runs in the caller's process; ``submit`` executes synchronously.
  Today's single-process behaviour, byte-identical outputs.
* :class:`~repro.transport.multiprocess.MultiprocessTransport` — a
  worker process owning its own warm :class:`~repro.api.Runtime`;
  operands travel through a small pool of reused
  ``multiprocessing.shared_memory`` slots (the worker maps the same
  pages once — no serialisation of Q/K/V), small control messages
  through queues.  True parallelism: N transports are
  N python processes, N GILs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..cluster.faults import DISPATCH_ERROR, DISPATCH_OK
from ..patterns.base import AttentionPattern

__all__ = [
    "TransportRequest",
    "Completion",
    "WorkerTransport",
    "TransportClosed",
    "DISPATCH_OK",
    "DISPATCH_ERROR",
]


class TransportClosed(RuntimeError):
    """Submit/probe against a transport that was closed or killed."""


@dataclass
class TransportRequest:
    """One batch on the wire: the operands of a single engine dispatch.

    ``q``/``k``/``v`` are stacked ``(b, n, hidden)`` float64 arrays (a
    ``b=1`` batch is still rank 3 — the wire format has one shape).
    ``valid_lens`` carries the per-lane true lengths of a padded
    mixed-length batch (``None`` for uniform batches).  ``batch_id``
    is the caller's correlation key: completions echo it back, which is
    all the driver needs to map outcomes onto queued requests.
    """

    batch_id: int
    pattern: AttentionPattern
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    heads: int = 1
    valid_lens: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.q = np.ascontiguousarray(self.q, dtype=np.float64)
        self.k = np.ascontiguousarray(self.k, dtype=np.float64)
        self.v = np.ascontiguousarray(self.v, dtype=np.float64)
        if self.q.ndim != 3:
            raise ValueError(
                f"transport requests ship stacked (b, n, hidden) operands, "
                f"got q shape {self.q.shape}"
            )
        if self.k.shape != self.q.shape or self.v.shape != self.q.shape:
            raise ValueError("q, k, v must share shape (b, n, hidden)")
        if self.valid_lens is not None:
            self.valid_lens = np.ascontiguousarray(self.valid_lens, dtype=np.int64)
            if self.valid_lens.shape != (self.q.shape[0],):
                raise ValueError(
                    f"valid_lens must have shape (b,), got {self.valid_lens.shape}"
                )

    @property
    def size(self) -> int:
        return self.q.shape[0]


@dataclass
class Completion:
    """Outcome of one submitted batch, correlated by ``batch_id``.

    ``outcome`` is :data:`DISPATCH_OK` (``output`` holds the stacked
    ``(b, n, hidden)`` result) or :data:`DISPATCH_ERROR` (``error``
    describes the failure; the batch burned ``service_s`` of worker
    time but produced nothing).  A *lost* batch — worker killed
    mid-flight — has no :class:`Completion` at all; that absence is the
    crash signature heartbeat detection exists for.
    """

    batch_id: int
    outcome: str
    output: Optional[np.ndarray] = None
    error: Optional[str] = None
    service_s: float = 0.0  # worker-measured engine time

    @property
    def ok(self) -> bool:
        return self.outcome == DISPATCH_OK


class WorkerTransport:
    """Abstract driver for one worker (see module docstring).

    Context-manager protocol closes the transport on exit.  ``wid`` is
    the worker id the driver reports in records and probes.
    """

    #: Driver name ("inprocess" / "multiprocess"); used by CLIs and reports.
    name = "abstract"

    wid: int = 0

    # ------------------------------------------------------------------
    def submit(self, request: TransportRequest) -> None:
        """Queue one batch on the worker (non-blocking w.r.t. execution)."""
        raise NotImplementedError

    def submit_members(self, batch_id: int, pattern, requests, heads: int) -> None:
        """Queue one batch given as its member requests, unstacked.

        The default stacks them into fresh arrays and passes the result
        to :meth:`submit`; a driver with its own operand memory stacks
        straight into it.
        """
        q, k, v, valid_lens = stacked_operands(requests, pattern)
        self.submit(TransportRequest(batch_id, pattern, q, k, v, heads, valid_lens))

    def poll(self, timeout_s: float = 0.0) -> Sequence[Completion]:
        """Collect any finished batches, waiting up to ``timeout_s``."""
        raise NotImplementedError

    def probe(self, timeout_s: float = 0.1) -> bool:
        """True when the worker answers a status ping within the budget."""
        raise NotImplementedError

    def cache_info(self) -> dict:
        """The worker engine's plan-cache counters (zeros when unknown)."""
        return {"hits": 0, "misses": 0, "size": 0, "capacity": 0, "hit_rate": 0.0}

    @property
    def alive(self) -> bool:
        """Ground truth on the worker's existence (cheap, no round-trip)."""
        raise NotImplementedError

    @property
    def inflight(self) -> int:
        """Batches submitted but not yet completed (or lost)."""
        raise NotImplementedError

    def kill(self) -> None:
        """Unannounced worker death (crash testing); in-flight work is lost."""
        raise NotImplementedError

    def close(self) -> None:
        """Orderly shutdown; idempotent."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def __enter__(self) -> "WorkerTransport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(wid={self.wid})"


# The wire packing IS the local-dispatch packing: one implementation in
# the serving layer, re-exported here, so what ships over shared memory
# cannot drift from what execute_batch hands a same-process engine.
from ..serving.batching import stack_batch_operands as stacked_operands  # noqa: E402
