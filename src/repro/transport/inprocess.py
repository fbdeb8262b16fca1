"""In-process transport driver: today's behaviour behind the protocol.

The engine lives in the caller's process and ``submit`` executes the
batch synchronously — the completion is computed before ``submit``
returns and handed out at the next :meth:`poll`.  Outputs are
byte-identical to calling the engine directly (same
:class:`~repro.api.Runtime`, same arrays, no copies through foreign
memory), which is what lets every existing single-process test and
bench stand as the transport's baseline.

The driver still honours the full protocol, including :meth:`kill`:
a killed in-process worker answers no more probes, accepts no more
submits, and *drops unharvested completions* — matching the crash
semantics of a real worker process (results that never made it back to
the driver died with the worker), so crash-recovery logic can be
exercised cheaply before paying for real processes.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, List, Sequence, Tuple

from ..api import Runtime
from .base import (
    DISPATCH_ERROR,
    DISPATCH_OK,
    Completion,
    TransportClosed,
    TransportRequest,
    WorkerTransport,
)

__all__ = ["InProcessTransport"]


class InProcessTransport(WorkerTransport):
    """Synchronous driver over a caller-process :class:`Runtime` of ``backend``."""

    name = "inprocess"

    def __init__(
        self,
        backend: str = "functional",
        wid: int = 0,
        clock=time.perf_counter,
        warm: Sequence[Tuple] = (),
    ) -> None:
        self.wid = wid
        self.runtime = Runtime(backend=backend)
        for pattern, heads, *head_dim in warm:  # as a worker process does at start-up
            self.runtime.warm([pattern], heads, *head_dim)
        self.clock = clock
        self._ready: Deque[Completion] = deque()
        self._closed = False
        self._killed = False

    # ------------------------------------------------------------------
    def submit(self, request: TransportRequest) -> None:
        if self._closed or self._killed:
            raise TransportClosed(f"worker {self.wid} is not accepting work")
        t0 = self.clock()
        try:
            result = self.runtime.attend(
                request.pattern,
                request.q,
                request.k,
                request.v,
                heads=request.heads,
                valid_lens=request.valid_lens,
            )
        except Exception as exc:  # engine-level failure -> dispatch error
            self._ready.append(
                Completion(
                    batch_id=request.batch_id,
                    outcome=DISPATCH_ERROR,
                    error=f"{type(exc).__name__}: {exc}",
                    service_s=self.clock() - t0,
                )
            )
            return
        self._ready.append(
            Completion(
                batch_id=request.batch_id,
                outcome=DISPATCH_OK,
                output=result.output,
                service_s=self.clock() - t0,
            )
        )

    def poll(self, timeout_s: float = 0.0) -> Sequence[Completion]:
        out: List[Completion] = list(self._ready)
        self._ready.clear()
        return out

    def probe(self, timeout_s: float = 0.1) -> bool:
        return not (self._closed or self._killed)

    def cache_info(self) -> dict:
        return self.runtime.cache_info()

    @property
    def alive(self) -> bool:
        return not (self._closed or self._killed)

    @property
    def inflight(self) -> int:
        return len(self._ready)  # computed, not yet harvested

    def kill(self) -> None:
        """Simulated crash: unharvested completions die with the worker."""
        self._killed = True
        self._ready.clear()

    def close(self) -> None:
        self._closed = True
        self._ready.clear()
