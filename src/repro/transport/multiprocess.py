"""Multiprocess transport driver: one worker process, one warm Runtime.

This is the "true parallelism" half of the transport split.  Each
:class:`MultiprocessTransport` owns one OS process running
:func:`_worker_main`: a loop that builds its own
:class:`~repro.api.Runtime` (its warm plan cache is process-local state,
exactly like a :class:`~repro.cluster.pool.Worker`'s SALO in the
simulator), reads each submitted batch's operands out of shared memory,
executes, writes the stacked output back into the same memory and
answers with a small completion message.  N transports are N python
interpreters — N GILs — so a pool of them is the first configuration in
this repo where multi-worker throughput is *measured* parallelism, not
cost-model arithmetic.

Slots
-----
The parent owns a small pool of ``multiprocessing.shared_memory``
segments, the *slots* (:class:`~repro.transport.shm.ShmBatch`).  A
batch takes a free slot (the smallest that fits; else the largest free
one is re-created at the batch's size; else a new slot), and the slot
goes back to the pool when the batch's completion is harvested, OK or
``DISPATCH_ERROR``.  So the pool never holds more slots than the
high-water mark of batches in flight (``max_inflight_per_worker`` under
a :class:`~repro.transport.cluster.TransportCluster`), slots only grow,
and segments are unlinked only when a slot is re-created or the
transport closes — after a ``kill`` too.  The worker maps each slot once
and keeps the mapping, keyed by slot index; a slot arriving under a new
segment name (re-created larger) replaces the old mapping.

Wire format (per batch)
-----------------------
* The batch's slot, laid out ``q | k | v`` as contiguous float64
  ``(b, n, hidden)`` regions (:mod:`repro.transport.shm`).  The parent
  stacks the members straight into the regions
  (:func:`~repro.serving.session.stack_batch_operands` with ``out=``;
  a pre-stacked :class:`TransportRequest` is copied in by the same slot
  writer), and the worker reads them in place — never pickled.
* One control message on the request queue:
  ``("submit", batch_id, slot, shm_name, layout, pattern, heads,
  valid_lens)`` — everything small enough that pickling is noise.
* One completion message on the completion queue:
  ``("done", batch_id, outcome, error, service_s)`` with the output
  already sitting in the slot: the worker writes it over the ``q``
  region once the attend has returned.

Crash semantics
---------------
:meth:`kill` delivers ``SIGKILL`` — the real thing, not a simulation.
A killed worker sends nothing: its in-flight batches simply never
complete, probes go unanswered, ``alive`` flips false, and their slots
stay taken until :meth:`close` unlinks every slot.  This is
exactly the failure signature the cluster's heartbeat detection and
requeue recovery were built against, which is the point: the recovery
paths the simulator models are exercised here by an actual dead process.
"""

from __future__ import annotations

import queue as queue_mod
import time
from typing import Dict, List, Optional, Sequence, Tuple

import multiprocessing as mp

from .base import (
    DISPATCH_ERROR,
    DISPATCH_OK,
    Completion,
    TransportClosed,
    TransportRequest,
    WorkerTransport,
    stacked_operands,
)
from .shm import ShmBatch, ShmLayout, attach

__all__ = ["MultiprocessTransport", "default_context"]

#: Budget for a worker's ready handshake (interpreter start plus warm-up compiles).
START_TIMEOUT_S = 60.0


def default_context() -> str:
    """Preferred start method: ``fork`` where the OS offers it.

    Fork keeps worker start-up in the low milliseconds (no interpreter
    re-import); the worker still builds its own Runtime after the fork,
    so its caches are its own.  Platforms without fork fall back to
    ``spawn`` transparently.
    """
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def _worker_main(wid, backend, warm_specs, req_q, done_q) -> None:
    """Worker process body: warm a ``backend`` Runtime, serve the request queue.

    ``warm_specs`` is a list of ``(pattern, heads)`` or ``(pattern,
    heads, head_dim)`` tuples compiled before the worker reports ready
    (the plan cache keys on head_dim; without one the warm-up uses
    :meth:`Runtime.warm`'s default), so steady-state traffic never pays
    a cold compile (the transport analogue of plan-affinity warmth).
    Runs until a ``("stop",)`` message; every exception inside a dispatch
    is converted to a :data:`DISPATCH_ERROR` completion rather than
    killing the loop — only signals kill a worker.  ``maps`` holds one
    mapping per slot index (module docstring), closed at stop.
    """
    from ..api import Runtime  # late import: after fork/spawn

    runtime = Runtime(backend=backend)
    for pattern, heads, *head_dim in warm_specs:
        runtime.warm([pattern], heads, *head_dim)
    maps: dict = {}
    done_q.put(("ready", wid))
    while True:
        msg = req_q.get()
        kind = msg[0]
        if kind == "stop":
            break
        if kind == "ping":
            done_q.put(("pong", msg[1]))
            continue
        if kind == "stats":
            done_q.put(("stats", runtime.cache_info()))
            continue
        # ("submit", batch_id, slot, shm_name, layout, pattern, heads, valid_lens)
        _, batch_id, slot, shm_name, layout, pattern, heads, valid_lens = msg
        t0 = time.perf_counter()
        try:
            if slot in maps and maps[slot].name != shm_name:  # re-created larger
                maps.pop(slot).close()
            if slot not in maps:
                maps[slot] = attach(shm_name)
            q, k, v, out = ShmBatch.views(maps[slot], layout)
            result = runtime.attend(pattern, q, k, v, heads=heads, valid_lens=valid_lens)
            out[...] = result.output  # out is q's region: written after the attend
        except Exception as exc:
            done_q.put(
                (
                    "done",
                    batch_id,
                    DISPATCH_ERROR,
                    f"{type(exc).__name__}: {exc}",
                    time.perf_counter() - t0,
                )
            )
            continue
        done_q.put(("done", batch_id, DISPATCH_OK, None, time.perf_counter() - t0))
    for shm in maps.values():
        shm.close()


class MultiprocessTransport(WorkerTransport):
    """Driver over one out-of-process worker (see module docstring).

    Parameters
    ----------
    backend:
        Registered backend name the worker's Runtime is built from.
    wid:
        Worker id echoed in probes and reports.
    warm:
        ``(pattern, heads)`` or ``(pattern, heads, head_dim)`` tuples
        the worker compiles before reporting ready (start-up blocks
        until the warm-up finishes).  Plans are keyed on head_dim, so
        name it whenever traffic does not use ``Runtime.warm``'s default.
    context:
        ``multiprocessing`` start method; default :func:`default_context`.

    Start-up blocks until the worker reports ready, or fails after
    :data:`START_TIMEOUT_S`.
    """

    name = "multiprocess"

    def __init__(
        self,
        backend: str = "functional",
        wid: int = 0,
        warm: Sequence[Tuple] = (),
        context: Optional[str] = None,
    ) -> None:
        self.wid = wid
        # The shared-memory resource tracker must exist *before* the
        # worker forks: a child forked first would lazily spawn its own
        # private tracker on its first attach, and that tracker would
        # try to reclaim (already-unlinked) parent-owned segments at
        # child exit.  Started up-front, parent and children share one
        # tracker whose set-semantics registry keeps attach/unlink
        # accounting balanced (see repro.transport.shm).
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        self._ctx = mp.get_context(context or default_context())
        self._req_q = self._ctx.Queue()
        self._done_q = self._ctx.Queue()
        self._slots: List[ShmBatch] = []  # the pool; index = slot id on the wire
        self._free: List[int] = []
        self._pending: Dict[int, int] = {}  # batch_id -> slot index
        self._ready: List[Completion] = []
        self._pongs: set = set()
        self._ping_serial = 0
        self._last_stats: Optional[dict] = None
        self._closed = False
        self._process = self._ctx.Process(
            target=_worker_main,
            args=(wid, backend, list(warm), self._req_q, self._done_q),
            daemon=True,
        )
        self._process.start()
        self._await_ready(START_TIMEOUT_S)

    def _await_ready(self, timeout_s: float) -> None:
        deadline = time.perf_counter() + timeout_s
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                self.kill()
                raise TransportClosed(
                    f"worker {self.wid} did not report ready within {timeout_s}s"
                )
            try:
                msg = self._done_q.get(timeout=min(remaining, 0.2))
            except queue_mod.Empty:
                if not self._process.is_alive():
                    raise TransportClosed(
                        f"worker {self.wid} died during start-up"
                    )
                continue
            if msg[0] == "ready":
                return

    # ------------------------------------------------------------------
    def submit(self, request: TransportRequest) -> None:
        def copy_in(q, k, v):
            q[...], k[...], v[...] = request.q, request.k, request.v
            return request.valid_lens

        self._send(request.batch_id, request.q.shape, request.pattern, request.heads, copy_in)

    def submit_members(self, batch_id, pattern, requests, heads) -> None:
        """Stack the members straight into the batch's slot (no staging copy)."""
        shape = (len(requests), pattern.n, requests[0].hidden)
        self._send(
            batch_id,
            shape,
            pattern,
            heads,
            lambda q, k, v: stacked_operands(requests, pattern, out=(q, k, v))[3],
        )

    def _send(self, batch_id, shape, pattern, heads, write) -> None:
        """The slot writer: take a slot, ``write(q, k, v)`` its regions
        (returning ``valid_lens``), ship the control message."""
        if self._closed or not self.alive:
            raise TransportClosed(f"worker {self.wid} is not accepting work")
        layout = ShmLayout(shape=tuple(shape))
        index = self._take_slot(layout)
        slot = self._slots[index]
        try:
            valid_lens = write(*slot.regions())
        except BaseException:
            self._free.append(index)
            raise
        self._pending[batch_id] = index
        self._req_q.put(
            ("submit", batch_id, index, slot.name, layout, pattern, heads, valid_lens)
        )

    def _take_slot(self, layout: ShmLayout) -> int:
        """A free slot sized for ``layout`` (module docstring: Slots)."""
        need = layout.total_bytes
        fits = [i for i in self._free if self._slots[i].capacity >= need]
        if fits:
            index = min(fits, key=lambda i: self._slots[i].capacity)
            self._free.remove(index)
        elif self._free:
            index = max(self._free, key=lambda i: self._slots[i].capacity)
            self._free.remove(index)
            self._slots[index].destroy()
            self._slots[index] = ShmBatch.create(layout)
        else:
            index = len(self._slots)
            self._slots.append(ShmBatch.create(layout))
        self._slots[index].layout = layout
        return index

    # ------------------------------------------------------------------
    def _absorb(self, msg) -> None:
        """File one completion-queue message into the right bucket."""
        kind = msg[0]
        if kind == "done":
            _, batch_id, outcome, error, service_s = msg
            index = self._pending.pop(batch_id, None)
            output = None
            if index is not None:
                if outcome == DISPATCH_OK:
                    output = self._slots[index].read_output()
                self._free.append(index)
            self._ready.append(
                Completion(
                    batch_id=batch_id,
                    outcome=outcome,
                    output=output,
                    error=error,
                    service_s=service_s,
                )
            )
        elif kind == "pong":
            self._pongs.add(msg[1])
        elif kind == "stats":
            self._last_stats = msg[1]

    def _drain(self, timeout_s: float = 0.0) -> None:
        """Absorb queued messages, waiting up to ``timeout_s`` for the first."""
        deadline = time.perf_counter() + timeout_s
        first = True
        while True:
            try:
                wait = max(0.0, deadline - time.perf_counter()) if first else 0.0
                msg = self._done_q.get(timeout=wait) if wait > 0 else self._done_q.get_nowait()
            except queue_mod.Empty:
                return
            first = False
            self._absorb(msg)

    def poll(self, timeout_s: float = 0.0) -> Sequence[Completion]:
        self._drain(timeout_s)
        out = self._ready
        self._ready = []
        return out

    def probe(self, timeout_s: float = 0.1) -> bool:
        """Ping the worker loop; completions arriving meanwhile are kept.

        A worker that is mid-batch cannot answer until the batch ends
        (its loop is single-threaded, like a GPU worker saturating its
        device) — callers treat an unanswered probe on a *busy* worker
        as load, not death; a dead process fails instantly via
        ``alive``.
        """
        if self._closed or not self.alive:
            return False
        self._ping_serial += 1
        token = (self.wid, self._ping_serial)
        try:
            self._req_q.put(("ping", token))
        except (ValueError, OSError):  # queue closed under us
            return False
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            self._drain(timeout_s=min(0.02, timeout_s))
            if token in self._pongs:
                self._pongs.discard(token)
                return True
            if not self.alive:
                return False
        return False

    def cache_info(self) -> dict:
        """Worker-reported plan-cache counters (last known on timeout)."""
        if self.alive and not self._closed and self.inflight == 0:
            try:
                self._req_q.put(("stats",))
                deadline = time.perf_counter() + 0.5
                self._last_stats = None
                while time.perf_counter() < deadline and self._last_stats is None:
                    self._drain(timeout_s=0.05)
            except (ValueError, OSError):  # pragma: no cover - closed queue
                pass
        if self._last_stats is not None:
            return self._last_stats
        return super().cache_info()

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self._process is not None and self._process.is_alive()

    @property
    def inflight(self) -> int:
        return len(self._pending)

    def kill(self) -> None:
        """SIGKILL the worker process; in-flight batches are lost."""
        if self._process is not None and self._process.is_alive():
            self._process.kill()
            self._process.join(timeout=5.0)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._process is not None and self._process.is_alive():
            try:
                self._req_q.put(("stop",))
                self._process.join(timeout=5.0)
            except (ValueError, OSError):  # pragma: no cover - queue gone
                pass
            if self._process.is_alive():
                self.kill()
        # Unlink every slot, including those of lost batches.
        for slot in self._slots:
            slot.destroy()
        self._slots.clear()
        self._free.clear()
        self._pending.clear()
        for q in (self._req_q, self._done_q):
            q.cancel_join_thread()
            q.close()
