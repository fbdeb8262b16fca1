"""Shared-memory tensor blocks: zero-copy operand shipping.

One :class:`ShmBatch` is one parent-owned ``multiprocessing.shared_memory``
segment laid out as three contiguous float64 regions — ``q | k | v``.
The parent writes the operands in and ships only the segment *name* plus
shape metadata over the control queue.  The worker process maps the same
physical pages, builds ``numpy`` views over them (no copy, no pickle for
tensor data), runs the engine, and once the attend has returned writes
the stacked output over the ``q`` region (the operands are spent by
then, so a batch needs no fourth region) before sending its tiny
completion message.  The parent then copies the output out.

A :class:`~repro.transport.multiprocess.MultiprocessTransport` keeps a
small pool of these as reusable *slots*: a segment serves batch after
batch (its :class:`ShmLayout` is whatever the current batch needs, up to
the segment's size) and is unlinked only when the transport closes or
the slot is re-created larger.  :meth:`ShmBatch.pack` is the one-shot
form: a segment sized to one batch, operands copied in.

Ownership is strictly parent-side: workers never *create* segments, so a
``kill -9``'d worker can leak nothing the parent does not already hold a
handle to — :meth:`ShmBatch.destroy` (or transport close) reclaims every
segment.

Python's ``resource_tracker`` complicates the attach side: before 3.13,
attaching to an existing segment also *registers* it with the resource
tracker.  For unrelated processes that is the famous premature-unlink
bug, but our workers are ``multiprocessing`` children sharing the
parent's tracker process (fork inherits its pipe, spawn is handed it),
and the tracker's registry is a *set*: the child's attach-register is a
no-op re-add of the parent's own registration.  The widely circulated
"unregister after attach" workaround would here remove the parent's
registration out from under it (the parent's unlink then logs a tracker
``KeyError``), so :func:`attach` deliberately leaves the registration
alone — segment lifetime stays a parent-side concern throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Optional, Tuple

import numpy as np

__all__ = ["ShmBatch", "ShmLayout", "attach"]

_FLOAT = np.float64


def attach(name: str) -> shared_memory.SharedMemory:
    """Map an existing segment from a worker child (see module docstring)."""
    return shared_memory.SharedMemory(name=name)


@dataclass(frozen=True)
class ShmLayout:
    """Shape metadata shipped alongside a segment name (picklable, tiny)."""

    shape: Tuple[int, int, int]  # (b, n, hidden) of each region

    @property
    def region_items(self) -> int:
        b, n, h = self.shape
        return b * n * h

    @property
    def region_bytes(self) -> int:
        return self.region_items * np.dtype(_FLOAT).itemsize

    @property
    def total_bytes(self) -> int:
        return 3 * self.region_bytes  # q | k | v; the output overwrites q

    def region(self, buf: memoryview, index: int) -> np.ndarray:
        """The ``index``-th region of ``buf`` as a (b, n, hidden) view."""
        start = index * self.region_bytes
        return np.ndarray(
            self.shape, dtype=_FLOAT, buffer=buf, offset=start
        )


class ShmBatch:
    """Parent-side handle on one shared segment.

    Built by :meth:`create` (an empty segment, the transport's slot) or
    :meth:`pack`; the worker side maps the same segment via
    :meth:`views`.  ``layout`` is the shape of the batch the segment
    currently carries and may change between batches as long as it fits
    ``capacity``.  ``destroy()`` is idempotent and must eventually be
    called exactly once per segment.  Views handed out by
    :meth:`regions` / :meth:`views` dangle once the segment is closed:
    drop them first.
    """

    def __init__(self, shm: shared_memory.SharedMemory, layout: ShmLayout) -> None:
        self.shm: Optional[shared_memory.SharedMemory] = shm
        self.layout = layout

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, layout: ShmLayout) -> "ShmBatch":
        """Allocate a segment just large enough for ``layout``."""
        return cls(shared_memory.SharedMemory(create=True, size=layout.total_bytes), layout)

    @classmethod
    def pack(cls, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> "ShmBatch":
        """Allocate a segment and write the stacked operands into it."""
        block = cls.create(ShmLayout(shape=tuple(q.shape)))  # type: ignore[arg-type]
        for region, operand in zip(block.regions(), (q, k, v)):
            region[...] = operand
        return block

    @staticmethod
    def views(
        shm: shared_memory.SharedMemory, layout: ShmLayout
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(q, k, v, out) views over a mapped segment — worker side.

        ``out`` *is* the ``q`` view: write it only after the last read
        of ``q``.
        """
        buf = shm.buf
        q = layout.region(buf, 0)
        return q, layout.region(buf, 1), layout.region(buf, 2), q

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._live().name

    @property
    def capacity(self) -> int:
        """Segment size in bytes: the largest ``layout.total_bytes`` it holds."""
        return self._live().size

    def regions(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(q, k, v) views at the current ``layout`` — parent side."""
        return self.views(self._live(), self.layout)[:3]

    def read_output(self) -> np.ndarray:
        """Copy the worker-written output (the ``q`` region) out.

        A copy on purpose: the caller's result must outlive the next
        batch through this segment and :meth:`destroy`, and a view over
        reused or unlinked shared memory would not.
        """
        return np.array(self.layout.region(self._live().buf, 0))

    def destroy(self) -> None:
        """Close and unlink the segment (idempotent)."""
        if self.shm is None:
            return
        try:
            self.shm.close()
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        self.shm = None

    def _live(self) -> shared_memory.SharedMemory:
        if self.shm is None:
            raise ValueError("segment already destroyed")
        return self.shm
