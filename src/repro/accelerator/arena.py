"""Process-wide scratch arena: one grow-only buffer per name.

SALO runs every pass of every layer through one fixed set of on-chip
buffers (Table 1); the data scheduler's job is to make any hybrid
pattern fit them.  The host engine's working memory follows the same
rule: every reusable buffer of the production path — operand slabs,
score rectangles, band and epilogue vectors, the running accumulator,
the weighted-sum and reciprocal temporaries — is a shaped view of one
flat byte buffer per *name*, sized by the largest request that name has
ever seen.  Memory is therefore bounded by (names) x (largest chunk),
whatever the number of cached plans, chunk shapes or engines, and a
never-seen structure whose shapes were already served runs on pages
that are already touched.

There is one instance, :data:`ARENA`, per process, and no way to size,
cap or replace it: a fresh ``Runtime``, an engine built directly and a
forked transport worker (which inherits a copy-on-write image of the
parent's arena) all land on it.  The process is the unit of isolation —
:attr:`ScratchArena.lock` is held for the whole of a production run, and
:class:`~repro.accelerator.functional.FunctionalEngine` refuses a second
concurrent run instead of corrupting the first.

Two rules keep sharing exact:

* names form a fixed finite set (a name never embeds a data-dependent
  size), so the arena cannot leak one buffer per shape ever seen;
* a view handed out by :meth:`ScratchArena.buf` holds whatever the last
  user of the name left there, so every consumer writes before it
  reads.  Buffers that rely on staying zero outside the positions their
  writers scatter into come from :meth:`ScratchArena.zbuf`, which refills
  them whenever that cannot be taken for granted.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Hashable, Tuple

import numpy as np

__all__ = ["ARENA", "ScratchArena"]


class ScratchArena:
    """Named grow-only byte buffers handed out as shaped views."""

    #: Memoized views beyond which the whole memo is dropped (the
    #: buffers stay): bounds the memo under endless distinct shapes.
    MAX_VIEWS = 4096

    def __init__(self) -> None:
        self._storage: Dict[Hashable, np.ndarray] = {}  # name -> flat uint8 buffer
        self._views: Dict[tuple, np.ndarray] = {}  # (name, shape, dtype) -> view
        self._zero_user: Dict[Hashable, np.ndarray] = {}  # name -> last zbuf view served
        #: Held by the engine for the whole of a run (non-reentrant).
        self.lock = threading.Lock()

    def buf(self, name: Hashable, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """A ``shape``/``dtype`` view of buffer ``name``; contents unspecified."""
        key = (name, shape, dtype)
        view = self._views.get(key)
        return self._new_view(key) if view is None else view

    def zbuf(self, name: Hashable, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """A view of buffer ``name`` for writers that keep it zero elsewhere.

        For buffers whose writers always touch the same positions (the
        scattered band of a score rectangle, a function of the shape
        alone), everything outside those positions stays exactly zero
        from one same-shape use to the next — across plans and engines
        too — so the per-use ``fill(0)`` is dropped.  It runs only when
        the name was last served at another shape or its buffer grew.
        """
        view = self.buf(name, shape, dtype)
        if self._zero_user.get(name) is not view:
            view.fill(0)
            self._zero_user[name] = view
        return view

    def _new_view(self, key: tuple) -> np.ndarray:
        name, shape, dtype = key
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        storage = self._storage.get(name)
        if storage is None or storage.nbytes < nbytes:
            storage = self._storage[name] = np.empty(nbytes, dtype=np.uint8)
            # Views of the outgrown buffer must never be served again
            # (growth is rare: a name's maximum only ever rises).  Every
            # later view of the name is a new object, so its next zbuf
            # user refills it.
            self._views = {k: v for k, v in self._views.items() if k[0] != name}
        elif len(self._views) >= self.MAX_VIEWS:
            self._views.clear()
        view = self._views[key] = np.ndarray(shape, dtype, buffer=storage)
        return view

    def storage(self, name: Hashable) -> np.ndarray:
        """The flat byte buffer behind ``name`` (``KeyError`` if never served)."""
        return self._storage[name]

    def sizes(self) -> Dict[Hashable, int]:
        """Bytes held per name: the largest request each has seen."""
        return {name: a.nbytes for name, a in self._storage.items()}


#: The process's arena (see the module docstring).
ARENA = ScratchArena()
