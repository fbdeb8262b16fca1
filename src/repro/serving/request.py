"""Attention requests: the unit of work the serving layer queues.

An :class:`AttentionRequest` is one sequence's sparse-attention call —
pattern, Q/K/V operands and head layout — plus the arrival timestamp the
latency accounting is anchored to.  Its operands are arrays handed to
the constructor or, for synthetic traffic, an :class:`OperandDraw`: one
stream drives family and class; operands are keyed by (seed, request
id), and drawn and checked finite on first read of ``q``/``k``/``v``
(:meth:`AttentionRequest.drawn`), so a simulation on a cost-model clock
never draws them.  The serving layer batches requests that share an
execution plan (same pattern structure, head layout and hardware config)
into a single engine dispatch; see :mod:`repro.serving.batching`.
:class:`RequestResult` is one served request's outcome and
:class:`ServingStats` a session's aggregate.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Hashable, NamedTuple, Optional, Tuple

import numpy as np
from numpy.random import default_rng

from ..patterns.base import AttentionPattern

__all__ = ["AttentionRequest", "OperandDraw", "RequestResult", "ServingStats"]


_OPERANDS = ("q", "k", "v")


def _check_finite(request_id: Hashable, name: str, operand: np.ndarray) -> None:
    # The door: a NaN that reached an engine would poison every neighbour
    # sharing its batch.
    if not np.isfinite(operand).all():
        raise ValueError(f"request {request_id!r}: {name} holds non-finite values")


class OperandDraw(NamedTuple):
    """Q, K, V as the key they are drawn from plus their shape.

    The operands are ``default_rng(key)``'s three ``standard_normal(shape)``
    draws, q then k then v: a few dozen bytes where the arrays take
    ``24 * n * hidden``.  A synthetic request's key is ``(seed, request
    id)``, so drawing one request's operands touches no other stream.
    """

    key: Tuple[int, ...]
    shape: Tuple[int, int]

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The three draws, the same bytes every time."""
        rng = default_rng(self.key)
        return tuple(rng.standard_normal(self.shape) for _ in _OPERANDS)


@dataclass
class AttentionRequest:
    """One queued sparse-attention call.

    ``q``, ``k``, ``v`` have shape ``(n, hidden)`` with ``n`` equal to
    the pattern's sequence length and ``hidden >= 1`` divisible by ``heads``;
    all three must be finite (checked at construction).  A request built
    by :meth:`drawn` holds them as an :class:`OperandDraw` and produces
    the arrays on first read; ``n``, ``hidden`` and ``head_dim`` never
    need them.
    ``arrival_s`` is the submission timestamp (session clock) queueing
    delay is measured from.  ``deadline_s`` is a latency budget relative
    to arrival (the request meets its SLO when it completes by
    ``arrival_s + deadline_s``); ``slo_class`` labels the request for
    per-class latency accounting and deadline-aware batch policies.
    ``client_id`` optionally identifies the submitting tenant within its
    SLO class — per-client admission quotas (composite token-bucket
    keys) are keyed on ``(slo_class, client_id)``.
    """

    request_id: Hashable
    pattern: AttentionPattern
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    heads: int = 1
    arrival_s: float = 0.0
    deadline_s: Optional[float] = None
    slo_class: str = "default"
    client_id: Optional[Hashable] = None

    def __post_init__(self) -> None:
        self.q = np.asarray(self.q, dtype=np.float64)
        self.k = np.asarray(self.k, dtype=np.float64)
        self.v = np.asarray(self.v, dtype=np.float64)
        if self.q.ndim != 2:
            raise ValueError(f"request q must be (n, hidden), got shape {self.q.shape}")
        if self.k.shape != self.q.shape or self.v.shape != self.q.shape:
            raise ValueError("request q, k, v must share shape (n, hidden)")
        self._admit(self.q.shape)
        for name in _OPERANDS:
            _check_finite(self.request_id, name, getattr(self, name))

    @classmethod
    def drawn(cls, operands: OperandDraw, **rest) -> "AttentionRequest":
        """A request whose q, k, v are ``operands``, drawn on first read.

        ``rest`` are the dataclass fields other than q, k, v.  The doors
        run here from ``operands.shape``; the finiteness one runs when the
        arrays are drawn, before any reader sees them.  The arrays, once
        drawn, are kept.
        """
        unknown = rest.keys() - _DEFAULTS.keys() - {"request_id", "pattern"}
        if unknown:
            raise TypeError(f"drawn() takes no field(s) {sorted(unknown)}")
        self = cls.__new__(cls)
        # setattr, not `__dict__`: on CPython, touching `__dict__` takes an
        # instance off the fast path for attribute reads, and the simulator
        # reads request attributes tens of thousands of times per run.
        for name, value in {**_DEFAULTS, **rest}.items():
            setattr(self, name, value)
        self._draw = operands
        self._admit(operands.shape)
        return self

    def _admit(self, shape: Tuple[int, ...]) -> None:
        """The doors the operands' shape decides; sets ``n`` and ``hidden``."""
        n, hidden = shape
        if hidden < 1:
            raise ValueError(
                f"request {self.request_id!r}: operands have zero width, shape {shape}"
            )
        if n != self.pattern.n:
            raise ValueError(f"pattern is for n={self.pattern.n}, request data has n={n}")
        if self.heads < 1 or hidden % self.heads != 0:
            raise ValueError(f"hidden size {hidden} not divisible by heads {self.heads}")
        # `not (x > 0)` and isnan: a NaN deadline or arrival would corrupt
        # the scheduler's sorted urgency index
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise ValueError(f"deadline_s must be positive, got {self.deadline_s}")
        if math.isnan(self.arrival_s):
            raise ValueError(f"request {self.request_id!r}: arrival_s is NaN")
        self.n, self.hidden = n, hidden

    def operands(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(q, k, v)``, drawn now if the request still holds them undrawn."""
        return self.q, self.k, self.v

    @property
    def absolute_deadline_s(self) -> float:
        """Completion time the SLO requires (``inf`` without a deadline)."""
        if self.deadline_s is None:
            return float("inf")
        return self.arrival_s + self.deadline_s

    @property
    def head_dim(self) -> int:
        return self.hidden // self.heads


class _Operand:
    """``AttentionRequest.q`` (``k``, ``v``) at class level: reached only
    while the instance holds no array of that name (an instance value
    shadows a descriptor without ``__set__``), so only on a drawn
    request's first read.  It draws all three, checks them finite (the
    door naming the request id) and sets them on the instance.  Racing
    first reads each draw the same bytes.  A descriptor, not
    ``__getattr__``: a class with ``__getattr__`` loses CPython's
    specialised reads of every other attribute.
    """

    def __init__(self, name: str) -> None:
        self.name = name

    def __get__(self, request: Optional[AttentionRequest], owner=None):
        if request is None:
            return self
        arrays = request._draw.arrays()
        for name, array in zip(_OPERANDS, arrays):
            _check_finite(request.request_id, name, array)
        for name, array in zip(_OPERANDS, arrays):
            setattr(request, name, array)
        return getattr(request, self.name)


# Set after @dataclass, which would take class attributes for defaults.
AttentionRequest.q, AttentionRequest.k, AttentionRequest.v = map(_Operand, _OPERANDS)

_DEFAULTS = {f.name: f.default for f in fields(AttentionRequest) if f.default is not MISSING}


@dataclass
class RequestResult:
    """Per-request outcome and latency split recorded by the session."""

    request_id: Hashable
    output: np.ndarray  # (n, hidden)
    batch_size: int  # size of the batch this request executed in
    queue_s: float  # submit -> batch dispatch
    service_s: float  # batch dispatch -> outputs ready (shared by the batch)
    stats: object = field(default=None, repr=False)  # RunStats of the plan

    @property
    def latency_s(self) -> float:
        """End-to-end latency: queueing delay plus service time."""
        return self.queue_s + self.service_s


@dataclass
class ServingStats:
    """Aggregate queue/latency/throughput accounting of a session."""

    completed: int
    batches: int
    wall_s: float
    throughput_rps: float
    mean_batch_size: float
    queue_p50_ms: float
    latency_p50_ms: float
    latency_p90_ms: float
    latency_p99_ms: float
    plan_cache: dict
    rejected: int = 0  # turned away by the session's admission policy

    def to_dict(self) -> dict:
        """JSON-ready view (the ``serve --json`` payload core)."""
        return asdict(self)

    def render(self) -> str:
        lines = [
            f"requests completed   {self.completed} (rejected {self.rejected})",
            f"batches executed     {self.batches}",
            f"mean batch size      {self.mean_batch_size:.2f}",
            f"wall time            {self.wall_s * 1e3:.1f} ms",
            f"throughput           {self.throughput_rps:.1f} req/s",
            f"queue p50            {self.queue_p50_ms:.2f} ms",
            f"latency p50/p90/p99  {self.latency_p50_ms:.2f} / "
            f"{self.latency_p90_ms:.2f} / {self.latency_p99_ms:.2f} ms",
            f"plan cache           {self.plan_cache['hits']} hits / "
            f"{self.plan_cache['misses']} misses "
            f"(hit rate {self.plan_cache['hit_rate']:.0%})",
        ]
        return "\n".join(lines)
