"""Continuous batching across concurrent decode sequences.

A one-shot batch is closed, executed, and done; decode batches are
*continuous*: between steps, newly arrived sequences join the running
batch and finished ones retire mid-flight, so the lane axis is in
constant churn.  :class:`DecodeScheduler` folds every active sequence
into the engine's existing lane axis — one ``attend`` call per step per
structure group — exactly the padded-batch execution path the serving
layer already uses for one-shot traffic.

Each lane contributes only its **step window**
(:func:`~repro.decode.session.step_window`): the last rows of its
history, enough to decide the new token, as a zero-copy view of its KV
buffers.  A group executes at the widest step bucket among its lanes,
which for banded structures is the small tail bucket however long the
sequences have grown: a lane past the tail is windowed at its own
``start``, a lane still inside it is attended whole (``start = 0``,
zero-padded up to the group bucket), and per-lane ``valid_lens =
length - start`` masks whatever a window leaves unused — all-full once
every lane is past the tail, which is the engine's unmasked fast path.
A sequence's first step is windowed like any other: the scheduler
returns only new-token rows, so a long prompt costs its tail, not its
length.  Groups with an active global token attend whole histories at
the KV bucket of the longest lane (global keys sit outside any tail).
Each lane keeps one row, ``valid - 1``, so the group's step pattern
starts its queries at the power-of-two block holding the lowest kept
row (see :mod:`repro.decode.session`, "Step plans"): the data scheduler
runs no pass that holds only rows nobody keeps.

Grouping: lanes batch together when they share band structure, head
layout, hidden size, *and* active global-token set (the engine requires
every global key to lie inside every lane's valid prefix, so a lane
that has not yet grown past a global token steps in its own group until
it has).

Determinism: each sequence's token stream is generated by a per-request
RNG seeded from ``(seed, request_id)``, and lane outputs feed the next
token's rows.  For banded (global-free) patterns, per-step outputs are
bit-identical to running the same sequence alone in a
:class:`DecodeSession` — batch composition, join order, and retirement
timing are unobservable in the numbers.  Global-token patterns remain
deterministic run-to-run, but the global rows depend on the group
bucket (partial-softmax regrouping), so solo/batched identity holds
only when the bucket trajectories coincide.

The door: a :class:`DecodeRequest` with a non-finite prompt is refused
at construction, by ``request_id``, so it cannot fail an engine call
its batch-mates share.  A ``next_token`` source that hands back rows
the KV state refuses (non-finite, misshapen) fails only its own lane:
the lane is dropped, :attr:`DecodeScheduler.failed` records why under
its ``request_id``, and the rest of the step carries on.
"""

from __future__ import annotations

import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from ..core.config import HardwareConfig
from ..core.salo import SALO, pattern_structure_key
from ..patterns.base import AttentionPattern
from ..serving.batching import check_bucket_floor
from .session import KVState, _step_first_query, decode_pattern, step_window

__all__ = [
    "DecodeRequest",
    "DecodeScheduler",
    "DecodeStepReport",
    "DecodeRunResult",
    "default_next_token",
]

# next_token(attention_row, rng) -> (q_row, k_row, v_row)
TokenSource = Callable[[np.ndarray, np.random.Generator], Tuple[np.ndarray, np.ndarray, np.ndarray]]


def default_next_token(
    out_row: np.ndarray, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic token feedback: attention output + per-request noise.

    Mixing the attention row in means any numerical divergence between
    two executions of the same sequence compounds instead of hiding —
    the determinism property leans on this.
    """
    hidden = out_row.shape[0]
    noise = rng.standard_normal(3 * hidden)
    base = np.tanh(out_row)
    return (
        base + noise[:hidden],
        base + noise[hidden : 2 * hidden],
        base + noise[2 * hidden :],
    )


@dataclass
class DecodeRequest:
    """One sequence to decode: prompt plus an output-token budget."""

    request_id: str
    pattern: AttentionPattern
    prompt_q: np.ndarray
    prompt_k: np.ndarray
    prompt_v: np.ndarray
    max_new_tokens: int
    heads: int = 1
    seed: int = 0
    next_token: Optional[TokenSource] = None

    def __post_init__(self) -> None:
        if pattern_structure_key(self.pattern) is None:
            raise ValueError("decode requires a structured pattern")
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")
        self.prompt_q = np.asarray(self.prompt_q, dtype=float)
        self.prompt_k = np.asarray(self.prompt_k, dtype=float)
        self.prompt_v = np.asarray(self.prompt_v, dtype=float)
        if self.prompt_q.ndim != 2:
            raise ValueError("prompt must be (L, hidden)")
        for name in ("prompt_q", "prompt_k", "prompt_v"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(
                    f"request {self.request_id!r}: {name} holds non-finite values"
                )

    def rng(self) -> np.random.Generator:
        """Fresh per-request generator; independent of batch placement."""
        return np.random.default_rng(
            (self.seed & 0xFFFFFFFF, zlib.crc32(self.request_id.encode("utf-8")))
        )


class _Lane:
    """A sequence occupying one lane of the continuous batch."""

    def __init__(self, request: DecodeRequest, order: int, bucket_floor: int) -> None:
        self.request = request
        self.order = order
        self.state = KVState(request.prompt_q.shape[1], bucket_floor)
        self.state.extend(request.prompt_q, request.prompt_k, request.prompt_v)
        self.rng = request.rng()
        self.produced = 0
        self.outputs: List[np.ndarray] = []
        bands = tuple(request.pattern.bands() or ())
        self.bands = bands
        self.globals_ = tuple(request.pattern.global_tokens())

    @property
    def active_globals(self) -> Tuple[int, ...]:
        return tuple(g for g in self.globals_ if g < self.state.length)

    @property
    def done(self) -> bool:
        return self.produced >= self.request.max_new_tokens

    def group_key(self) -> Tuple:
        return (
            self.bands,
            self.active_globals,
            self.request.heads,
            self.state.hidden,
        )

    def feed(self, out_row: np.ndarray) -> bool:
        """Record one produced token; grow KV unless the budget is met.

        Returns True when the lane just finished.  Token rows the KV
        state refuses (non-finite, misshapen) raise ``ValueError`` with
        the lane untouched.
        """
        if self.produced + 1 < self.request.max_new_tokens:
            source = self.request.next_token or default_next_token
            self.state.append(*source(out_row, self.rng))
        self.outputs.append(out_row.copy())
        self.produced += 1
        return self.done


@dataclass
class DecodeStepReport:
    """What one scheduler step did."""

    admitted: int = 0
    retired: int = 0
    failed: int = 0  # lanes dropped this step (see DecodeScheduler.failed)
    dispatches: int = 0
    tokens: int = 0
    lanes: int = 0
    bucket: int = 0  # largest attended (step) bucket this step


@dataclass
class DecodeRunResult:
    """Outputs and counters from draining a scheduler."""

    outputs: Dict[str, np.ndarray]
    steps: int
    dispatches: int
    tokens: int
    peak_lanes: int
    lane_steps: int
    cache_info: Dict

    @property
    def mean_occupancy(self) -> float:
        return self.lane_steps / self.steps if self.steps else 0.0


class DecodeScheduler:
    """Continuous batching over a shared engine.

    ``submit`` queues sequences; each ``step`` first admits queued
    sequences into free lanes, then runs one decode step for every
    active lane (grouped into as few engine dispatches as structure
    allows), then retires lanes that hit their token budget — so a
    retirement frees a lane for the *next* step's admission, and the
    batch never drains just to refill.
    """

    def __init__(
        self,
        salo: Optional[SALO] = None,
        max_lanes: int = 8,
        bucket_floor: int = 16,
    ) -> None:
        if max_lanes < 1:
            raise ValueError("max_lanes must be >= 1")
        self.salo = salo if salo is not None else SALO(HardwareConfig())
        self.max_lanes = max_lanes
        self.bucket_floor = check_bucket_floor(bucket_floor)
        self._queue: Deque[DecodeRequest] = deque()
        self._active: List[_Lane] = []
        self._order = 0
        self._patterns: Dict[Tuple, AttentionPattern] = {}
        self.completed: Dict[str, np.ndarray] = {}
        self.failed: Dict[str, str] = {}  # request_id -> why its lane was dropped
        self.steps = 0
        self.dispatches = 0
        self.tokens = 0
        self.peak_lanes = 0
        self.lane_steps = 0

    @property
    def queued(self) -> int:
        return len(self._queue)

    @property
    def active(self) -> int:
        return len(self._active)

    def submit(self, request: DecodeRequest) -> None:
        self._queue.append(request)

    def _admit(self) -> int:
        admitted = 0
        while self._queue and len(self._active) < self.max_lanes:
            request = self._queue.popleft()
            self._active.append(_Lane(request, self._order, self.bucket_floor))
            self._order += 1
            admitted += 1
        return admitted

    def _pattern(self, bucket: int, bands: Tuple, active: Tuple[int, ...], first_query: int):
        key = (bucket, bands, active, first_query)
        pat = self._patterns.get(key)
        if pat is None:
            # active globals are already < every lane's length, so any
            # valid_len past the largest global reconstructs the same set
            pat = decode_pattern(bands, active, bucket, bucket, first_query)
            self._patterns[key] = pat
        return pat

    def step(self) -> DecodeStepReport:
        """Admit, run one token step for every active lane, retire."""
        report = DecodeStepReport()
        report.admitted = self._admit()
        if not self._active:
            return report
        self.steps += 1
        report.lanes = len(self._active)
        self.peak_lanes = max(self.peak_lanes, report.lanes)
        self.lane_steps += report.lanes

        groups: Dict[Tuple, List[_Lane]] = {}
        for lane in self._active:
            groups.setdefault(lane.group_key(), []).append(lane)

        finished: List[_Lane] = []
        for key in sorted(groups, key=repr):
            lanes = sorted(groups[key], key=lambda l: l.order)
            bands, active, heads, hidden = key
            # a lane still inside the tail gets start 0, so every lane's
            # window fits the widest one
            windows = [
                step_window(bands, active, lane.state.length, self.bucket_floor)
                for lane in lanes
            ]
            bucket = max(b for _, b in windows)
            qs, ks, vs, valid = [], [], [], []
            for lane, (start, _) in zip(lanes, windows):
                q, k, v = lane.state.window(start, bucket)
                qs.append(q)
                ks.append(k)
                vs.append(v)
                valid.append(lane.state.length - start)
            first = _step_first_query(active, bucket, min(valid), self.bucket_floor)
            pattern = self._pattern(bucket, bands, active, first)
            result = self.salo.attend(
                pattern,
                np.stack(qs),
                np.stack(ks),
                np.stack(vs),
                heads=heads,
                valid_lens=valid,
            )
            self.dispatches += 1
            report.dispatches += 1
            report.bucket = max(report.bucket, bucket)
            for i, lane in enumerate(lanes):
                try:
                    done = lane.feed(result.output[i, valid[i] - 1])
                except ValueError as err:
                    # a bad next_token fails its own lane, not the batch
                    self._active.remove(lane)
                    self.failed[lane.request.request_id] = str(err)
                    report.failed += 1
                    continue
                if done:
                    finished.append(lane)
                self.tokens += 1
                report.tokens += 1

        for lane in finished:
            self._active.remove(lane)
            self.completed[lane.request.request_id] = np.stack(lane.outputs)
            report.retired += 1
        return report

    def run(self) -> DecodeRunResult:
        """Drain queue and lanes; returns per-sequence step outputs."""
        while self._queue or self._active:
            self.step()
        return DecodeRunResult(
            outputs=dict(self.completed),
            steps=self.steps,
            dispatches=self.dispatches,
            tokens=self.tokens,
            peak_lanes=self.peak_lanes,
            lane_steps=self.lane_steps,
            cache_info=self.salo.cache_info(),
        )
