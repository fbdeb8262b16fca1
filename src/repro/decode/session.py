"""Per-sequence autoregressive decode state and stepping.

One-shot encoder attention hands the engine a finished sequence;
*decode* grows it one token per step and only ever needs the **newest
row** of the attention output.  SALO's data scheduler splits a band
into passes by *relative* offset, so that row's partial-softmax chain
(which keys land in which pass, and the Eq. 2 merge order) depends only
on the keys inside its own bands — not on where the row sits in the
sequence or how long the sequence is.  A step therefore attends the
**step window**: the last few rows of the history, at a small
power-of-two **step bucket** sized by how far back the bands reach.

Two buckets, two jobs
---------------------
* The **KV bucket** (:attr:`KVState.capacity`, powers of two via
  :func:`repro.serving.batching.length_bucket`) sizes *storage*: the
  Q/K/V buffers regrow at 16→32→64… and copy, amortised O(1) per token
  like a growable array.  Rows past ``length`` stay zero.
  ``prefill`` — which returns every row — attends the whole history at
  this bucket, the unwritten tail masked by ``valid_lens``.
* The **step bucket** (:func:`step_window`) sizes *compute*: with
  ``back`` the furthest a band looks behind a query and ``lcm`` the
  lcm of the band dilations, a step attends rows ``[start, length)``
  at bucket ``length_bucket(back + lcm)``, where ``start`` is a
  multiple of every dilation (dilated bands split rows by residue, so
  the newest row must keep its residue class) and leaves at least
  ``back`` rows behind the newest one.  The step bucket does not grow
  with the sequence: once a sequence is past it, every further step —
  at any length, across every KV-bucket crossing — is a plan-cache hit
  on one small plan.
  For now the step bucket is held at ``_MIN_STEP_ROWS`` rows or more —
  a temporary workaround for the benchmark harness, see that constant.

Step plans
----------
A step keeps one row of its window, ``valid - 1``; ``prefill`` keeps
them all and runs the full pattern.  A step pattern therefore starts
its queries late (:attr:`HybridSparsePattern.first_query`): at
``bucket - length_bucket(bucket - (valid - 1), 1)``, the start of the
smallest power-of-two block of rows (one row or more) at the bucket's
end that holds the kept row (the lowest kept row of a scheduler group).
The data scheduler leaves out every pass whose query block lies wholly
below that row — on a causal window of 64 at bucket 64 on a 32 x 32
array, 2 passes instead of 3 — and keeps the full plan's passes and
merge order for every row above it, so the kept row's bits do not move.
The engine computes no row below the first query either: the block
that straddles it starts at the first query (rows below it read 0.0),
so a steady-state step — a window ending at the bucket's last row,
first query ``bucket - 1`` — runs one row per lane where it ran 32
(the repo benchmark's ``decode_stream`` step p50: 2.01 -> 1.24 ms,
-38%, over 10 seed pairs on a 2-core host).  The cost model still
prices the full PE block the hardware spends.
The rounding bounds the plans: a bucket compiles at most
``log2(bucket)`` step plans besides the full one, and steady-state
steps all share the one-row plan.  Active global tokens attend every
row, so their steps start at row 0.

Two structures fall back to ``start = 0`` at the KV bucket (the only
thing a step did before the step window existed):

* a sequence still shorter than the step bucket — its whole history
  *is* the window;
* any sequence with an **active global token** — the global keys sit
  at fixed positions outside any tail, and the engine's global-row
  pass grouping depends on the padded length, so only the full-length
  attend reproduces them.

KV state lifecycle
------------------
:class:`KVState` owns the growing Q/K/V history.  ``append`` writes the
next row in place; ``window(start, rows)`` hands the engine a zero-copy
view of the buffers, so a warm decode step allocates nothing.  Only a
window that overruns the buffers (a dilation-aligned ``start`` near a
full buffer, or a short lane padded up to its group's bucket) copies,
with a zero tail — exactly the padding the engine masks out.

Numerical contract
------------------
Every step output is **bit-identical to row ``L-1`` of a from-scratch
full-length recompute**: a fresh engine handed the whole history in one
call (KV bucket, ``valid_lens=[L]``) — a different plan from the one
the step ran — produces byte-for-byte the row the step returned.
Masked cells contribute an exact ``0.0`` and the merge chain is
unchanged, so the window adds zero numerical drift.  For purely banded
patterns (sliding window, dilated, multi-band) the row is furthermore
bit-identical to an *exact-length* ``attend()`` with no padding at
all, and so is ``prefill``'s full output.  Global-token patterns keep
that exact-length identity on every non-global row; the global rows
themselves are equivalent only up to the engine's documented
partial-softmax regrouping (the global-row pass grouping depends on the
padded length, and the exp LUT makes regrouping observable).  The
parity suite pins all three tiers.

Global tokens must lie inside the valid prefix (the engine rejects a
global key it cannot read), so the session activates a global token
only once the sequence has grown past it — one extra structural compile
per activation, bounded by the number of global tokens.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.config import HardwareConfig
from ..core.salo import SALO, pattern_structure_key
from ..patterns.base import AttentionPattern, Band
from ..patterns.hybrid import HybridSparsePattern
from ..serving.batching import check_bucket_floor, length_bucket

__all__ = ["KVState", "DecodeSession", "decode_pattern", "step_window"]

# TEMPORARY harness workaround, not a numerical or hardware bound: a
# smaller step bucket is just as exact.  The frozen benchmark harness
# (benchmarks/e2e, decode_stream layer probes) sizes probe lanes from the
# step bucket it observes and cannot run below 64.  Delete this (and the
# ``max`` in ``step_window``) once the harness sizes its probe from the
# scheduler — ROADMAP item 5.
_MIN_STEP_ROWS = 64


def decode_pattern(
    bands: Tuple[Band, ...],
    global_tokens: Tuple[int, ...],
    bucket: int,
    valid_len: int,
    first_query: int = 0,
) -> HybridSparsePattern:
    """Bucket-length pattern for a sequence of ``valid_len`` tokens.

    Bands carry over unchanged (they are relative offsets); global
    tokens are filtered to the valid prefix — the engine requires every
    global key to be readable by every sequence in the call.  A step
    pattern starts its queries at ``first_query`` (see
    :func:`_step_first_query`): the engine computes no row below it, and
    those rows of the output read 0.0.
    """
    if valid_len > bucket:
        raise ValueError(f"valid_len {valid_len} exceeds bucket {bucket}")
    active = tuple(g for g in global_tokens if g < valid_len)
    return HybridSparsePattern(bucket, list(bands), active, first_query)


def _step_first_query(active_globals: Sequence[int], bucket: int, min_valid: int) -> int:
    """First query row of a step plan whose lanes keep rows ``valid - 1``.

    The wanted rows ``[min_valid - 1, bucket)`` are rounded up to a
    power-of-two block at the bucket's end, from one row up, so a bucket
    has at most ``log2(bucket)`` step plans besides the full one, and a
    window ending at the bucket's last row runs the one-row plan.  The
    engine computes no row below the first query.  Active global tokens
    attend every row: their plan starts at row 0.
    """
    if active_globals:
        return 0
    return bucket - length_bucket(bucket - (min_valid - 1), 1)


def step_window(
    bands: Sequence[Band],
    active_globals: Sequence[int],
    length: int,
    floor: int = 16,
) -> Tuple[int, int]:
    """``(start, bucket)``: the rows a decode step attends, and at what length.

    The newest row ``length - 1`` is decided by the keys inside its own
    bands, so attending rows ``[start, length)`` at ``bucket`` yields
    the same bits for it as attending ``[0, length)`` at the KV bucket
    provided ``start`` is a multiple of every band's dilation and at
    least ``back`` rows (the furthest a band reaches behind a query)
    stay in front of it.  The tail bucket is the power of two holding
    ``back + lcm`` rows (for now at least ``_MIN_STEP_ROWS``).  Active
    global tokens, or a sequence that still fits the tail bucket, get
    ``(0, length_bucket(length))`` — the whole history.
    """
    full = length_bucket(length, floor)
    if active_globals or not bands:
        return 0, full
    back = max(0, -min(band.lo for band in bands))
    lcm = math.lcm(*(band.dilation for band in bands))
    tail = length_bucket(max(back + lcm, _MIN_STEP_ROWS), floor)
    if tail >= full:
        return 0, full
    return -((tail - length) // lcm) * lcm, tail


class KVState:
    """Growing Q/K/V history with bucket-capacity buffers.

    Buffers hold ``capacity = length_bucket(length)`` rows; the tail
    past ``length`` is zero.  ``window`` is a zero-copy view of the
    internal buffers wherever it fits them, so a warm decode step
    allocates nothing.
    """

    def __init__(self, hidden: int, bucket_floor: int = 16) -> None:
        if hidden <= 0:
            raise ValueError("hidden must be positive")
        self.hidden = hidden
        self.bucket_floor = check_bucket_floor(bucket_floor)
        self._len = 0
        self._cap = 0
        self._q = np.zeros((0, hidden))
        self._k = np.zeros((0, hidden))
        self._v = np.zeros((0, hidden))
        self.grows = 0

    @property
    def length(self) -> int:
        return self._len

    @property
    def capacity(self) -> int:
        """KV bucket: rows of storage held."""
        return self._cap

    def _ensure(self, new_len: int) -> bool:
        cap = length_bucket(new_len, self.bucket_floor)
        if cap <= self._cap:
            return False
        for name in ("_q", "_k", "_v"):
            old = getattr(self, name)
            buf = np.zeros((cap, self.hidden))
            buf[: self._len] = old[: self._len]
            setattr(self, name, buf)
        self._cap = cap
        self.grows += 1
        return True

    def extend(self, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> bool:
        """Append a block of rows (the prompt); returns True on regrow."""
        q = np.asarray(q, dtype=float)
        k = np.asarray(k, dtype=float)
        v = np.asarray(v, dtype=float)
        if q.ndim != 2 or q.shape[1] != self.hidden:
            raise ValueError(f"expected (m, {self.hidden}) rows, got {q.shape}")
        if q.shape != k.shape or q.shape != v.shape:
            raise ValueError("q/k/v row blocks must share a shape")
        m = q.shape[0]
        if m == 0:
            raise ValueError("cannot extend with zero rows")
        if not (np.isfinite(q).all() and np.isfinite(k).all() and np.isfinite(v).all()):
            raise ValueError("q/k/v rows must be finite (found NaN or inf)")
        grew = self._ensure(self._len + m)
        lo = self._len
        self._q[lo : lo + m] = q
        self._k[lo : lo + m] = k
        self._v[lo : lo + m] = v
        self._len += m
        return grew

    def append(self, q_row: np.ndarray, k_row: np.ndarray, v_row: np.ndarray) -> bool:
        """Append one token; returns True when a bucket was crossed."""
        return self.extend(
            np.asarray(q_row, dtype=float).reshape(1, -1),
            np.asarray(k_row, dtype=float).reshape(1, -1),
            np.asarray(v_row, dtype=float).reshape(1, -1),
        )

    def window(
        self, start: int, rows: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows ``[start, start + rows)``, zero past ``length``.

        A view of the buffers (no copy) while the window fits the
        capacity; a window overrunning it is copied out with a zero
        tail.  The window must reach the newest row.
        """
        stop = start + rows
        if start < 0 or stop < self._len:
            raise ValueError(
                f"window [{start}, {stop}) does not cover rows up to {self._len}"
            )
        if stop <= self._cap:
            return self._q[start:stop], self._k[start:stop], self._v[start:stop]
        out = tuple(np.zeros((rows, self.hidden)) for _ in range(3))
        for padded, buf in zip(out, (self._q, self._k, self._v)):
            padded[: self._len - start] = buf[start : self._len]
        return out

    def history(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Views of the live rows (no padding, no copy)."""
        return (
            self._q[: self._len],
            self._k[: self._len],
            self._v[: self._len],
        )


class DecodeSession:
    """One autoregressive sequence against a shared :class:`SALO` engine.

    ``prefill`` ingests the prompt and returns the full attention
    output (its last row seeds the first generated token);  ``step``
    appends one token and returns that token's attention row.  All
    calls go through the shared engine's plan cache, so many sessions
    on one engine amortise each bucket's compile across every sequence
    and every step that touches it.

    The ``pattern`` argument defines the *structure family*: its bands
    and its **complete** global-token set.  Pass the full-length family
    pattern — a short instance whose constructor already dropped
    out-of-range globals would silently truncate the family, because
    the session takes the global set exactly as given and activates
    each global once the sequence grows past it.
    """

    def __init__(
        self,
        pattern: AttentionPattern,
        salo: Optional[SALO] = None,
        heads: int = 1,
        bucket_floor: int = 16,
        scale: Optional[float] = None,
    ) -> None:
        if pattern_structure_key(pattern) is None:
            raise ValueError(
                "decode requires a structured pattern (bands + globals); "
                f"{type(pattern).__name__} is opaque"
            )
        self.salo = salo if salo is not None else SALO(HardwareConfig())
        self.heads = heads
        self.bucket_floor = check_bucket_floor(bucket_floor)
        self.scale = scale
        self._bands = tuple(pattern.bands() or ())
        self._globals = tuple(pattern.global_tokens())
        self._patterns: Dict[Tuple[int, Tuple[int, ...], int], HybridSparsePattern] = {}
        self._state: Optional[KVState] = None
        self.steps = 0
        self.bucket_crossings = 0

    @property
    def length(self) -> int:
        return self._state.length if self._state is not None else 0

    @property
    def bucket(self) -> int:
        """KV bucket: rows of storage held (0 before prefill)."""
        return self._state.capacity if self._state is not None else 0

    @property
    def state(self) -> KVState:
        if self._state is None:
            raise RuntimeError("prefill() first")
        return self._state

    def bucket_pattern(self) -> HybridSparsePattern:
        """The whole-history pattern at the KV bucket (what ``prefill`` runs)."""
        return self._pattern_for(self.state.capacity, self._active_globals())

    def _active_globals(self) -> Tuple[int, ...]:
        return tuple(g for g in self._globals if g < self.state.length)

    def _pattern_for(
        self, bucket: int, active: Tuple[int, ...], first_query: int = 0
    ) -> HybridSparsePattern:
        key = (bucket, active, first_query)
        pat = self._patterns.get(key)
        if pat is None:
            pat = decode_pattern(self._bands, active, bucket, bucket, first_query)
            self._patterns[key] = pat
        return pat

    def _attend(
        self, start: int, bucket: int, active: Tuple[int, ...], first_query: int = 0
    ) -> np.ndarray:
        """Output rows for history rows ``[start, length)`` at ``bucket``;
        rows of the window below ``first_query`` are unspecified."""
        state = self.state
        valid = state.length - start
        q, k, v = state.window(start, bucket)
        result = self.salo.attend(
            self._pattern_for(bucket, active, first_query),
            q[None],
            k[None],
            v[None],
            heads=self.heads,
            scale=self.scale,
            valid_lens=[valid],
        )
        return result.output[0, :valid]

    def prefill(self, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Ingest the prompt; returns the full (L, hidden) output."""
        if self._state is not None:
            raise RuntimeError("prefill() may only be called once")
        q = np.asarray(q, dtype=float)
        if q.ndim != 2:
            raise ValueError("prompt must be (L, hidden)")
        self._state = KVState(q.shape[1], self.bucket_floor)
        self._state.extend(q, k, v)
        self.steps += 1
        return self._attend(
            0, self._state.capacity, self._active_globals()
        ).copy()

    def step(
        self, q_row: np.ndarray, k_row: np.ndarray, v_row: np.ndarray
    ) -> np.ndarray:
        """Append one token; returns its (hidden,) attention output."""
        crossed = self.state.append(q_row, k_row, v_row)
        if crossed:
            self.bucket_crossings += 1
        self.steps += 1
        active = self._active_globals()
        start, bucket = step_window(
            self._bands, active, self.state.length, self.bucket_floor
        )
        valid = self.state.length - start
        first = _step_first_query(active, bucket, valid)
        return self._attend(start, bucket, active, first)[-1].copy()
