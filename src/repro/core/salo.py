"""Top-level SALO engine: schedule, simulate, account (Figure 3).

:class:`SALO` wires the framework together the way Figure 3 draws it: the
data scheduler turns pattern + hardware metadata into an execution plan;
the spatial accelerator executes it.  Two entry points:

* :meth:`SALO.attend` — run real data through the functional engine and
  return outputs plus full statistics (:meth:`SALO.attend_codes` is the
  same door for operands already quantised to codes, as a decode KV
  cache holds them);
* :meth:`SALO.estimate` — timing/energy/traffic only (no data), fast
  enough for the paper-scale workloads driving Figures 7a/7b.

Serving fast path
-----------------
Plans are structural: two calls with the same pattern geometry, hardware
config and head layout produce the same plan, the same compiled index
tensors and the same cost-model statistics.  :class:`SALO` therefore
keeps an LRU cache keyed by ``(pattern structure, config, heads,
head_dim)``; on a hit, :meth:`attend` skips scheduling, plan compilation,
buffer checking and the cost models entirely and goes straight to the
batched functional engine — the repeated-traffic scenario a deployed
simulator serves.  Each :class:`SALO` instance keeps its own cache,
engines and counters, but a miss first looks for the plan in a weak
process-wide table, so the instances of one process (a simulated
cluster's workers) schedule and price each structure once between
them; the config is part of every key, so different hardware configs
never share.
``plan_cache_size=0`` disables caching and the table; every cacheable
call then counts as a miss so hit-rate accounting stays meaningful.
``cache_info()`` exposes the counters.

Cross-request batching
----------------------
:meth:`attend` also accepts a leading batch axis ``(b, n, hidden)``: a
batch of independent same-pattern sequences executed by a single engine
dispatch (bit-identical to ``b`` separate calls).  The
:mod:`repro.serving` layer builds such batches from queued requests —
request → length bucket → batch → engine — and this is its entry point.

Engine backends
---------------
The execution engine behind :meth:`attend` is selected by name: the
default ``"functional"`` backend runs the compiled batched path,
``"functional-legacy"`` runs the per-pass reference path, and
``"systolic"`` runs the cycle-accurate micro-simulator (small
configurations only; no batch axis, no ``valid_lens``).  All three share
the scheduler, the plan cache and the cost models — only the executor
differs — and all three are bit-identical on their common domain.  The
:mod:`repro.api` registry builds on this axis and adds the non-SALO
baselines (dense, sparse-reference, Sanger) behind the same protocol.
"""

from __future__ import annotations

import math
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..accelerator.functional import FunctionalEngine, FunctionalResult
from ..patterns.base import AttentionPattern
from ..scheduler.plan import ExecutionPlan
from ..scheduler.scheduler import DataScheduler
from .config import HardwareConfig
from .stats import RunStats

__all__ = ["SALO", "AttentionResult", "pattern_structure_key", "ENGINE_BACKENDS"]


def _require_finite(**operands: np.ndarray) -> None:
    """Refuse operands holding NaN or ±inf, naming the first bad cell.

    One reduction per operand and no boolean temporary: a sum is finite
    whenever every term is and nothing overflows.  Only a non-finite sum
    pays for the cell search, which lets a finite operand whose sum
    overflowed pass after all.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sums = [np.add.reduce(x, axis=None) for x in operands.values()]
    for (name, x), total in zip(operands.items(), sums):
        if math.isfinite(total):
            continue
        bad = np.argwhere(~np.isfinite(x))
        if len(bad):
            cell = tuple(bad[0].tolist())
            axes = ("sequence", "row", "column")[-len(cell):]
            where = ", ".join(f"{axis} {i}" for axis, i in zip(axes, cell))
            raise ValueError(
                f"{name} holds {x[cell]} at {where}; attention operands must be finite"
            )


def _require_scale(scale: Optional[float]) -> None:
    """Refuse a score ``scale`` that is not a finite positive number."""
    if scale is not None and not (0.0 < float(scale) < math.inf):
        raise ValueError(f"scale must be a finite positive number, got {scale}")


def _require_count(name: str, value) -> int:
    """``value`` as ``int`` when it is a positive integer; refuse it otherwise.

    numpy integers are accepted; ``bool`` and integral floats are not, so
    no float reaches a plan-cache key or an array shape.
    """
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _make_functional(plan: ExecutionPlan) -> FunctionalEngine:
    return FunctionalEngine(plan)


def _make_legacy(plan: ExecutionPlan) -> FunctionalEngine:
    return FunctionalEngine(plan, mode="legacy")


def _make_systolic(plan: ExecutionPlan):
    from ..accelerator.systolic import SystolicEngine

    return SystolicEngine(plan)


#: Plan-executing engine backends a :class:`SALO` instance can run.
#: name -> (engine factory, supports_batch, supports_valid_lens, summary).
#: The :mod:`repro.api` registry registers one SALO-backed adapter per
#: row (capability flags and ``engines list`` summary included), so a
#: backend is described here and nowhere else.
ENGINE_BACKENDS = {
    "functional": (_make_functional, True, True, "compiled batched SALO engine (default)"),
    "functional-legacy": (_make_legacy, True, True, "per-pass SALO reference engine"),
    "systolic": (
        _make_systolic,
        False,
        False,
        "cycle-accurate micro-simulator (small configs, single sequence)",
    ),
}


def pattern_structure_key(pattern: AttentionPattern) -> Optional[Tuple]:
    """Structural identity of a pattern, or ``None`` when opaque.

    Two patterns with equal keys are guaranteed to schedule to the same
    execution plan (given equal hardware config and head layout).  Both
    the SALO plan cache and the serving layer's batch grouping derive
    their keys from this single definition, so they can never drift
    apart.  The key is ``(n, bands, global tokens, first query)``, derived
    once per pattern object (:meth:`AttentionPattern.structure_key`); a
    duck-typed pattern gets the same cache.
    """
    return AttentionPattern.structure_key(pattern)


@dataclass
class AttentionResult:
    """Output of :meth:`SALO.attend`.

    ``stats`` is structural (per single sequence of the plan); for a
    batched call the accelerator would run the plan once per sequence,
    so whole-batch latency scales the per-sequence timing by ``b``.
    """

    output: np.ndarray
    stats: RunStats
    plan: ExecutionPlan
    functional: FunctionalResult


#: Plan key + ``strict_global_bound`` -> the plan some live :class:`SALO`
#: of this process scheduled for it.  A plan is a pure function of that
#: key (its memoised compile and schedule are pure functions of the
#: plan), so every engine of the process can run one object.  Weak: it
#: keeps no plan alive, so an entry leaves with the last cache or caller
#: holding its plan and the table never outgrows what is in use.
_SHARED_PLANS: "weakref.WeakValueDictionary[Tuple, ExecutionPlan]" = weakref.WeakValueDictionary()


@dataclass
class _CacheEntry:
    """Everything reusable across identical ``attend``/``estimate`` calls.

    The engine is created lazily on the first ``attend`` so cost-model
    only paths (``schedule``/``estimate``) never build the execution
    schedule.  Statistics and the buffer fit are the plan's own
    (:meth:`ExecutionPlan.run_stats`, :meth:`ExecutionPlan.buffer_fit`).
    """

    plan: ExecutionPlan
    engine: Optional[object] = None  # FunctionalEngine or SystolicEngine


class SALO:
    """A SALO accelerator instance with its data scheduler.

    Parameters
    ----------
    config:
        Hardware configuration; defaults to the synthesised Table 1
        instance (32 x 32 PEs, one global row/column, 1 GHz, Q8.4 inputs).
    strict_global_bound:
        Enforce the Section 5.2 global-token bound during scheduling.
    plan_cache_size:
        Maximum number of compiled plans retained by the LRU serving
        cache; ``0`` disables caching.
    backend:
        Name of the plan-executing engine (see :data:`ENGINE_BACKENDS`):
        ``"functional"`` (compiled, batched — the default),
        ``"functional-legacy"`` (per-pass reference) or ``"systolic"``
        (cycle-accurate micro-simulator; single sequence only).
    """

    def __init__(
        self,
        config: Optional[HardwareConfig] = None,
        strict_global_bound: bool = True,
        plan_cache_size: int = 32,
        backend: str = "functional",
    ) -> None:
        if backend not in ENGINE_BACKENDS:
            raise ValueError(
                f"unknown engine backend {backend!r}; known: {sorted(ENGINE_BACKENDS)}"
            )
        self.config = config if config is not None else HardwareConfig()
        self.backend = backend
        self.scheduler = DataScheduler(self.config, strict_global_bound=strict_global_bound)
        self.plan_cache_size = plan_cache_size
        self._plan_cache: "OrderedDict[Tuple, _CacheEntry]" = OrderedDict()
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        # per padded-length accounting: n -> [hits, misses].  Decode
        # compiles per length bucket, so these counters are what proves
        # (or disproves) amortisation across a bucket's steps.
        self._bucket_counters: "OrderedDict[int, list]" = OrderedDict()

    #: SALO schedules band/global structure; mask-only patterns are
    #: unservable (the oracle backends of :mod:`repro.api` set False).
    needs_structure = True

    @property
    def supports_batch(self) -> bool:
        """Whether this instance's engine accepts a leading batch axis."""
        return ENGINE_BACKENDS[self.backend][1]

    @property
    def supports_valid_lens(self) -> bool:
        """Whether this instance's engine masks padded tails."""
        return ENGINE_BACKENDS[self.backend][2]

    # ------------------------------------------------------------------
    def _plan_key(
        self, pattern: AttentionPattern, heads: int, head_dim: int
    ) -> Optional[Tuple]:
        """Structural cache key, or ``None`` when the pattern is opaque.

        A plan depends only on the band/global structure of the pattern
        (:func:`pattern_structure_key`, ints and tuples of ints), the
        hardware config and the head layout, so the key captures exactly
        those.  The config is a frozen dataclass and participates in
        equality (its hash is cached), which makes entries from different
        configurations (or a replaced ``config``) unreachable rather than
        stale.  :data:`_SHARED_PLANS` adds ``strict_global_bound``, the
        one scheduler setting the key leaves out.
        """
        structure = pattern_structure_key(pattern)
        if structure is None:
            return None
        return structure + (self.config, heads, head_dim)

    def _lookup(
        self, pattern: AttentionPattern, heads: int, head_dim: int
    ) -> Tuple[Optional[Tuple], Optional[_CacheEntry]]:
        key = self._plan_key(pattern, heads, head_dim)
        if key is None:
            return key, None  # opaque pattern: uncacheable, not a miss
        if self.plan_cache_size <= 0:
            self.plan_cache_misses += 1
            self._count_bucket(pattern.n, hit=False)
            return key, None
        entry = self._plan_cache.get(key)
        if entry is not None:
            self._plan_cache.move_to_end(key)
            self.plan_cache_hits += 1
            self._count_bucket(pattern.n, hit=True)
            return key, entry
        self.plan_cache_misses += 1
        self._count_bucket(pattern.n, hit=False)
        return key, None

    def _count_bucket(self, n: int, hit: bool) -> None:
        counters = self._bucket_counters.get(n)
        if counters is None:
            counters = [0, 0]
            self._bucket_counters[n] = counters
        counters[0 if hit else 1] += 1

    def _store(self, key: Optional[Tuple], entry: _CacheEntry) -> None:
        if key is None or self.plan_cache_size <= 0:
            return
        self._plan_cache[key] = entry
        while len(self._plan_cache) > self.plan_cache_size:
            self._plan_cache.popitem(last=False)

    def _entry_for(
        self, pattern: AttentionPattern, heads: int, head_dim: int
    ) -> _CacheEntry:
        """Cached (plan, engine) for the pattern, compiling on a miss.

        A miss still counts as this instance's miss, but it takes the
        plan from :data:`_SHARED_PLANS` when another live instance of
        the process already scheduled that structure; only a miss there
        runs the scheduler.  The engine stays per instance; statistics
        are the plan's, so sharers share them.  With ``plan_cache_size
        <= 0`` or an opaque pattern the table is neither read nor
        written: every miss schedules.
        """
        key, entry = self._lookup(pattern, heads, head_dim)
        if entry is None:
            if key is None or self.plan_cache_size <= 0:
                plan = self.scheduler.schedule(pattern, heads=heads, head_dim=head_dim)
            else:
                shared = key + (self.scheduler.strict_global_bound,)
                plan = _SHARED_PLANS.get(shared)
                if plan is None:
                    plan = self.scheduler.schedule(pattern, heads=heads, head_dim=head_dim)
                    _SHARED_PLANS[shared] = plan
            entry = _CacheEntry(plan=plan)
            self._store(key, entry)
        return entry

    def clear_plan_cache(self) -> None:
        """Drop every cached plan (hit/miss counters are kept)."""
        self._plan_cache.clear()

    def cache_info(self) -> dict:
        """Serving-cache observability: size, capacity and hit statistics.

        ``buckets`` breaks hits/misses down by padded pattern length
        (the decode length bucket): a healthy decode run shows exactly
        one miss per (bucket, structure) and hits for every warm step.
        Only cacheable (structured) lookups are counted, mirroring the
        aggregate counters.
        """
        total = self.plan_cache_hits + self.plan_cache_misses
        return {
            "size": len(self._plan_cache),
            "capacity": self.plan_cache_size,
            "hits": self.plan_cache_hits,
            "misses": self.plan_cache_misses,
            "hit_rate": self.plan_cache_hits / total if total else 0.0,
            "buckets": {
                n: {"hits": h, "misses": m}
                for n, (h, m) in sorted(self._bucket_counters.items())
            },
        }

    # ------------------------------------------------------------------
    def schedule(
        self, pattern: AttentionPattern, heads: int = 1, head_dim: int = 64
    ) -> ExecutionPlan:
        """Run the data scheduler (through the plan cache)."""
        heads, head_dim = _require_count("heads", heads), _require_count("head_dim", head_dim)
        return self._entry_for(pattern, heads, head_dim).plan

    def estimate(
        self, pattern: AttentionPattern, heads: int = 1, head_dim: int = 64
    ) -> RunStats:
        """Schedule + performance model without executing data."""
        heads, head_dim = _require_count("heads", heads), _require_count("head_dim", head_dim)
        return self._entry_for(pattern, heads, head_dim).plan.run_stats()

    def attend(
        self,
        pattern: AttentionPattern,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        heads: int = 1,
        scale: Optional[float] = None,
        check_buffers: bool = True,
        valid_lens: Optional[np.ndarray] = None,
    ) -> AttentionResult:
        """Compute sparse attention on the accelerator model.

        ``q``, ``k``, ``v`` have shape ``(n, hidden)`` — or, for a batch
        of independent same-pattern sequences, ``(b, n, hidden)`` — with
        ``hidden`` divisible by ``heads``; the output concatenates
        per-head results as in Figure 1 and follows the input rank.
        Batched outputs are bit-identical to ``b`` single-sequence calls.
        Repeated calls with the same pattern structure hit the plan cache
        and skip scheduling, compilation, buffer checks and the cost
        models (see module docstring).

        ``valid_lens`` (one int per sequence) marks zero-padded tails for
        cross-length batches: keys beyond a sequence's valid length are
        masked out of its softmax and the caller slices outputs back to
        the true lengths (the serving layer's ``pad_to_bucket`` mode).
        ``stats`` always describe the plan at the padded length.

        Operands holding NaN or ±inf raise :class:`ValueError` naming
        the operand and its first non-finite cell, and so does a
        ``scale`` that is not a finite positive number or ``heads`` that
        is not a positive integer.
        """
        heads = _require_count("heads", heads)
        q = np.asarray(q, dtype=np.float64)
        k = np.asarray(k, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        if q.ndim not in (2, 3):
            raise ValueError(f"q must be (n, hidden) or (b, n, hidden), got shape {q.shape}")
        _require_finite(q=q, k=k, v=v)
        _require_scale(scale)
        n, hidden = q.shape[-2:]
        if hidden % heads != 0:
            raise ValueError(f"hidden size {hidden} not divisible by heads {heads}")
        head_dim = hidden // heads
        entry = self._engine_entry(pattern, heads, head_dim, check_buffers)
        functional = entry.engine.run(q, k, v, scale=scale, valid_lens=valid_lens)
        return self._result(entry, functional)

    def attend_codes(
        self,
        pattern: AttentionPattern,
        q: Sequence[np.ndarray],
        k: Sequence[np.ndarray],
        v: Sequence[np.ndarray],
        heads: int = 1,
        scale: Optional[float] = None,
        valid_lens: Optional[np.ndarray] = None,
    ) -> AttentionResult:
        """:meth:`attend` on operands already in the engine's input domain.

        ``q``, ``k``, ``v`` each hold ``b`` lane-major windows ``(heads,
        n, head_dim)`` of operand codes — what
        :meth:`~repro.accelerator.datapath.Datapath.input_codes_into`
        makes of float operands, float32 on a quantised datapath; the
        values themselves on an ``exact()`` one — as
        :class:`repro.decode.KVState` keeps them.  The output is
        ``(b, n, heads * head_dim)`` and bit-identical to :meth:`attend`
        on the float operands the codes came from: around the engine
        this is ``attend`` (plan lookup, buffer-fit check, stats), and
        the engine's :meth:`~repro.accelerator.functional.FunctionalEngine.run_codes`
        skips only the quantiser.  Codes are finite by construction, so
        nothing here re-checks them; the one finite check is where they
        were quantised (``KVState.extend`` for decode).  ``scale`` is
        checked as :meth:`attend` checks it, and so is ``heads``.
        """
        heads = _require_count("heads", heads)
        _require_scale(scale)
        if len(q) == 0 or np.ndim(q[0]) != 3:
            raise ValueError("q must hold (heads, n, head_dim) code windows, one per sequence")
        if np.shape(q[0])[0] != heads:
            raise ValueError(f"code windows hold {np.shape(q[0])[0]} heads, expected {heads}")
        entry = self._engine_entry(pattern, heads, np.shape(q[0])[2], True)
        if not hasattr(entry.engine, "run_codes"):
            raise ValueError(f"the {self.backend!r} engine backend takes no operand codes")
        functional = entry.engine.run_codes(q, k, v, scale=scale, valid_lens=valid_lens)
        return self._result(entry, functional)

    def _engine_entry(
        self, pattern: AttentionPattern, heads: int, head_dim: int, check_buffers: bool
    ) -> _CacheEntry:
        """The cached entry with its engine built, after the buffer-fit check."""
        entry = self._entry_for(pattern, heads, head_dim)
        plan = entry.plan
        if check_buffers and not plan.buffer_fit().fits:
            raise ValueError(
                "workload does not fit the on-chip buffers: "
                + "; ".join(plan.buffer_fit().violations)
            )
        if entry.engine is None:
            entry.engine = ENGINE_BACKENDS[self.backend][0](plan)
        return entry

    def _result(self, entry: _CacheEntry, functional: FunctionalResult) -> AttentionResult:
        return AttentionResult(
            output=functional.output,
            stats=entry.plan.run_stats(),
            plan=entry.plan,
            functional=functional,
        )
