"""The process-wide scratch arena: exact under sharing, bounded, guarded.

Every reusable buffer of the production path is a view of
``repro.accelerator.arena.ARENA`` — one grow-only byte buffer per name,
shared by every plan, engine and ``Runtime`` of the process.  Pinned
here: interleaved calls over plans that use the same names at different
shapes stay bit-identical to the per-pass reference (the zero-invariant
buffers are the risk); the arena holds the per-name maxima and nothing
else; its name set does not grow with the structures served; a cold
attend of an already-served shape retains only the plan, what a plan
retains is a function of the plan alone, and a dropped plan is freed by
refcount (no plan <-> compiled cycle); concurrent runs are refused, not
corrupted; and ``CompiledPlan.key_ids``, no longer stored, still
derives the per-pass reference.
"""

import dataclasses
import functools
import gc
import threading
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.accelerator.functional as functional
import repro.scheduler.compiled as compiled
from repro import Runtime
from repro.accelerator.arena import ARENA, ScratchArena
from repro.accelerator.functional import EngineError, FunctionalEngine
from repro.core.config import HardwareConfig
from repro.patterns.base import Band
from repro.patterns.hybrid import HybridSparsePattern
from repro.patterns.library import longformer_pattern, vil_pattern
from repro.scheduler.scheduler import DataScheduler

from _scheduler_cases import DROP_CASES, PATTERN_CASES, _schedule

TINY = HardwareConfig(pe_rows=4, pe_cols=4)
HEADS, HEAD_DIM = 2, 4


def _plan(pattern, config=TINY):
    return DataScheduler(config, strict_global_bound=False).schedule(
        pattern, heads=HEADS, head_dim=HEAD_DIM
    )


@pytest.fixture
def fresh_arena():
    """An arena that has served nothing (the buffers are scratch: safe to drop)."""
    ARENA.__init__()
    yield ARENA
    ARENA.__init__()


# ----------------------------------------------------------------------
# (a) sharing is exact
# ----------------------------------------------------------------------
# One wide Longformer chain per plan (34 and 12 interior blocks on the
# same PE array), a packed multi-segment ViL plan and a dilated band with
# G > 1 families.  The chunk budget is shared by the lanes, so under a
# small one the batch sizes below chunk each plan differently and every
# name is served at many shapes (``wide_rect5``, ``chain_*``,
# ``("job_rect5", s)``).
SHARED_PLANS = [
    _plan(longformer_pattern(140, 12, (0,))),
    _plan(longformer_pattern(52, 12, (0,))),
    _plan(vil_pattern(9, 7, 5, (0,)), HardwareConfig(pe_rows=8, pe_cols=16)),
    _plan(HybridSparsePattern(30, [Band(-6, 6, 3)], (0,))),
]
SHARED_ENGINES = [FunctionalEngine(plan) for plan in SHARED_PLANS]
BATCHES = (1, 3, 8)
DILATED = 3  # index of the G > 1 plan


def _small_budget():
    """28 (lane, block) units of the Longformer plans (1248 B each): with
    2 heads, batches 1 / 3 / 8 run them 14 / 5 / 2 blocks a chunk."""
    return mock.patch.object(compiled, "CHUNK_BYTES", 28 * 1248)


@functools.lru_cache(maxsize=None)
def _operands(plan_i, batch, padded):
    """Deterministic ``(q, k, v, valid_lens)`` of one kind of call."""
    n = SHARED_PLANS[plan_i].n
    rng = np.random.default_rng(1000 * plan_i + batch)
    q, k, v = (rng.standard_normal((batch, n, HEADS * HEAD_DIM)) for _ in range(3))
    lens = rng.integers(n // 3, n + 1, size=batch) if padded else None
    return q, k, v, lens


@functools.lru_cache(maxsize=None)
def _reference(plan_i, batch, padded):
    q, k, v, lens = _operands(plan_i, batch, padded)
    return FunctionalEngine(SHARED_PLANS[plan_i], mode="legacy").run(q, k, v, valid_lens=lens)


def test_shared_plans_reuse_zero_invariant_names_at_other_shapes(monkeypatch):
    """The premise of the property below, observed rather than assumed."""
    shapes = {}
    zbuf = functional._zbuf

    def spy(name, shape, dtype=np.float64):
        shapes.setdefault(name, set()).add(shape)
        return zbuf(name, shape, dtype)

    monkeypatch.setattr(functional, "_zbuf", spy)
    with _small_budget():
        for i, engine in enumerate(SHARED_ENGINES):
            for batch in BATCHES:
                q, k, v, _ = _operands(i, batch, False)
                engine.run(q, k, v)
    # 34 blocks as 14+14+6, 5x6+4 and 2x17; 12 blocks whole, 5+5+2 and 2x6.
    assert {s[2] for s in shapes["wide_rect5"]} >= {14, 6, 5, 4, 2, 12}
    for name in ("wide_rect5", "chain_out", "chain_w", ("job_rect5", 0)):
        assert len(shapes[name]) > 2, name


@given(
    calls=st.lists(
        st.tuples(
            st.integers(0, len(SHARED_PLANS) - 1), st.sampled_from(BATCHES), st.booleans()
        ),
        min_size=2,
        max_size=10,
    )
)
@settings(max_examples=25, deadline=None)
def test_interleaved_calls_match_the_reference_call_by_call(calls):
    for plan_i, batch, padded in calls:
        q, k, v, lens = _operands(plan_i, batch, padded)
        with _small_budget():
            got = SHARED_ENGINES[plan_i].run(q, k, v, valid_lens=lens)
        ref = _reference(plan_i, batch, padded)
        assert np.array_equal(got.output, ref.output), (plan_i, batch, padded)
        assert np.array_equal(got.parts, ref.parts)
        assert got.merges == ref.merges


# ----------------------------------------------------------------------
# (b) grow-only, sized by the largest request, no stale views
# ----------------------------------------------------------------------
def test_views_of_a_grown_name_leave_the_old_buffer():
    arena = ScratchArena()
    small = arena.buf("x", (4, 8))
    assert arena.buf("x", (4, 8)) is small  # memoized
    old = arena.storage("x")
    large = arena.buf("x", (64, 8))
    assert arena.sizes() == {"x": 64 * 8 * 8}
    again = arena.buf("x", (4, 8))
    assert again is not small
    assert np.shares_memory(again, large) and not np.shares_memory(again, old)
    assert arena.buf("x", (2, 3), np.bool_).dtype == np.bool_
    assert arena.sizes() == {"x": 64 * 8 * 8}  # smaller requests never shrink it


def test_zero_invariant_views_are_refilled_only_when_they_must_be():
    arena = ScratchArena()
    a = arena.zbuf("z", (3, 5))
    assert not a.any()
    a[1, 2] = 7.0  # a writer's own position: same-shape users overwrite it
    assert arena.zbuf("z", (3, 5))[1, 2] == 7.0
    assert not arena.zbuf("z", (5, 3)).any()  # another shape: refilled
    assert not arena.zbuf("z", (3, 5)).any()  # and so is the way back
    arena.zbuf("z", (3, 5))[0, 0] = 1.0
    assert not arena.zbuf("z", (30, 5)).any()  # grown: fresh storage, filled
    assert not arena.zbuf("z", (3, 5)).any()


def test_view_memo_is_bounded(monkeypatch):
    arena = ScratchArena()
    monkeypatch.setattr(ScratchArena, "MAX_VIEWS", 8)
    arena.buf("x", (64,))
    for size in range(1, 40):
        arena.buf("x", (size,))[:] = size
    assert len(arena._views) <= 8
    assert arena.sizes() == {"x": 64 * 8}


def test_small_large_small_attends(fresh_arena):
    small, large = SHARED_ENGINES[1], SHARED_ENGINES[0]
    qs, ks, vs, _ = _operands(1, 3, False)
    ql, kl, vl, _ = _operands(0, 8, False)

    first = small.run(qs, ks, vs)
    only_small = ARENA.sizes()
    large.run(ql, kl, vl)
    grown = ARENA.sizes()
    assert all(grown[name] >= size for name, size in only_small.items())
    again = small.run(qs, ks, vs)
    assert np.array_equal(again.output, first.output)
    assert np.array_equal(again.output, _reference(1, 3, False).output)
    assert ARENA.sizes() == grown  # the small plan fits what the large one left

    ARENA.__init__()
    large.run(ql, kl, vl)
    only_large = ARENA.sizes()
    assert grown == {
        name: max(only_small.get(name, 0), only_large.get(name, 0))
        for name in only_small.keys() | only_large.keys()
    }


# ----------------------------------------------------------------------
# (c) names are a fixed finite set
# ----------------------------------------------------------------------
def test_arena_names_do_not_grow_with_structures_served(fresh_arena):
    config = HardwareConfig(pe_rows=8, pe_cols=8)
    rng = np.random.default_rng(7)
    names, batch_counts = None, set()
    for i, n in enumerate(range(96, 96 + 12 * 40, 40)):
        pattern = longformer_pattern(n, 24, (i, n // 2))
        plan = _plan(pattern, config)
        batch_counts.add(plan.compiled().global_batches.shape[0])
        q, k, v = (rng.standard_normal((n, HEADS * HEAD_DIM)) for _ in range(3))
        FunctionalEngine(plan).run(q, k, v)
        if names is None:
            names = set(ARENA.sizes())
        assert set(ARENA.sizes()) == names, n
    assert len(batch_counts) > 6  # the global row really ran at many batch counts


# ----------------------------------------------------------------------
# (d) a cold attend of an already-served shape retains only its plan
# ----------------------------------------------------------------------
def test_cold_attend_of_a_served_shape_retains_only_the_plan():
    n, window, heads, head_dim = 3072, 384, 2, 8
    rng = np.random.default_rng(11)
    q, k, v = (rng.standard_normal((n, heads * head_dim)) for _ in range(3))
    rt = Runtime()
    rt.attend(longformer_pattern(n, window, (1,)), q, k, v, heads=heads)
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        # cold_churn's trick: a new global-token index is a never-seen structure.
        rt.attend(longformer_pattern(n, window, (2,)), q, k, v, heads=heads)
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rt.cache_info()["misses"] == 2
    assert after - before <= 12 * 2**20, f"retained {(after - before) / 2**20:.1f} MB"

    cp = (
        DataScheduler(HardwareConfig())
        .schedule(longformer_pattern(n, window, (2,)), heads=heads, head_dim=head_dim)
        .compiled()
    )
    for f in dataclasses.fields(cp):
        value = getattr(cp, f.name)
        if isinstance(value, np.ndarray):
            assert value.nbytes <= cp.valid.nbytes, f.name
    assert "key_ids" not in {f.name for f in dataclasses.fields(cp)}


def _retained(value):
    """``(arrays, bytes)`` reachable from a schedule value (views at face value)."""
    if isinstance(value, np.ndarray):
        return 1, value.nbytes
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, (tuple, list)):
        parts = [_retained(item) for item in value]
        return sum(p[0] for p in parts), sum(p[1] for p in parts)
    return 0, 0


def test_what_a_plan_retains_does_not_depend_on_the_batch_sizes_served(monkeypatch):
    """Chunk boundaries follow the lane count, so nothing retained may be
    keyed by them.  Everything execution reads of a plan is one value,
    ``cp.schedule``, built before the first run: one plan attended at
    five batch sizes that all chunk differently, padded and not, holds
    the schedule it was built with — same object, same arrays — which is
    the schedule of a plan that never ran; the engine keeps no memo."""
    pattern, heads, head_dim = longformer_pattern(512, 64, (0,)), 2, 4
    batches = (1, 2, 3, 5, 8)
    rng = np.random.default_rng(13)

    def attended(sizes):
        plan = DataScheduler(HardwareConfig()).schedule(pattern, heads=heads, head_dim=head_dim)
        cp = plan.compiled()
        assert "schedule" not in vars(cp)  # lazy until an engine asks
        engine = FunctionalEngine(plan)
        schedule, state = cp.schedule, set(vars(cp))
        for batch in sizes:
            q, k, v = (rng.standard_normal((batch, pattern.n, heads * head_dim)) for _ in range(3))
            engine.run(q, k, v)
            engine.run(q, k, v, valid_lens=rng.integers(pattern.n // 3, pattern.n, size=batch))
        assert cp.schedule is schedule and set(vars(cp)) == state
        assert set(vars(engine)) == {"plan", "mode", "datapath", "module", "tiled"}
        return cp

    probe = attended(())
    job = max(probe.window_jobs, key=lambda j: j.num_blocks)
    monkeypatch.setattr(compiled, "CHUNK_BYTES", 24 * 31936)  # 24 units of this job
    assert len({probe.chunk_blocks(job, heads * batch) for batch in batches}) == len(batches)

    arrays, nbytes = _retained(probe.schedule)
    assert arrays > 0 and nbytes > 0
    assert _retained(attended(batches).schedule) == (arrays, nbytes)
    assert {f.name for f in dataclasses.fields(probe)} | {"schedule"} == set(vars(probe))


def test_a_dropped_plan_is_freed_by_refcount_alone():
    """No reference cycle: plan -> compiled -> schedule is a chain, so
    with the collector off a plan's compiled tensors and job arrays die
    with the last reference to the ``Runtime`` (or plan) that owned them."""
    n, heads, head_dim = 256, 2, 4
    rng = np.random.default_rng(5)
    q, k, v = (rng.standard_normal((n, heads * head_dim)) for _ in range(3))
    gc.collect()
    gc.disable()
    try:
        rt = Runtime()
        plan = rt.attend(longformer_pattern(n, 32, (3,)), q, k, v, heads=heads).raw.plan
        cp = plan.compiled()
        held = [weakref.ref(x) for x in (plan, cp, cp.valid, cp.window_jobs[0].q_ids)]
        del plan, cp
        assert all(ref() is not None for ref in held)  # the plan cache holds them
        del rt
        assert [ref() for ref in held] == [None] * 4

        plan = _plan(longformer_pattern(52, 12, (0,)))
        FunctionalEngine(plan).run(*_operands(1, 1, False)[:3])
        held = [weakref.ref(x) for x in (plan.compiled(), plan.compiled().job_chains[0].flat_q)]
        del plan
        assert [ref() for ref in held] == [None, None]
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# (e) key_ids is derived, and still the per-pass reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name,pattern", PATTERN_CASES + DROP_CASES, ids=[c[0] for c in PATTERN_CASES + DROP_CASES]
)
def test_key_ids_property_equals_the_per_pass_reference(name, pattern):
    plan = _schedule(pattern)
    cp = plan.compiled()
    key_ids = cp.key_ids
    assert key_ids.shape == cp.valid.shape and key_ids.dtype == np.int64
    assert key_ids is not cp.key_ids  # derived per call, not retained
    assert np.array_equal(key_ids >= 0, cp.valid)
    for i, tp in enumerate(plan.passes):
        ids = tp.key_ids(plan.n, plan.global_set)
        assert np.array_equal(key_ids[i, : ids.shape[0], : ids.shape[1]], ids)
        assert (key_ids[i, ids.shape[0] :] == -1).all()
        assert (key_ids[i, :, ids.shape[1] :] == -1).all()


# ----------------------------------------------------------------------
# the shared thing is guarded
# ----------------------------------------------------------------------
class TestOneRunAtATime:
    def _engine_and_data(self, plan_i=1):
        q, k, v, _ = _operands(plan_i, 1, False)
        return SHARED_ENGINES[plan_i], q[0], k[0], v[0]

    def test_a_run_from_inside_a_run_is_refused(self, monkeypatch):
        engine, q, k, v = self._engine_and_data()
        expected = engine.run(q, k, v).output
        run_chain = FunctionalEngine._run_chain_tiled
        errors = []

        def reentrant(self, *args, **kwargs):
            with pytest.raises(EngineError, match="arena") as info:
                SHARED_ENGINES[DILATED].run(*_operands(DILATED, 1, False)[:3])
            errors.append(info.value)
            return run_chain(self, *args, **kwargs)

        monkeypatch.setattr(FunctionalEngine, "_run_chain_tiled", reentrant)
        outer = engine.run(q, k, v)
        assert errors
        # The refused run touched nothing: the outer one is still exact.
        assert np.array_equal(outer.output, expected)

    def test_a_run_from_a_second_thread_is_refused(self, monkeypatch):
        engine, q, k, v = self._engine_and_data()
        run_chain = FunctionalEngine._run_chain_tiled
        outcomes = []

        def other_thread():
            try:
                outcomes.append(SHARED_ENGINES[DILATED].run(*_operands(DILATED, 1, False)[:3]))
            except EngineError as exc:
                outcomes.append(exc)

        def with_intruder(self, *args, **kwargs):
            if not outcomes:
                worker = threading.Thread(target=other_thread)
                worker.start()
                worker.join(timeout=30)
                assert not worker.is_alive()
            return run_chain(self, *args, **kwargs)

        monkeypatch.setattr(FunctionalEngine, "_run_chain_tiled", with_intruder)
        engine.run(q, k, v)
        assert len(outcomes) == 1
        assert isinstance(outcomes[0], EngineError) and "arena" in str(outcomes[0])

    def test_the_guard_is_released_when_a_run_raises(self, monkeypatch):
        engine, q, k, v = self._engine_and_data()

        def boom(self, *args, **kwargs):
            raise RuntimeError("stage failed")

        with monkeypatch.context() as m:
            m.setattr(FunctionalEngine, "_run_chain_tiled", boom)
            with pytest.raises(RuntimeError, match="stage failed"):
                engine.run(q, k, v)
        assert not ARENA.lock.locked()
        assert np.array_equal(engine.run(q, k, v).output, _reference(1, 1, False).output[0])
