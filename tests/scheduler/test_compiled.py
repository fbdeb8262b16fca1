"""Bulk plan derivation: pinned to the per-pass reference walks.

``DataScheduler.schedule`` emits its tiling as a product and derives
one :class:`~repro.scheduler.compiled.PassIndex` from it, zero-work
filter included; ``compile_plan`` builds its index tensors, its
distinct-key aggregate and the global-row schedule from that same
index.  These tests pin all of it against the straightforward per-pass
derivations (the per-cell ``TilePass`` tiling below,
``TilePass.query_ids`` / ``key_ids`` / ``valid_cell_count``, the
oracle index ``_pass_oracle.pass_index`` over a materialised list and
the sequential seen-set walk in ``ExecutionPlan.global_row_schedule``),
which stay in the tree as the reference implementations.
"""

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import HardwareConfig
from repro.patterns.base import Band
from repro.patterns.hybrid import HybridSparsePattern
from repro.patterns.library import longformer_pattern, star_transformer_pattern
from repro.accelerator.timing import plan_timing
from repro.scheduler.plan import BandSegment, ExecutionPlan, TilePass
from repro.scheduler.reorder import decompose_band
from repro.scheduler.scheduler import DataScheduler, SchedulerError
from repro.scheduler.splitting import chunk_band_job, pack_segments

from _pass_oracle import pass_index
from _scheduler_cases import DROP_CASES, PATTERN_CASES, _schedule, _scheduler


def _seg(lo, width, residue, dilation):
    return BandSegment(0, lo, width, residue, dilation)


def _unfiltered_passes(scheduler, pattern):
    """The full tiling as ``TilePass`` objects, zero-work passes included:
    one object per (query group, block, column group) cell, built the way
    the scheduler did before it emitted the product."""
    config, n = scheduler.config, pattern.n
    groups = {}
    for idx, band in enumerate(pattern.bands()):
        for job in decompose_band(idx, band, n):
            groups.setdefault((job.query_residue, job.dilation, job.group_size), []).append(job)
    passes = []
    for (residue, dilation, size), jobs in sorted(groups.items()):
        segments = [seg for job in jobs for seg in chunk_band_job(job, config.pe_cols)]
        colgroups = pack_segments(segments, config.pe_cols, config.pack_bands)
        for start in range(0, size, config.pe_rows):
            rows = tuple(range(start, min(start + config.pe_rows, size)))
            passes += [TilePass(residue, dilation, rows, cols) for cols in colgroups]
    return passes


def _assert_matches_per_pass_reference(plan, unfiltered):
    """Every bulk-derived fact of ``plan`` equals its per-pass walk."""
    n, gset = plan.n, plan.global_set
    assert plan.passes == [tp for tp in unfiltered if tp.valid_cell_count(n, gset) > 0]
    reference = ExecutionPlan(
        n, plan.heads, plan.head_dim, plan.config, plan.passes, plan.global_tokens
    )
    cp = plan.compiled()
    for i, tp in enumerate(plan.passes):
        ids = tp.key_ids(n, gset)
        assert np.array_equal(cp.q_ids[i, : tp.rows_used], tp.query_ids())
        assert np.array_equal(cp.key_ids[i, : ids.shape[0], : ids.shape[1]], ids)
        assert cp.valid[i].sum() == (ids >= 0).sum() == cp.valid_counts[i]
        assert cp.distinct_per_pass[i] == len(np.unique(ids[ids >= 0]))
    if plan.global_tokens:
        got, ref = plan.global_row_schedule(), reference.global_row_schedule()
        assert len(got) == len(ref)
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))
        assert plan.global_row_cleanup_batches == reference.global_row_cleanup_batches


class TestIndexTensorsMatchReference:
    @pytest.mark.parametrize("name,pattern", PATTERN_CASES, ids=[c[0] for c in PATTERN_CASES])
    def test_per_pass_tensors(self, name, pattern):
        plan = _schedule(pattern)
        cp = plan.compiled()
        n = plan.n
        gtok = np.asarray(plan.global_tokens, dtype=np.int64)
        for i, tp in enumerate(plan.passes):
            q = tp.query_ids()
            assert np.array_equal(cp.q_ids[i, : len(q)], q)
            assert (cp.q_ids[i, len(q):] == -1).all()
            assert cp.rows_used[i] == tp.rows_used
            assert cp.cols_used[i] == tp.cols_used
            ids = tp.key_ids(n)
            padded = np.full((cp.pad_rows, cp.pad_cols), -1, dtype=np.int64)
            padded[: ids.shape[0], : ids.shape[1]] = ids
            valid = padded >= 0
            if len(gtok):
                valid &= ~np.isin(padded, gtok)
            assert np.array_equal(cp.key_ids[i], np.where(valid, padded, -1))
            assert np.array_equal(cp.valid[i], valid)


class TestGlobalRowScheduleMatchesWalk:
    @pytest.mark.parametrize("name,pattern", PATTERN_CASES, ids=[c[0] for c in PATTERN_CASES])
    def test_vectorised_equals_reference(self, name, pattern):
        compiled_plan = _schedule(pattern)
        compiled_plan.compiled()  # pre-populates the memo (vectorised)
        reference_plan = _schedule(pattern)  # fresh: uses the Python walk
        got = compiled_plan.global_row_schedule()
        ref = reference_plan.global_row_schedule()
        assert len(got) == len(ref)
        for a, b in zip(ref, got):
            assert np.array_equal(a, b)
            assert b.dtype == np.int64
        assert (
            compiled_plan.global_row_cleanup_batches
            == reference_plan.global_row_cleanup_batches
        )

    def test_pure_global_plan_compiles_to_cleanup_batches(self):
        """Every pass filtered away: the keys stream in ``pe_cols`` chunks
        (the parent's membership-table schedule could not reshape zero passes)."""
        plan = _schedule(HybridSparsePattern(10, [Band(40, 44, 1)], (2,)))
        assert not plan.passes and plan.global_only_passes
        cp = plan.compiled()
        assert cp.key_ids.shape == (0, 1, 1)
        assert cp.global_batches.tolist() == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, -1, -1]]
        assert plan.global_row_cleanup_batches == 3

    def test_schedule_streams_every_key_exactly_once(self):
        """The global PE row sees each key in exactly one batch."""
        for pattern in (star_transformer_pattern(20), longformer_pattern(64, 8, (0,))):
            plan = _schedule(pattern)
            plan.compiled()
            streamed = np.concatenate(plan.global_row_schedule())
            assert np.array_equal(np.sort(streamed), np.arange(plan.n))


class TestZeroWorkFilterMatchesReference:
    @pytest.mark.parametrize("name,pattern", DROP_CASES, ids=[c[0] for c in DROP_CASES])
    def test_filter_equals_per_pass_valid_cell_count(self, name, pattern):
        unfiltered = _unfiltered_passes(_scheduler(), pattern)
        plan = _schedule(pattern)
        assert 0 < len(plan.passes) < len(unfiltered)  # the case really drops passes
        _assert_matches_per_pass_reference(plan, unfiltered)

    def test_filter_can_shrink_the_padded_shape(self):
        """Kept passes narrower than a dropped one: padding follows the kept."""
        pattern = HybridSparsePattern(6, [Band(0, 0, 1), Band(20, 22, 1)], ())
        config = HardwareConfig(pe_rows=4, pe_cols=2, pack_bands=False)
        plan = DataScheduler(config).schedule(pattern, heads=1, head_dim=8)
        assert max(tp.cols_used for tp in plan.passes) == 1
        cp = plan.compiled()
        assert (cp.pad_rows, cp.pad_cols) == (4, 1)
        assert cp.key_ids.shape == (len(plan.passes), 4, 1)

    @given(
        n=st.integers(4, 60),
        bands=st.lists(
            st.tuples(st.integers(1, 9), st.integers(1, 4), st.integers(1, 12)),
            min_size=1,
            max_size=3,
        ),
        start=st.integers(-70, 10),
        global_tokens=st.sets(st.integers(0, 59), max_size=3),
        rows=st.integers(1, 8),
        cols=st.integers(1, 8),
        pack=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_bands_globals_and_pe_shapes(
        self, n, bands, start, global_tokens, rows, cols, pack
    ):
        lo, built = start, []
        for width, dilation, gap in bands:
            built.append(Band(lo, lo + (width - 1) * dilation, dilation))
            lo = built[-1].hi + gap
        pattern = HybridSparsePattern(n, built, tuple(sorted(g for g in global_tokens if g < n)))
        scheduler = DataScheduler(
            HardwareConfig(pe_rows=rows, pe_cols=cols, pack_bands=pack),
            strict_global_bound=False,
        )
        unfiltered = _unfiltered_passes(scheduler, pattern)
        try:
            plan = scheduler.schedule(pattern, heads=1, head_dim=8)
        except SchedulerError:  # every band clipped away and no global token
            return
        _assert_matches_per_pass_reference(plan, unfiltered)


def _job_reference(plan, job):
    """``masked`` and ``validf`` of ``job`` rebuilt from ``TilePass.key_ids``."""
    n, gset = plan.n, plan.global_set
    valid = np.zeros((job.num_groups, job.num_blocks, job.rows, job.cols), dtype=bool)
    for flat, p in enumerate(job.pass_indices.tolist()):
        g, b = divmod(flat, job.num_blocks)
        tp = plan.passes[p]
        # A block cut to start at the plan's first query skips rows.
        skip = int(np.flatnonzero(tp.query_ids() == job.q_ids[g, b, 0])[0])
        rows = tp.key_ids(n, gset)[skip : skip + job.rows, : job.cols]
        valid[g, b, : len(rows)] = rows >= 0
    bad = np.flatnonzero(~valid.all(axis=(0, 2, 3)))
    m0, m1 = (int(bad[0]), int(bad[-1]) + 1) if bad.size else (0, 0)
    return (m0, m1), valid[None, :, m0:m1].astype(np.float64)


class TestClosedFormMatchesPerPassReference:
    """Compilation proves most passes whole by arithmetic and expands the
    rest; every fact it derives that way equals the per-pass walk."""

    @given(
        n=st.integers(1, 48),
        bands=st.lists(
            st.tuples(st.integers(1, 12), st.integers(1, 4), st.integers(1, 9)),
            min_size=1,
            max_size=3,
        ),
        start=st.integers(-60, 8),
        placed=st.sets(st.sampled_from(("first", "last", "mid"))),
        extra=st.sets(st.integers(0, 47), max_size=2),
        rows=st.integers(1, 6),
        cols=st.integers(1, 6),
        pack=st.booleans(),
        first=st.integers(0, 47),
    )
    # A step plan whose first block is cut past its only clipped row, in
    # a column group narrower than the array: that block is not masked.
    @example(
        n=16, bands=[(2, 1, 4), (4, 1, 1)], start=-5, placed=set(), extra=set(),
        rows=4, cols=4, pack=False, first=5,
    )  # fmt: skip
    @settings(max_examples=150, deadline=None)
    def test_aggregates_jobs_and_valid(
        self, n, bands, start, placed, extra, rows, cols, pack, first
    ):
        lo, built = start, []
        for width, dilation, gap in bands:
            built.append(Band(lo, lo + (width - 1) * dilation, dilation))
            lo = built[-1].hi + gap
        where = {"first": 0, "last": n - 1, "mid": n // 2}
        gtok = tuple(sorted({where[p] for p in placed} | {g for g in extra if g < n}))
        first = 0 if gtok else first % n  # a step pattern has no global token
        scheduler = DataScheduler(
            HardwareConfig(pe_rows=rows, pe_cols=cols, pack_bands=pack),
            strict_global_bound=False,
        )
        try:
            plan = scheduler.schedule(
                HybridSparsePattern(n, built, gtok, first), heads=1, head_dim=8
            )
        except SchedulerError:  # every band clipped away and no global token
            return
        cp, gset = plan.compiled(), plan.global_set
        valid = np.zeros((cp.num_passes, cp.pad_rows, cp.pad_cols), dtype=bool)
        keep = np.zeros((cp.num_passes, cp.pad_rows), dtype=bool)
        for i, tp in enumerate(plan.passes):
            ids = tp.key_ids(n, gset)
            valid[i, : ids.shape[0], : ids.shape[1]] = ids >= 0
            keep[i, : tp.rows_used] = [q not in gset for q in tp.query_ids().tolist()]
        assert np.array_equal(cp.valid_counts, valid.sum(axis=(1, 2)))
        assert np.array_equal(cp.row_has_work, valid.any(axis=2))
        assert np.array_equal(cp.keep, keep)
        assert cp.total_valid_cells == valid.sum()
        assert "valid" not in vars(cp)  # derived on first read, then kept
        assert np.array_equal(cp.valid, valid) and cp.valid is cp.valid
        for job in cp.window_jobs:
            masked, validf = _job_reference(plan, job)
            assert job.masked == masked
            assert validf.shape == job.validf.shape and np.array_equal(job.validf, validf)


def _assert_same_index(got, ref):
    for f in dataclasses.fields(got):
        a, b = getattr(got, f.name), getattr(ref, f.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


class TestProductMatchesMaterialisedOracle:
    """The scheduler's product against the per-cell tiling it replaced:
    its pass list is the full tiling filtered pass by pass (first-query
    cut, then ``valid_cell_count``), and its index, ``keep`` and
    window-job order equal :func:`pass_index` over that list."""

    @given(
        n=st.integers(1, 48),
        bands=st.lists(
            st.tuples(st.integers(1, 12), st.integers(1, 4), st.integers(1, 9)),
            min_size=1,
            max_size=3,
        ),
        start=st.integers(-60, 8),
        global_tokens=st.sets(st.integers(0, 47), max_size=3),
        first=st.integers(0, 47),
        rows=st.integers(1, 6),
        cols=st.integers(1, 6),
        pack=st.booleans(),
    )
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_index_keep_job_order_and_passes(
        self, n, bands, start, global_tokens, first, rows, cols, pack
    ):
        lo, built = start, []
        for width, dilation, gap in bands:
            built.append(Band(lo, lo + (width - 1) * dilation, dilation))
            lo = built[-1].hi + gap
        gtok = tuple(sorted(g for g in global_tokens if g < n))
        first = 0 if gtok else first % n  # a step pattern has no global token
        pattern = HybridSparsePattern(n, built, gtok, first)
        config = HardwareConfig(pe_rows=rows, pe_cols=cols, pack_bands=pack)
        scheduler = DataScheduler(config, strict_global_bound=False)
        expected = [
            tp
            for tp in _unfiltered_passes(scheduler, pattern)
            if tp.query_ids().max() >= first and tp.valid_cell_count(n, frozenset(gtok)) > 0
        ]
        try:
            plan = scheduler.schedule(pattern, heads=1, head_dim=8)
        except SchedulerError:  # every band clipped away and no global token
            assert not expected and not gtok
            return
        index = pass_index(expected, n, gtok)
        reference = ExecutionPlan(n, 1, 8, config, index, gtok, first_query=first)
        got, ref = plan.compiled(), reference.compiled()
        _assert_same_index(got.passes, ref.passes)
        assert np.array_equal(got.keep, ref.keep)
        assert [j.pass_indices.tolist() for j in got.window_jobs] == [
            j.pass_indices.tolist() for j in ref.window_jobs
        ]
        assert len(plan.passes) == len(expected) and "objects" not in vars(plan.passes)
        assert plan.passes == expected

    @pytest.mark.parametrize(
        "passes,match",
        [
            ([TilePass(0, 1, (0, 2), (_seg(-1, 3, 0, 1),))], "not consecutive"),
            ([TilePass(0, 1, (5, 0), (_seg(-1, 3, 0, 1),))], "not consecutive"),
            ([TilePass(0, 2, (0, 1), (_seg(-1, 3, 0, 2), _seg(0, 2, 1, 1)))], "mixes dilations"),
            (
                [
                    TilePass(0, 1, (0, 1), (_seg(-1, 1, 0, 1),)),
                    TilePass(0, 1, (0, 1), (_seg(0, 2, 0, 1),)),
                    TilePass(0, 1, (2, 3), (_seg(0, 2, 0, 1),)),
                    TilePass(0, 1, (2, 3), (_seg(-1, 1, 0, 1),)),
                ],
                "disagree on a column order",
            ),
        ],
        ids=["gap", "out-of-order", "two-dilations", "contradictory-orders"],
    )
    def test_the_oracle_refuses_an_irregular_list(self, passes, match):
        """The shared derivation assumes the scheduler's regularity; the
        oracle never indexes a list that breaks it."""
        with pytest.raises(AssertionError, match=match):
            pass_index(passes, 12, ())


class TestColdPathStructure:
    def test_schedule_and_compile_never_walk_passes(self, monkeypatch):
        """No ``TilePass`` is built, no per-pass ``key_ids`` call, no
        ``passes x n`` table: schedule -> ``compiled()`` -> its execution
        schedule -> ``plan_timing`` read the product's index only."""
        calls, built = [], []
        key_ids, init = TilePass.key_ids, TilePass.__init__
        monkeypatch.setattr(
            TilePass, "key_ids", lambda self, *a, **k: calls.append(1) or key_ids(self, *a, **k)
        )
        monkeypatch.setattr(
            TilePass, "__init__", lambda self, *a, **k: built.append(1) or init(self, *a, **k)
        )
        scheduler = DataScheduler(HardwareConfig())
        pattern = longformer_pattern(4096, 512, (0,))
        tracemalloc.start()
        try:
            plan = scheduler.schedule(pattern, heads=12, head_dim=64)
            cp = plan.compiled()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        cp.schedule
        plan_timing(plan)
        assert not calls and not built
        assert cp.passes is plan.passes and "objects" not in vars(plan.passes)
        assert cp.num_passes > 1000
        assert peak < 4 * cp.key_ids.nbytes

    def test_a_cold_compile_allocates_no_cell_tensor(self):
        """Schedule, compile and execution schedule of a cold plan peak
        below one ``(P, R, C)`` int64 tensor: only the passes the closed
        form cannot prove whole (sequence edges, blocks around the
        global key) are expanded to cells.  Expanding every pass peaked
        at 1.72x that bound."""
        scheduler = DataScheduler(HardwareConfig())
        pattern = longformer_pattern(4096, 512, (0,))
        gc.collect()
        tracemalloc.start()
        try:
            cp = scheduler.schedule(pattern, heads=2, head_dim=8).compiled()
            cp.schedule
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        cells = cp.num_passes * cp.pad_rows * cp.pad_cols * np.dtype(np.int64).itemsize
        assert peak < cells, f"peak {peak / 2**20:.1f} MB, one cell tensor {cells / 2**20:.1f} MB"
        assert "valid" not in vars(cp)

    def test_cold_chain_beats_the_per_pass_derivation_alone(self):
        """Everything a plan-cache miss derives before the engine runs —
        schedule, compile, window jobs, job chains — against the seed's
        derivation alone, on the same machine: the per-pass
        ``valid_cell_count`` filter, the ``query_ids``/``key_ids`` walk
        and the sequential global-row walk (the references this file
        compares against).  No absolute bound; the margin is about 6x,
        min of 3 on both sides."""
        import time

        scheduler = DataScheduler(HardwareConfig())

        def cold_chain():
            plan = scheduler.schedule(longformer_pattern(4096, 512, (0,)), heads=12, head_dim=64)
            compiled = plan.compiled()
            compiled.window_jobs
            compiled.job_chains
            return plan

        plan = cold_chain()
        num = len(plan.passes)
        pad_r = max(tp.rows_used for tp in plan.passes)
        pad_c = max(tp.cols_used for tp in plan.passes)
        exclude = frozenset(plan.global_tokens)

        def seed_walk():
            kept = [tp for tp in plan.passes if tp.valid_cell_count(plan.n, exclude) > 0]
            q_ids = np.full((num, pad_r), -1, dtype=np.int64)
            key_ids = np.full((num, pad_r, pad_c), -1, dtype=np.int64)
            for i, tp in enumerate(kept):
                q = tp.query_ids()
                ids = tp.key_ids(plan.n)
                q_ids[i, : len(q)] = q
                key_ids[i, : ids.shape[0], : ids.shape[1]] = ids
            plan._schedule = None  # drop the memo: run the reference walk
            plan.global_row_schedule()

        def best_of_3(fn):
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                fn()
                best = min(best, time.perf_counter() - t0)
            return best

        walk_s, chain_s = best_of_3(seed_walk), best_of_3(cold_chain)
        assert chain_s < walk_s, (
            f"cold plan chain ({chain_s * 1e3:.0f} ms) no longer beats the "
            f"seed's per-pass derivation ({walk_s * 1e3:.0f} ms)"
        )
