"""Window-job and job-chain structure: what the engine's schedule must keep.

``_build_window_jobs`` regroups the pass stream into jobs and cuts every
query group's blocks into an interior (all column groups live) and two
edges so that the interior jobs fold into one :class:`JobChain`.  Any
such regrouping is legal exactly when no query sees its passes in a
different order than the pass stream delivers them — the weighted-sum
merge chain per query is the bit-identity contract — so that invariant
is drawn as a property here (over every plan the scheduler can emit:
a column group with a dropped block inside is cut at the gap, never
refused), next to the partition law, the Table-2 chain shapes the
production path is built around, the degenerate splits, the gap cut
and the contiguity facts (``start`` / ``q_start`` / ``wide_start``) that
let engines slice where they used to gather.  The schedule is built from
the scheduler's tiling; :class:`TestTilingBuilderMatchesPassListOracle`
holds every field of it equal to the builder that re-derived it from
the flattened pass list (``tests/_schedule_oracle.py``).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import HardwareConfig
from repro.patterns.base import Band
from repro.patterns.hybrid import HybridSparsePattern
from repro.patterns.library import (
    longformer_pattern,
    sparse_transformer_pattern,
    star_transformer_pattern,
    vil_pattern,
)
from _schedule_oracle import _even_runs, build_schedule
from _scheduler_cases import MAX_N, structured_patterns
from repro.scheduler.compiled import _clipped_arange_start, _wide_stream
from repro.scheduler.scheduler import DataScheduler, SchedulerError

PATTERN_CASES = [
    ("window", longformer_pattern(64, 8, (0,))),
    ("window-wide", longformer_pattern(96, 40, (0,))),
    ("window-not-a-block-multiple", longformer_pattern(61, 24, ())),
    ("dilated", HybridSparsePattern(60, [Band(-6, 6, 3)], (0, 3))),
    ("mixed-dilations", HybridSparsePattern(40, [Band(-4, 4, 1), Band(6, 18, 6)], (0, 3))),
    ("twod-vil", vil_pattern(6, 7, 3, (0, 1))),
    ("star", star_transformer_pattern(20)),
    ("sparse-transformer", sparse_transformer_pattern(24, block=4)),
]


def _compiled(pattern, rows=4, cols=4, pack=True):
    config = HardwareConfig(pe_rows=rows, pe_cols=cols, pack_bands=pack)
    plan = DataScheduler(config, strict_global_bound=False).schedule(
        pattern, heads=1, head_dim=8
    )
    return plan.compiled()


def _assert_partition(cp):
    """(a) every pass belongs to exactly one job."""
    indices = [int(i) for job in cp.window_jobs for i in job.pass_indices]
    assert sorted(indices) == list(range(cp.num_passes))


def _assert_merge_order(cp):
    """(b) walking the jobs in order, each query's passes strictly ascend.

    Pass order *is* the reference merge order, so ascending pass indices
    per query mean the job schedule replays every query's weighted-sum
    chain exactly; within one job a query sits in at most one pass.
    """
    last = np.full(cp.n, -1, dtype=np.int64)
    for job in cp.window_jobs:
        q = cp.q_ids[job.pass_indices]
        real = q >= 0
        queries = q[real]
        passes = np.broadcast_to(job.pass_indices[:, None], q.shape)[real]
        assert len(np.unique(queries)) == len(queries)
        assert (passes > last[queries]).all()
        last[queries] = passes


def _assert_chains_cover_jobs(cp):
    chained = [ji for chain in cp.job_chains for ji in chain.jobs]
    assert chained == list(range(len(cp.window_jobs)))


class TestScheduleInvariants:
    @pytest.mark.parametrize("name,pattern", PATTERN_CASES, ids=[c[0] for c in PATTERN_CASES])
    def test_partition_order_and_chain_cover(self, name, pattern):
        cp = _compiled(pattern)
        _assert_partition(cp)
        _assert_merge_order(cp)
        _assert_chains_cover_jobs(cp)

    @given(
        n=st.integers(4, 90),
        bands=st.lists(
            st.tuples(st.integers(1, 14), st.integers(1, 4), st.integers(1, 12)),
            min_size=1,
            max_size=3,
        ),
        start=st.integers(-70, 10),
        global_tokens=st.sets(st.integers(0, 89), max_size=3),
        rows=st.integers(1, 8),
        cols=st.integers(1, 8),
        pack=st.booleans(),
    )
    @settings(max_examples=500, deadline=None)
    def test_random_bands_dilations_globals_and_pe_shapes(
        self, n, bands, start, global_tokens, rows, cols, pack
    ):
        """Every plan the scheduler emits has a job schedule — no escape:
        an exception anywhere in here fails the property."""
        lo, built = start, []
        for width, dilation, gap in bands:
            built.append(Band(lo, lo + (width - 1) * dilation, dilation))
            lo = built[-1].hi + gap
        pattern = HybridSparsePattern(n, built, tuple(sorted(g for g in global_tokens if g < n)))
        try:
            cp = _compiled(pattern, rows, cols, pack)
        except SchedulerError:  # every band clipped away and no global token
            return
        _assert_partition(cp)
        _assert_merge_order(cp)
        _assert_chains_cover_jobs(cp)


class TestTable2Chains:
    """(c) the paper's layers take the chained path for most of their passes."""

    @staticmethod
    def _biggest(pattern):
        plan = DataScheduler(HardwareConfig()).schedule(pattern, heads=1, head_dim=64)
        cp = plan.compiled()
        chain = max(cp.job_chains, key=lambda c: len(c.jobs))
        covered = sum(len(cp.window_jobs[ji].pass_indices) for ji in chain.jobs)
        return cp, chain, covered / cp.num_passes

    def test_longformer_4096_is_one_wide_16_job_chain(self):
        cp, chain, share = self._biggest(longformer_pattern(4096, 512, (0,)))
        assert len(chain.jobs) == 16
        assert [len(c.jobs) for c in cp.job_chains].count(16) == 1
        assert chain.wide_ids is not None and chain.wide_start is not None
        # Every cell kept over one query range: the chain runs on accumulator views.
        assert chain.keep_all and cp.window_jobs[chain.jobs[0]].q_start is not None
        assert share >= 0.90
        # Both 7-block edges chain their nine full-height column groups.
        assert sorted(len(c.jobs) for c in cp.job_chains)[-3:] == [9, 9, 16]
        assert all(c.wide_start is not None for c in cp.job_chains)

    @pytest.mark.parametrize("grid,floor", [(56, 0.80), (28, 0.60)])
    def test_vil_stages_are_one_8_job_chain(self, grid, floor):
        cp, chain, share = self._biggest(vil_pattern(grid, grid, 15))
        assert len(chain.jobs) == 8
        assert [len(c.jobs) for c in cp.job_chains].count(8) == 1
        assert share >= floor
        # Multi-segment jobs: no wide stream, every stream still a slice.
        assert chain.wide_ids is None
        for job in cp.window_jobs:
            assert job.q_start is not None
            assert all(seg.start is not None for seg in job.segments)


class TestDegenerateSplits:
    """(d) no interior, a one-block interior, fewer than two blocks."""

    def test_window_wider_than_n_stays_unsplit(self):
        # No block has every column group: one job per column group.
        cp = _compiled(HybridSparsePattern(24, [Band(-40, 39, 1)], (3,)))
        colgroups = {cp.passes[int(j.pass_indices[0])].segments for j in cp.window_jobs}
        assert len(colgroups) == len(cp.window_jobs)
        _assert_partition(cp)
        _assert_merge_order(cp)

    def test_exactly_one_interior_block(self):
        # n=12, rows 4: blocks 0/4/8; offsets -7..6 in four column groups
        # of 4 leave only the middle block with all of them live.
        cp = _compiled(HybridSparsePattern(12, [Band(-7, 6, 1)], ()))
        jobs = cp.window_jobs
        first_query = [int(j.q_ids[0, 0, 0]) for j in jobs]
        assert all(j.num_blocks == 1 for j in jobs)
        assert first_query == [4] * 4 + [0] * 3 + [8] * 3  # interior, leading, trailing
        assert [c.jobs for c in cp.job_chains] == [(0, 1, 2, 3), (4, 5, 6), (7, 8, 9)]
        _assert_partition(cp)
        _assert_merge_order(cp)

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_fewer_than_two_blocks(self, n):
        cp = _compiled(HybridSparsePattern(n, [Band(-5, 5, 1)], ()))
        assert all(job.num_blocks == 1 for job in cp.window_jobs)
        assert len(cp.job_chains) == 1  # one block: every column group shares it
        _assert_partition(cp)
        _assert_merge_order(cp)


def _column_groups(cp):
    """Pass indices per (query group, segment tuple), in pass order."""
    groups = {}
    for i, tp in enumerate(cp.passes):
        groups.setdefault((tp.query_residue, tp.dilation, tp.segments), []).append(i)
    return list(groups.values())


class TestGappedColumnGroups:
    """(d') a zero-work block dropped from the *middle* of a column group
    leaves a gap in its block grid; the builder cuts the group there."""

    GAPPED = [
        # q=1 only reaches itself, a global token: its pass is dropped.
        ("all-keys-global", HybridSparsePattern(4, [Band(0, 0, 1)], (1,)), 1, 1),
        # Two bands packed into one pass, in range at opposite ends only.
        ("packed-opposite-ends", HybridSparsePattern(13, [Band(-7, -7, 3), Band(-6, 12, 3)], ()), 1, 2),
    ]

    @pytest.mark.parametrize("name,pattern,rows,cols", GAPPED, ids=[c[0] for c in GAPPED])
    def test_gap_becomes_a_cut(self, name, pattern, rows, cols):
        cp = _compiled(pattern, rows, cols)
        gapped = 0
        for idxs in _column_groups(cp):
            steps = np.diff(cp.q_ids[idxs, 0])
            gapped += len(set(steps.tolist())) > 1
        assert gapped  # the premise: some column group is unevenly spaced
        _assert_partition(cp)
        _assert_merge_order(cp)
        _assert_chains_cover_jobs(cp)
        for job in cp.window_jobs:  # every job is evenly spaced again
            starts = cp.q_ids[job.pass_indices.reshape(job.num_groups, -1), 0]
            assert (np.diff(starts, n=2, axis=1) == 0).all()

    def test_even_runs_are_maximal_and_keep_order(self):
        q_ids = np.array([0, 4, 8, 16, 20, 21, 30])[:, None]  # first query per pass
        assert _even_runs([0, 1, 2, 3, 4, 5, 6], q_ids) == [[0, 1, 2], [3, 4], [5, 6]]
        assert _even_runs([0], q_ids) == [[0]]
        assert _even_runs([0, 3], q_ids) == [[0, 3]]


def _padded(x, head, tail):
    """Rows replicated past both ends, as ``FunctionalEngine._lane_slab`` pads."""
    return np.concatenate([np.repeat(x[:1], head, 0), x, np.repeat(x[-1:], tail, 0)])


class TestContiguityFacts:
    """(e) a recorded start means slab slice == clipped gather, bit for bit."""

    @pytest.mark.parametrize(
        "name,pattern",
        PATTERN_CASES + [("longformer-512", longformer_pattern(512, 160, (0,)))],
        ids=[c[0] for c in PATTERN_CASES] + ["longformer-512"],
    )
    def test_slices_equal_gathers(self, name, pattern):
        cp = _compiled(pattern, rows=8, cols=8)
        n = cp.n
        x = np.random.default_rng(0).standard_normal((n, 3))
        head = tail = 4 * n  # any margin at least as large as the overhang
        slab = _padded(x, head, tail)
        streams = []
        for job in cp.window_jobs:
            streams += [(seg.start, seg.gather_ids) for seg in job.segments]
            if job.q_start is not None:
                # Padding rows may read anything; real rows must match.
                real = job.q_ids.ravel() >= 0
                got = slab[head + job.q_start :][: real.size][real]
                assert np.array_equal(got, x[job.q_ids.ravel()[real]])
        streams += [(c.wide_start, c.wide_ids) for c in cp.job_chains if c.wide_ids is not None]
        recorded = 0
        for start, ids in streams:
            if start is None:
                continue
            recorded += 1
            assert ids.shape[0] == 1
            got = slab[head + start : head + start + ids.shape[1]]
            assert np.array_equal(got, np.take(x, ids[0], axis=0, mode="clip"))
        dilated = any(b.dilation > 1 for b in pattern.bands())
        assert recorded or dilated

    def test_wide_stream_grows_past_the_first_jobs_stream(self):
        """Few blocks x many column groups: union longer than any one stream."""
        cp = _compiled(longformer_pattern(64, 48, ()), rows=4, cols=4)
        chain = max(cp.job_chains, key=lambda c: len(c.jobs))
        jobs = [cp.window_jobs[ji] for ji in chain.jobs]
        assert len(jobs) > 2
        first = jobs[0].segments[0].gather_ids.shape[1]
        assert chain.wide_ids is not None and chain.wide_ids.shape[1] > 2 * first
        for job, off in zip(jobs, chain.wide_offsets):
            ids = job.segments[0].gather_ids
            assert np.array_equal(chain.wide_ids[:, off : off + ids.shape[1]], ids)

    def test_wide_stream_rejects_a_column_gap(self):
        cp = _compiled(longformer_pattern(64, 48, ()), rows=4, cols=4)
        chain = max(cp.job_chains, key=lambda c: len(c.jobs))
        jobs = [cp.window_jobs[ji] for ji in chain.jobs]
        assert _wide_stream(jobs)[0] is not None
        assert _wide_stream([jobs[0], jobs[2]]) == (None, None)

    @pytest.mark.parametrize("start", [-62, -40, -1, 0, 5, 90, 99, 130])
    def test_clamped_range_start_survives_heavy_clamping(self, start):
        """More than half the stream clamped at either end (one-block edge jobs)."""
        n, length = 100, 63
        ids = np.clip(np.arange(start, start + length), 0, n - 1)
        s = _clipped_arange_start(ids, n)
        assert s is not None
        assert np.array_equal(np.clip(np.arange(s, s + length), 0, n - 1), ids)
        if 0 <= start <= n - 1:
            assert s == start

    def test_clamped_range_start_rejects_non_ranges(self):
        assert _clipped_arange_start(np.array([0, 0, 2, 3]), 10) is None
        assert _clipped_arange_start(np.array([3, 6, 9]), 10) is None
        assert _clipped_arange_start(np.array([5, 4, 3]), 10) is None


def _assert_same_value(got, want, path="schedule"):
    """Field-by-field equality of schedule values (arrays by dtype, shape
    and contents; dataclasses, tuples and lists recursively)."""
    if dataclasses.is_dataclass(got):
        assert type(got) is type(want), path
        for f in dataclasses.fields(got):
            _assert_same_value(getattr(got, f.name), getattr(want, f.name), f"{path}.{f.name}")
    elif isinstance(got, (tuple, list)):
        assert type(got) is type(want) and len(got) == len(want), path
        for i, (a, b) in enumerate(zip(got, want)):
            _assert_same_value(a, b, f"{path}[{i}]")
    elif isinstance(got, np.ndarray):
        assert isinstance(want, np.ndarray), path
        assert got.dtype == want.dtype and got.shape == want.shape, path
        assert np.array_equal(got, want), path
    else:
        assert got == want, path


class TestTilingBuilderMatchesPassListOracle:
    """Every :class:`ExecutionSchedule` field built from the tiling equals
    the pass-list builder's, on every structured constructor (dilations,
    globals, ``first_query > 0``, 2-D windows) and PE shapes other than
    the default."""

    @given(
        pattern=structured_patterns(),
        rows=st.integers(1, 6),
        cols=st.integers(1, 9),
        pack=st.booleans(),
        late=st.integers(0, 2 * MAX_N),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_every_field(self, pattern, rows, cols, pack, late):
        if late < MAX_N and not pattern.first_query and not pattern.global_tokens() and pattern.bands():
            # The same bands as a late-start (decode-step) pattern.
            pattern = HybridSparsePattern(pattern.n, pattern.bands(), (), late % pattern.n)
        config = HardwareConfig(pe_rows=rows, pe_cols=cols, pack_bands=pack)
        try:
            plan = DataScheduler(config, strict_global_bound=False).schedule(
                pattern, heads=1, head_dim=8
            )
        except SchedulerError:  # no band selects an in-range pair
            return
        cp = plan.compiled()
        _assert_same_value(cp.schedule, build_schedule(cp))

    @pytest.mark.parametrize("name,pattern", PATTERN_CASES)
    def test_default_shape_cases(self, name, pattern):
        cp = _compiled(pattern, rows=32, cols=32)
        _assert_same_value(cp.schedule, build_schedule(cp))
