"""Block-chunk boundary cases: chunking must never change a bit.

The compiled path runs each job chain's query blocks in chunks, every
chunk on all lanes (batch x heads) at once, sized so one chunk's working
set stays within one budget shared by the lanes
(``CompiledPlan.chunk_blocks``, ``compiled.CHUNK_BYTES``) — so the chunk
boundaries of one plan move with the lane count of the call.  On the
quantised datapath every reduction a chunk splits is exact
(integer codes within the float32 or float64 significand), so the chunk size
is purely a layout choice — outputs are bit-identical to the legacy
per-pass reference for *any* budget and any lane count, including the
awkward ones these tests pin: lane counts that each cut the same plan
into a different number of chunks with a ragged last one, more lanes
than the budget has units (one block per chunk), padded ``valid_lens``
tails landing exactly on block boundaries and on the cut between a
plan's interior chain and its edge jobs, and the degenerate scalar merge
path when ``heads * len(global_tokens) == 1``.
"""

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.scheduler.compiled as compiled
from repro.accelerator.functional import FunctionalEngine
from repro.core.config import HardwareConfig
from repro.patterns.base import Band
from repro.patterns.hybrid import HybridSparsePattern
from repro.patterns.library import longformer_pattern, vil_pattern
from repro.scheduler.scheduler import DataScheduler

#: 40 (lane, block) units of the 4x4-array, head_dim-4 plans below (one
#: unit's working set is 1248 B there); the default budget holds any of
#: them in one chunk.
SMALL_BUDGET = 40 * 1248


def _schedule(pattern, heads, head_dim, config=HardwareConfig(pe_rows=4, pe_cols=4)):
    return DataScheduler(config, strict_global_bound=False).schedule(
        pattern, heads=heads, head_dim=head_dim
    )


def _data(pattern, heads, head_dim, batch=None, seed=0):
    rng = np.random.default_rng(seed)
    hidden = heads * head_dim
    shape = (pattern.n, hidden) if batch is None else (batch, pattern.n, hidden)
    return tuple(rng.standard_normal(shape) for _ in range(3))


def _main_job(plan):
    """First job of the chain carrying the most passes (the interior)."""
    cp = plan.compiled()
    jobs = cp.window_jobs
    chain = max(cp.job_chains, key=lambda c: sum(jobs[j].num_blocks for j in c.jobs))
    return jobs[chain.jobs[0]]


def _chunks(plan, lanes):
    """Chunk sizes of the plan's biggest chain at this lane count."""
    job = _main_job(plan)
    bc = plan.compiled().chunk_blocks(job, lanes)
    return [min(bc, job.num_blocks - b0) for b0 in range(0, job.num_blocks, bc)]


def _assert_same(got, ref):
    assert np.array_equal(got.output, ref.output)
    assert np.array_equal(got.parts, ref.parts)
    assert got.merges == ref.merges


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(compiled, "CHUNK_BYTES", SMALL_BUDGET)


class TestChunkEdges:
    @pytest.mark.parametrize(
        "heads,batch",
        [(1, 1), (2, 1), (3, 1), (1, 5), (3, 3), (2, 5)],
        ids=["lanes1", "lanes2", "lanes3", "lanes5", "lanes9", "lanes10"],
    )
    def test_lane_counts_move_the_chunk_boundaries(self, small_chunks, heads, batch):
        """lanes = 1/2/3/5/9/10 on one pattern: each count cuts the
        interior chain into a different run of >= 3 chunks with a ragged
        last one — all the same bits as the legacy reference."""
        pattern = longformer_pattern(364, 8, (0,))
        plan = _schedule(pattern, heads, head_dim=4)
        chunks = _chunks(plan, heads * batch)
        assert len(chunks) >= 3 and chunks[-1] < chunks[0], chunks
        q, k, v = _data(pattern, heads, 4, batch=batch, seed=heads * batch)
        _assert_same(
            FunctionalEngine(plan).run(q, k, v),
            FunctionalEngine(plan, mode="legacy").run(q, k, v),
        )

    def test_more_lanes_than_units_is_one_block_per_chunk(self, monkeypatch):
        """A budget below one (lane, block) unit — and a fortiori fewer
        units than lanes — still runs: one block per chunk."""
        monkeypatch.setattr(compiled, "CHUNK_BYTES", 1)
        pattern = longformer_pattern(24, 8, (0,))
        plan = _schedule(pattern, heads=3, head_dim=4)
        cp = plan.compiled()
        assert {cp.chunk_blocks(job, 9) for job in cp.window_jobs} == {1}
        q, k, v = _data(pattern, 3, 4, batch=3)
        _assert_same(
            FunctionalEngine(plan).run(q, k, v),
            FunctionalEngine(plan, mode="legacy").run(q, k, v),
        )

    def test_rounding_is_up_and_clamped_to_the_job(self, monkeypatch):
        plan = _schedule(longformer_pattern(364, 8, (0,)), heads=1, head_dim=4)
        cp = plan.compiled()
        job = max(cp.window_jobs, key=lambda j: j.num_blocks)
        assert cp.chunk_blocks(job, 1) == job.num_blocks  # default budget: one chunk
        monkeypatch.setattr(compiled, "CHUNK_BYTES", SMALL_BUDGET)
        units = cp.chunk_blocks(job, 1)
        assert 1 < units < job.num_blocks
        for lanes in (2, 3, 7, units - 1, units, units + 1, 10 * units):
            assert cp.chunk_blocks(job, lanes) == -(-units // lanes), lanes


# Plans of the property: a wide Longformer chain with a global token, a
# packed multi-segment ViL plan and a dilated band with G > 1 families.
_PROPERTY_PLANS = [
    _schedule(longformer_pattern(60, 12, (0,)), heads=2, head_dim=4),
    _schedule(
        vil_pattern(9, 7, 5, (0,)), heads=2, head_dim=4, config=HardwareConfig(pe_rows=8, pe_cols=16)
    ),
    _schedule(HybridSparsePattern(30, [Band(-6, 6, 3)], (0,)), heads=2, head_dim=4),
]


@functools.lru_cache(maxsize=None)
def _property_case(plan_i, batch, padded):
    plan = _PROPERTY_PLANS[plan_i]
    rng = np.random.default_rng(100 * plan_i + batch)
    q, k, v = (rng.standard_normal((batch, plan.n, 8)) for _ in range(3))
    lens = rng.integers(plan.n // 3, plan.n + 1, size=batch) if padded else None
    ref = FunctionalEngine(plan, mode="legacy").run(q, k, v, valid_lens=lens)
    return q, k, v, lens, ref


@given(
    plan_i=st.integers(0, len(_PROPERTY_PLANS) - 1),
    budget=st.one_of(st.integers(1, 4096), st.integers(4096, 1 << 20)),
    batch=st.integers(1, 6),
    padded=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_any_budget_and_any_batch_size_match_the_reference(plan_i, budget, batch, padded):
    q, k, v, lens, ref = _property_case(plan_i, batch, padded)
    with mock.patch.object(compiled, "CHUNK_BYTES", budget):
        got = FunctionalEngine(_PROPERTY_PLANS[plan_i]).run(q, k, v, valid_lens=lens)
    _assert_same(got, ref)


class TestValidLensOnBoundaries:
    def test_padded_tails_on_exact_chunk_and_block_edges(self, small_chunks):
        """Mixed valid_lens where the padded tail starts exactly on a
        4-row block edge (48, 32), plus a ragged one (37) and a full
        row (64) — each against the per-pass reference, chunked so the
        tails end in different chunks (lanes = 8: 5 blocks a chunk)."""
        pattern = longformer_pattern(64, 16, (0,))
        heads, head_dim, batch = 2, 4, 4
        plan = _schedule(pattern, heads, head_dim)
        assert len(_chunks(plan, heads * batch)) >= 2
        lens = np.array([64, 48, 32, 37])
        q, k, v = _data(pattern, heads, head_dim, batch=batch, seed=7)
        got = FunctionalEngine(plan).run(q, k, v, valid_lens=lens)
        ref = FunctionalEngine(plan, mode="legacy").run(q, k, v, valid_lens=lens)
        assert np.array_equal(got.output, ref.output)
        assert np.array_equal(got.parts, ref.parts)

    def test_all_tails_padded_to_same_boundary(self, small_chunks):
        """Uniform padded tail on a block boundary (the fast mask path
        must not diverge from per-sequence masking)."""
        pattern = longformer_pattern(32, 8, (0,))
        plan = _schedule(pattern, heads=2, head_dim=4)
        lens = np.array([24, 24, 24])
        q, k, v = _data(pattern, 2, 4, batch=3, seed=11)
        got = FunctionalEngine(plan).run(q, k, v, valid_lens=lens)
        ref = FunctionalEngine(plan, mode="legacy").run(q, k, v, valid_lens=lens)
        assert np.array_equal(got.output, ref.output)


class TestValidLensAcrossTheInteriorEdgeCut:
    """The job builder cuts each group's blocks into an interior chain and
    edge jobs; padded tails must mask the same keys wherever they end."""

    @staticmethod
    def _interior(plan):
        """Query range ``[lo, hi)`` of the chain carrying the most passes."""
        q = _main_job(plan).q_ids
        return int(q.min()), int(q.max()) + 1

    @pytest.mark.parametrize(
        "budget", [compiled.CHUNK_BYTES, SMALL_BUDGET // 4], ids=["default-budget", "small-budget"]
    )
    def test_tails_inside_the_interior_an_edge_block_and_on_the_cut(self, monkeypatch, budget):
        monkeypatch.setattr(compiled, "CHUNK_BYTES", budget)
        pattern = longformer_pattern(64, 16, (0,))
        heads, head_dim = 2, 4
        plan = _schedule(pattern, heads, head_dim)
        lo, hi = self._interior(plan)
        assert 0 < lo < hi < pattern.n  # the plan really has both edges
        # full, mid-interior, on the trailing cut, inside the trailing
        # edge block, on the leading cut, inside the leading edge block
        lens = np.array([pattern.n, (lo + hi) // 2 + 1, hi, hi + 2, lo, lo - 1])
        q, k, v = _data(pattern, heads, head_dim, batch=len(lens), seed=17)
        got = FunctionalEngine(plan).run(q, k, v, valid_lens=lens)
        ref = FunctionalEngine(plan, mode="legacy").run(q, k, v, valid_lens=lens)
        _assert_same(got, ref)


class TestScalarMergeFastPath:
    def test_single_head_single_global_scalar_merge(self):
        """heads * globals == 1 and batch 1: the lane axis and the
        global-row axis both collapse to scalars, exercising the
        degenerate shapes of the merge fast paths."""
        pattern = longformer_pattern(24, 8, (0,))
        plan = _schedule(pattern, heads=1, head_dim=8)
        q, k, v = _data(pattern, 1, 8, seed=3)
        got = FunctionalEngine(plan).run(q, k, v)
        ref = FunctionalEngine(plan, mode="legacy").run(q, k, v)
        _assert_same(got, ref)

    def test_single_head_single_global_with_padded_tail(self):
        pattern = longformer_pattern(32, 8, (0,))
        plan = _schedule(pattern, heads=1, head_dim=8)
        q, k, v = _data(pattern, 1, 8, batch=1, seed=13)
        lens = np.array([24])
        got = FunctionalEngine(plan).run(q, k, v, valid_lens=lens)
        ref = FunctionalEngine(plan, mode="legacy").run(q, k, v, valid_lens=lens)
        assert np.array_equal(got.output, ref.output)
