"""Lane-tile boundary cases: tiling must never change a bit.

The compiled path walks the lane axis (batch x heads) in tiles sized
from the cache budget (``CompiledPlan.tile_shape``), overridable via
``HardwareConfig.lane_tile``.  On the quantised datapath every reduction
the tiles split is exact (integer-valued float64 within the 53-bit
mantissa), so the tile size is purely a layout choice — outputs are
bit-identical to the legacy per-pass reference for *any* tile size and
any lane count, including the awkward ones these tests pin: lane counts
straddling tile edges with ragged tails, padded ``valid_lens`` tails
landing exactly on block boundaries and on the cut between a plan's
interior chain and its edge jobs, and the degenerate scalar merge path
when ``heads * len(global_tokens) == 1``.
"""

import numpy as np
import pytest

from repro.accelerator.functional import FunctionalEngine
from repro.core.config import HardwareConfig
from repro.patterns.library import longformer_pattern
from repro.scheduler.scheduler import DataScheduler


def _schedule(pattern, heads, head_dim, lane_tile=0):
    config = HardwareConfig(pe_rows=4, pe_cols=4, lane_tile=lane_tile)
    return DataScheduler(config, strict_global_bound=False).schedule(
        pattern, heads=heads, head_dim=head_dim
    )


def _data(pattern, heads, head_dim, batch=None, seed=0):
    rng = np.random.default_rng(seed)
    hidden = heads * head_dim
    shape = (pattern.n, hidden) if batch is None else (batch, pattern.n, hidden)
    return tuple(rng.standard_normal(shape) for _ in range(3))


class TestLaneTileEdges:
    def test_every_tile_size_is_bit_identical(self):
        """lanes=9 split as 1+tail, exact thirds, straddled, one tile,
        clamped-oversize — all the same bits as the legacy reference."""
        pattern = longformer_pattern(24, 8, (0,))
        heads, head_dim, batch = 3, 4, 3  # lanes = 9
        q, k, v = _data(pattern, heads, head_dim, batch=batch)
        legacy = FunctionalEngine(
            _schedule(pattern, heads, head_dim), mode="legacy"
        ).run(q, k, v)
        for tile in (1, 2, 3, 4, 8, 9, 16):
            plan = _schedule(pattern, heads, head_dim, lane_tile=tile)
            got = FunctionalEngine(plan).run(q, k, v)
            assert np.array_equal(got.output, legacy.output), f"lane_tile={tile}"
            assert np.array_equal(got.parts, legacy.parts), f"lane_tile={tile}"
            assert got.merges == legacy.merges, f"lane_tile={tile}"

    @pytest.mark.parametrize("batch", [1, 2, 3, 5])
    def test_batch_sizes_straddling_tile_edges(self, batch):
        """Fixed tile of 4 against lane counts 2/4/6/10: under one tile,
        exactly one tile, half-tile tail, two tiles plus tail."""
        pattern = longformer_pattern(24, 8, (0,))
        heads, head_dim = 2, 4
        plan = _schedule(pattern, heads, head_dim, lane_tile=4)
        engine = FunctionalEngine(plan)
        legacy = FunctionalEngine(plan, mode="legacy")
        q, k, v = _data(pattern, heads, head_dim, batch=batch, seed=batch)
        got, ref = engine.run(q, k, v), legacy.run(q, k, v)
        assert np.array_equal(got.output, ref.output)
        assert np.array_equal(got.parts, ref.parts)

    def test_derived_tile_respects_override_clamp(self):
        """The override is clamped into [1, lanes]; the derived tile is
        always at least 1 even when the budget is below one lane."""
        pattern = longformer_pattern(24, 8, (0,))
        plan = _schedule(pattern, heads=3, head_dim=4, lane_tile=64)
        cp = plan.compiled()
        job = cp.window_jobs[0]
        t, bc = cp.tile_shape(job, lanes=9)
        assert t == 9 and bc >= 1
        t1, _ = cp.tile_shape(job, lanes=1)
        assert t1 == 1


class TestValidLensOnBoundaries:
    def test_padded_tails_on_exact_tile_and_block_edges(self):
        """Mixed valid_lens where the padded tail starts exactly on a
        4-row block edge (48, 32), plus a ragged one (37) and a full
        row (64) — each against the per-pass reference, lane-tiled so
        the batch also straddles a tile edge."""
        pattern = longformer_pattern(64, 16, (0,))
        heads, head_dim, batch = 2, 4, 4  # lanes = 8, tile 3 -> 3+3+2
        plan = _schedule(pattern, heads, head_dim, lane_tile=3)
        lens = np.array([64, 48, 32, 37])
        q, k, v = _data(pattern, heads, head_dim, batch=batch, seed=7)
        got = FunctionalEngine(plan).run(q, k, v, valid_lens=lens)
        ref = FunctionalEngine(plan, mode="legacy").run(q, k, v, valid_lens=lens)
        assert np.array_equal(got.output, ref.output)
        assert np.array_equal(got.parts, ref.parts)

    def test_all_tails_padded_to_same_boundary(self):
        """Uniform padded tail on a block boundary (the fast mask path
        must not diverge from per-sequence masking)."""
        pattern = longformer_pattern(32, 8, (0,))
        plan = _schedule(pattern, heads=2, head_dim=4, lane_tile=2)
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
        cp = plan.compiled()
        jobs = cp.window_jobs
        chain = max(cp.job_chains, key=lambda c: sum(jobs[j].num_blocks for j in c.jobs))
        q = jobs[chain.jobs[0]].q_ids
        return int(q.min()), int(q.max()) + 1

    @pytest.mark.parametrize("lane_tile", [0, 3])
    def test_tails_inside_the_interior_an_edge_block_and_on_the_cut(self, lane_tile):
        pattern = longformer_pattern(64, 16, (0,))
        heads, head_dim = 2, 4
        plan = _schedule(pattern, heads, head_dim, lane_tile=lane_tile)
        lo, hi = self._interior(plan)
        assert 0 < lo < hi < pattern.n  # the plan really has both edges
        # full, mid-interior, on the trailing cut, inside the trailing
        # edge block, on the leading cut, inside the leading edge block
        lens = np.array([pattern.n, (lo + hi) // 2 + 1, hi, hi + 2, lo, lo - 1])
        q, k, v = _data(pattern, heads, head_dim, batch=len(lens), seed=17)
        got = FunctionalEngine(plan).run(q, k, v, valid_lens=lens)
        ref = FunctionalEngine(plan, mode="legacy").run(q, k, v, valid_lens=lens)
        assert np.array_equal(got.output, ref.output)
        assert np.array_equal(got.parts, ref.parts)
        assert got.merges == ref.merges


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
        assert np.array_equal(got.output, ref.output)
        assert np.array_equal(got.parts, ref.parts)
        assert got.merges == ref.merges

    def test_single_head_single_global_with_padded_tail(self):
        pattern = longformer_pattern(32, 8, (0,))
        plan = _schedule(pattern, heads=1, head_dim=8, lane_tile=1)
        q, k, v = _data(pattern, 1, 8, batch=1, seed=13)
        lens = np.array([24])
        got = FunctionalEngine(plan).run(q, k, v, valid_lens=lens)
        ref = FunctionalEngine(plan, mode="legacy").run(q, k, v, valid_lens=lens)
        assert np.array_equal(got.output, ref.output)
