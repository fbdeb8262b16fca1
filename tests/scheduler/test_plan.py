"""Tests for tile-pass and execution-plan data structures."""

import numpy as np
import pytest

from repro.core.config import HardwareConfig
from repro.scheduler.plan import BandSegment, ExecutionPlan, TilePass

from _pass_oracle import pass_index


def _pass(q_positions=(0, 1, 2), segments=None, residue=0, dilation=1):
    if segments is None:
        segments = (BandSegment(0, -1, 3, 0, 1),)
    return TilePass(
        query_residue=residue,
        dilation=dilation,
        q_positions=tuple(q_positions),
        segments=tuple(segments),
    )


class TestTilePass:
    def test_rows_cols_used(self):
        tp = _pass(segments=(BandSegment(0, -1, 3, 0, 1), BandSegment(1, 4, 2, 0, 1)))
        assert tp.rows_used == 3
        assert tp.cols_used == 5

    def test_query_ids_identity(self):
        assert _pass().query_ids().tolist() == [0, 1, 2]

    def test_query_ids_dilated(self):
        tp = _pass(residue=2, dilation=3)
        assert tp.query_ids().tolist() == [2, 5, 8]

    def test_key_ids_sliding(self):
        tp = _pass(q_positions=(4, 5), segments=(BandSegment(0, -1, 3, 0, 1),))
        ids = tp.key_ids(n=100)
        assert ids.tolist() == [[3, 4, 5], [4, 5, 6]]

    def test_key_ids_clipping(self):
        tp = _pass(q_positions=(0,), segments=(BandSegment(0, -2, 3, 0, 1),))
        assert tp.key_ids(n=100).tolist() == [[-1, -1, 0]]

    def test_key_ids_exclude_globals(self):
        tp = _pass(q_positions=(4,), segments=(BandSegment(0, -1, 3, 0, 1),))
        ids = tp.key_ids(n=100, exclude=frozenset({4}))
        assert ids.tolist() == [[3, -1, 5]]

    def test_key_ids_dilated_segment(self):
        tp = _pass(
            q_positions=(0, 1),
            residue=0,
            dilation=2,
            segments=(BandSegment(0, -1, 3, 0, 2),),
        )
        # query group position p attends key group positions p-1, p, p+1
        # key id = 0 + pos*2
        assert tp.key_ids(n=100).tolist() == [[-1, 0, 2], [0, 2, 4]]

    def test_valid_cell_count(self):
        tp = _pass(q_positions=(0,), segments=(BandSegment(0, -2, 3, 0, 1),))
        assert tp.valid_cell_count(n=100) == 1

    def test_segment_validation(self):
        with pytest.raises(ValueError):
            BandSegment(0, 0, 0, 0, 1)


class TestExecutionPlan:
    def _plan(self, n=8, passes=None, global_tokens=()):
        config = HardwareConfig(pe_rows=4, pe_cols=4)
        if passes is None:
            passes = [
                TilePass(0, 1, tuple(range(r, min(r + 4, n))), (BandSegment(0, -1, 3, 0, 1),))
                for r in range(0, n, 4)
            ]
        return ExecutionPlan(
            n=n, heads=2, head_dim=8, config=config,
            passes=pass_index(passes, n, global_tokens),
            global_tokens=tuple(global_tokens),
        )

    def test_total_passes_scales_with_heads(self):
        plan = self._plan()
        assert plan.num_total_passes == len(plan.passes) * 2

    def test_stats_utilization_bounds(self):
        stats = self._plan().stats()
        assert 0.0 < stats.utilization <= 1.0

    def test_stats_parts_count(self):
        stats = self._plan().stats()
        assert stats.parts_per_query_max >= 1

    def test_global_row_schedule_covers_all_keys(self):
        plan = self._plan(global_tokens=(0,))
        batches = plan.global_row_schedule()
        seen = np.concatenate(batches)
        assert sorted(seen.tolist()) == list(range(plan.n))

    def test_global_row_schedule_no_duplicates(self):
        plan = self._plan(global_tokens=(0,))
        seen = np.concatenate(plan.global_row_schedule())
        assert len(seen) == len(np.unique(seen))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            self._plan(n=0)

    @pytest.mark.parametrize("passes", [[_pass()], (_pass(),), []], ids=["list", "tuple", "empty"])
    def test_refuses_passes_not_indexed_by_the_scheduler(self, passes):
        """A plan's passes are the scheduler's ``PassIndex``: a plain
        sequence of ``TilePass`` objects is refused at construction,
        before anything is compiled."""
        with pytest.raises(ValueError, match=r"^passes must be the PassIndex of DataScheduler"):
            ExecutionPlan(
                n=8, heads=2, head_dim=8, config=HardwareConfig(pe_rows=4, pe_cols=4),
                passes=passes, global_tokens=(),
            )
