"""Tests for data splitting (sequence/window splitting + band packing)."""

import pytest

from repro.scheduler.plan import BandSegment
from repro.scheduler.reorder import GroupedBandJob
from repro.scheduler.compiled import tiling_index
from repro.scheduler.splitting import chunk_band_job, pack_segments, tile_group


def _job(width, rel_lo=0, band=0, residue=0, dilation=1, group=32):
    return GroupedBandJob(
        band_index=band,
        dilation=dilation,
        query_residue=residue,
        key_residue=residue,
        group_size=group,
        rel_lo=rel_lo,
        width=width,
    )


class TestChunkBandJob:
    def test_exact_fit(self):
        segs = chunk_band_job(_job(8), pe_cols=8)
        assert len(segs) == 1
        assert segs[0].width == 8

    def test_splits_wide_band(self):
        segs = chunk_band_job(_job(20, rel_lo=-10), pe_cols=8)
        assert [s.width for s in segs] == [8, 8, 4]
        assert [s.rel_lo for s in segs] == [-10, -2, 6]

    def test_contiguity(self):
        segs = chunk_band_job(_job(33, rel_lo=5), pe_cols=16)
        for a, b in zip(segs, segs[1:]):
            assert b.rel_lo == a.rel_lo + a.width

    def test_rejects_bad_cols(self):
        with pytest.raises(ValueError):
            chunk_band_job(_job(4), pe_cols=0)


class TestPackSegments:
    def _segs(self, widths):
        return [
            BandSegment(band_index=i, rel_lo=0, width=w, key_residue=0, dilation=1)
            for i, w in enumerate(widths)
        ]

    def test_no_packing(self):
        groups = pack_segments(self._segs([4, 4, 4]), pe_cols=16, pack=False)
        assert [len(g) for g in groups] == [1, 1, 1]

    def test_first_fit_packing(self):
        groups = pack_segments(self._segs([15, 15, 15, 15]), pe_cols=32, pack=True)
        assert [sum(s.width for s in g) for g in groups] == [30, 30]

    def test_vil_case(self):
        """15 bands of width 15 on 32 columns: 8 passes (7x30 + 1x15)."""
        groups = pack_segments(self._segs([15] * 15), pe_cols=32, pack=True)
        widths = [sum(s.width for s in g) for g in groups]
        assert widths == [30] * 7 + [15]

    def test_never_exceeds_columns(self):
        groups = pack_segments(self._segs([10, 20, 15, 5, 30]), pe_cols=32, pack=True)
        assert all(sum(s.width for s in g) <= 32 for g in groups)

    def test_all_segments_preserved(self):
        segs = self._segs([7, 9, 3, 12, 30, 1])
        groups = pack_segments(segs, pe_cols=32, pack=True)
        flat = [s for g in groups for s in g]
        assert sorted(s.band_index for s in flat) == list(range(6))


class TestTileGroup:
    """One query group's product: blocks x column groups, has-work masked."""

    def test_pass_count(self):
        # group of 70 queries on 32 rows -> 3 blocks; window 40 on 32 cols -> 2 chunks
        tiling = tile_group([_job(40, group=70)], 200, 32, 32, pack=True)
        assert tiling.has_work.shape == (3, 2) and tiling.has_work.all()

    def test_row_blocks(self):
        tiling = tile_group([_job(8, group=70)], 200, 32, 32, pack=True)
        assert sorted(set((tiling.stops - tiling.starts).tolist())) == [6, 32]

    def test_rejects_mixed_groups(self):
        with pytest.raises(ValueError):
            tile_group([_job(4, residue=0), _job(4, residue=1, group=16)], 64, 8, 8, True)

    def test_query_ids_respect_dilation(self):
        job = _job(4, residue=1, dilation=3, group=5)
        index = tiling_index([tile_group([job], 16, 8, 8, pack=True)], 16, ())
        assert index[0].query_ids().tolist() == [1, 4, 7, 10, 13]

    def test_has_work_masks_clipped_and_global_only_blocks(self):
        # keys 8 ahead: the last block's reach past n, and block 0's single
        # in-range key is a global token.
        job = _job(1, rel_lo=8, group=16)
        assert tile_group([job], 16, 4, 4, True).has_work[:, 0].tolist() == [True] * 2 + [False] * 2
        globals_ = [8, 9, 10, 11]
        assert tile_group([job], 16, 4, 4, True, 0, globals_).has_work[:, 0].tolist() == [
            False, True, False, False,
        ]  # fmt: skip

    def test_first_query_cuts_blocks(self):
        tiling = tile_group([_job(2, group=16)], 16, 4, 4, True, first_query=9)
        assert tiling.starts.tolist() == [8, 12]
