"""Shared-memory wire format: layout math, round-trips, ownership."""

import numpy as np
import pytest

from repro.transport.shm import ShmBatch, ShmLayout, attach


def _operands(b=2, n=16, hidden=8, seed=0):
    rng = np.random.default_rng(seed)
    return tuple(rng.standard_normal((b, n, hidden)) for _ in range(3))


class TestLayout:
    def test_region_math(self):
        layout = ShmLayout(shape=(2, 16, 8))
        assert layout.region_items == 2 * 16 * 8
        assert layout.region_bytes == layout.region_items * 8  # float64
        # q | k | v: the worker writes its output over q after the attend
        assert layout.total_bytes == 3 * layout.region_bytes

    def test_regions_are_disjoint_views(self):
        q, k, v = _operands()
        block = ShmBatch.pack(q, k, v)
        try:
            wq, wk, wv, wout = ShmBatch.views(block.shm, block.layout)
            assert wout is wq  # the output region is the q region
            wout[...] = 7.0
            # Writing the output must not disturb k and v.
            assert np.array_equal(wk, k)
            assert np.array_equal(wv, v)
            assert np.array_equal(block.read_output(), np.full(q.shape, 7.0))
        finally:
            block.destroy()

    def test_a_segment_carries_any_layout_that_fits(self):
        """A slot keeps its segment across batches: a smaller layout
        reads and writes the leading bytes of each region's slice."""
        block = ShmBatch.create(ShmLayout(shape=(4, 16, 8)))
        try:
            assert block.capacity == 3 * 4 * 16 * 8 * 8
            q, k, v = _operands(b=1, n=8, hidden=8, seed=5)
            block.layout = ShmLayout(shape=q.shape)
            for region, operand in zip(block.regions(), (q, k, v)):
                region[...] = operand
            peer = attach(block.name)
            try:
                wq, wk, wv, _ = ShmBatch.views(peer, block.layout)
                assert np.array_equal(wq, q) and np.array_equal(wk, k)
                assert np.array_equal(wv, v)
                del wq, wk, wv
            finally:
                peer.close()
        finally:
            block.destroy()


class TestShmBatch:
    def test_pack_views_read_output_roundtrip(self):
        q, k, v = _operands(seed=3)
        block = ShmBatch.pack(q, k, v)
        try:
            peer = attach(block.name)
            try:
                wq, wk, wv, wout = ShmBatch.views(peer, block.layout)
                assert np.array_equal(wq, q)
                assert np.array_equal(wk, k)
                assert np.array_equal(wv, v)
                wout[...] = wq + wk  # "worker" writes its result
            finally:
                peer.close()
            out = block.read_output()
            assert np.array_equal(out, q + k)
            # read_output copies: the result survives destroy().
            block.destroy()
            assert np.array_equal(out, q + k)
        finally:
            block.destroy()

    def test_destroy_is_idempotent(self):
        block = ShmBatch.pack(*_operands())
        block.destroy()
        block.destroy()  # second call is a no-op, not an error
        assert block.shm is None

    def test_destroyed_block_refuses_access(self):
        block = ShmBatch.pack(*_operands())
        block.destroy()
        with pytest.raises(ValueError):
            _ = block.name
        with pytest.raises(ValueError):
            block.read_output()
