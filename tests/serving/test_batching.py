"""Tests for length bucketing and plan-keyed batch formation."""

import numpy as np
import pytest

from repro.patterns.base import AttentionPattern, Band
from repro.patterns.hybrid import HybridSparsePattern
from repro.patterns.library import longformer_pattern
from repro.serving import AttentionRequest, BatchScheduler, length_bucket


def _request(rid, pattern, heads=1, hidden=8, arrival=0.0, seed=0):
    rng = np.random.default_rng(seed)
    q, k, v = (rng.standard_normal((pattern.n, hidden)) for _ in range(3))
    return AttentionRequest(
        request_id=rid, pattern=pattern, q=q, k=k, v=v, heads=heads, arrival_s=arrival
    )


class _OpaquePattern(AttentionPattern):
    """A pattern with no band decomposition (mask-only)."""

    def row_keys(self, i):
        return np.asarray([i], dtype=np.int64)


class TestLengthBucket:
    def test_powers_of_two(self):
        assert length_bucket(1) == 16
        assert length_bucket(16) == 16
        assert length_bucket(17) == 32
        assert length_bucket(512) == 512
        assert length_bucket(513) == 1024

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            length_bucket(0)


class TestRequestValidation:
    def test_shape_checks(self):
        pattern = longformer_pattern(16, 4, (0,))
        with pytest.raises(ValueError):
            _request(0, pattern, hidden=8).__class__(
                request_id=1, pattern=pattern, q=np.zeros((8, 4)), k=np.zeros((8, 4)), v=np.zeros((8, 4))
            )
        with pytest.raises(ValueError):
            AttentionRequest(2, pattern, np.zeros((16, 9)), np.zeros((16, 9)), np.zeros((16, 9)), heads=2)

    @pytest.mark.parametrize("operand", ["q", "k", "v"])
    @pytest.mark.parametrize("poison", [np.nan, np.inf])
    def test_non_finite_operand_fails_at_the_door_by_name(self, operand, poison):
        pattern = longformer_pattern(16, 4, (0,))
        data = {name: np.zeros((16, 8)) for name in "qkv"}
        data[operand] = data[operand].copy()
        data[operand][3, 5] = poison
        with pytest.raises(ValueError, match=rf"request 'bad-7': {operand} holds non-finite"):
            AttentionRequest("bad-7", pattern, heads=2, **data)

    @pytest.mark.parametrize("timing, match", [
        (dict(deadline_s=float("nan")), "deadline_s must be positive"),
        (dict(deadline_s=0.0), "deadline_s must be positive"),
        (dict(arrival_s=float("nan")), "arrival_s is NaN"),
    ])
    def test_unorderable_timing_fails_at_the_door(self, timing, match):
        """The scheduler keeps queued requests sorted by deadline and
        arrival; a NaN there has no place in the order."""
        zeros = np.zeros((16, 8))
        with pytest.raises(ValueError, match=match):
            AttentionRequest(0, longformer_pattern(16, 4, (0,)), zeros, zeros, zeros, **timing)

    def test_properties(self):
        req = _request(0, longformer_pattern(16, 4, (0,)), heads=2, hidden=8)
        assert req.n == 16 and req.hidden == 8 and req.head_dim == 4


class TestBatchScheduler:
    def test_same_structure_batches_together(self):
        sched = BatchScheduler(max_batch_size=4)
        for i in range(3):
            sched.enqueue(_request(i, longformer_pattern(32, 8, (0,)), arrival=float(i)))
        batch = sched.next_batch()
        assert batch.size == 3
        assert [r.request_id for r in batch.requests] == [0, 1, 2]
        assert sched.next_batch() is None

    def test_max_batch_size_respected(self):
        sched = BatchScheduler(max_batch_size=2)
        for i in range(5):
            sched.enqueue(_request(i, longformer_pattern(32, 8, (0,)), arrival=float(i)))
        sizes = []
        while (batch := sched.next_batch()) is not None:
            sizes.append(batch.size)
        assert sizes == [2, 2, 1]

    def test_different_structures_never_mix(self):
        sched = BatchScheduler()
        sched.enqueue(_request(0, longformer_pattern(32, 8, (0,)), arrival=0.0))
        sched.enqueue(_request(1, longformer_pattern(32, 12, (0,)), arrival=1.0))  # wider band
        sched.enqueue(_request(2, longformer_pattern(32, 8, (5,)), arrival=2.0))  # moved global
        sched.enqueue(_request(3, HybridSparsePattern(32, [Band(-8, 8, 4)], ()), arrival=3.0))
        sizes = [sched.next_batch().size for _ in range(4)]
        assert sizes == [1, 1, 1, 1]

    def test_head_layout_and_hidden_in_key(self):
        sched = BatchScheduler()
        sched.enqueue(_request(0, longformer_pattern(32, 8, (0,)), heads=1, hidden=8))
        sched.enqueue(_request(1, longformer_pattern(32, 8, (0,)), heads=2, hidden=8))
        sched.enqueue(_request(2, longformer_pattern(32, 8, (0,)), heads=1, hidden=16))
        assert sched.next_batch().size == 1

    def test_fifo_across_queues(self):
        """The queue whose head has waited longest is served first."""
        sched = BatchScheduler()
        sched.enqueue(_request(0, longformer_pattern(32, 8, (0,)), arrival=5.0))
        sched.enqueue(_request(1, longformer_pattern(64, 8, (0,)), arrival=1.0))
        first = sched.next_batch()
        assert first.requests[0].request_id == 1

    def test_opaque_patterns_serve_singly(self):
        sched = BatchScheduler()
        sched.enqueue(_request(0, _OpaquePattern(16), arrival=0.0))
        sched.enqueue(_request(1, _OpaquePattern(16), arrival=1.0))
        a, b = sched.next_batch(), sched.next_batch()
        assert a.size == 1 and b.size == 1

    def test_pending_and_buckets(self):
        sched = BatchScheduler()
        sched.enqueue(_request(0, longformer_pattern(32, 8, (0,))))
        sched.enqueue(_request(1, longformer_pattern(100, 8, (0,))))
        assert len(sched) == sched.pending == 2
        depths = sched.pending_by_bucket()
        assert depths == {32: 1, 128: 1}
        sched.next_batch()
        sched.next_batch()
        assert sched.pending == 0
