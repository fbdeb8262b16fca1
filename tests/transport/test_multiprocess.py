"""Out-of-process driver: real processes, real SIGKILL, shared memory."""

import os
from pathlib import Path

import numpy as np
import pytest

from repro.api import Runtime
from repro.patterns.library import longformer_pattern
from repro.serving import AttentionRequest
from repro.transport import (
    DISPATCH_ERROR,
    MultiprocessTransport,
    TransportClosed,
    TransportRequest,
    stacked_operands,
)

PATTERN = longformer_pattern(64, 8, (0,))
SHM_DIR = Path("/dev/shm")

needs_shm_listing = pytest.mark.skipif(
    not SHM_DIR.is_dir() or not Path("/proc/self/maps").exists(),
    reason="segment listing and process maps are Linux-only",
)


def _shm_segments() -> set:
    """The e2e benchmark's leak rule: the /dev/shm listing."""
    return set(os.listdir(SHM_DIR)) if SHM_DIR.is_dir() else set()


def _worker_mappings(transport) -> set:
    """Shared-memory segments the worker process has mapped right now."""
    with open(f"/proc/{transport._process.pid}/maps") as fh:
        return {
            line.split(None, 5)[5].strip() for line in fh if f"{SHM_DIR}/psm_" in line
        }


def _request(batch_id=1, b=2, hidden=16, heads=2, seed=0):
    rng = np.random.default_rng(seed)
    q, k, v = (rng.standard_normal((b, PATTERN.n, hidden)) for _ in range(3))
    return TransportRequest(
        batch_id=batch_id, pattern=PATTERN, q=q, k=k, v=v, heads=heads
    )


def _poll_until(transport, count, budget_s=30.0):
    """Poll until ``count`` completions arrive (alarm guard backstops)."""
    out = []
    while len(out) < count:
        out.extend(transport.poll(timeout_s=min(budget_s, 0.2)))
    return out


class TestRoundTrip:
    def test_output_identical_across_the_process_boundary(self):
        """Operands ship via shared memory, execute in a foreign process,
        and come back bit-identical to a local Runtime attend."""
        req = _request()
        reference = Runtime(backend="functional").attend(
            req.pattern, req.q, req.k, req.v, heads=req.heads
        )
        with MultiprocessTransport(warm=((PATTERN, 2),)) as transport:
            transport.submit(req)
            (completion,) = _poll_until(transport, 1)
        assert completion.ok
        assert np.array_equal(completion.output, reference.output)

    def test_worker_exception_comes_back_as_dispatch_error(self):
        bad = _request()
        bad.heads = 5  # indivisible hidden: the worker's engine rejects it
        with MultiprocessTransport() as transport:
            transport.submit(bad)
            (completion,) = _poll_until(transport, 1)
            assert completion.outcome == DISPATCH_ERROR
            assert completion.error and "5" in completion.error
            # The loop survived the failed dispatch: same worker executes
            # the next batch fine.
            transport.submit(_request(2))
            (ok,) = _poll_until(transport, 1)
            assert ok.ok

    def test_probe_and_cache_info_round_trip(self):
        with MultiprocessTransport(warm=((PATTERN, 2),)) as transport:
            assert transport.alive
            assert transport.probe(timeout_s=5.0)
            info = transport.cache_info()
            assert info["misses"] >= 1  # the warm-up compile registered


    def test_warm_spec_head_dim_makes_first_batch_a_cache_hit(self):
        """Plans key on head_dim: a (pattern, heads, head_dim) spec warms
        the plan the traffic uses, a two-element spec (head_dim 64, as
        ever) leaves 16-wide traffic to cold-compile on the worker."""
        req = _request(hidden=32)  # 2 heads x 16
        for spec, first_batch_misses in (((PATTERN, 2, 16), 0), ((PATTERN, 2), 1)):
            with MultiprocessTransport(warm=(spec,)) as transport:
                before = transport.cache_info()
                transport.submit(req)
                (completion,) = _poll_until(transport, 1)
                after = transport.cache_info()
            assert completion.ok
            assert before["misses"] == 1
            assert after["misses"] - before["misses"] == first_batch_misses
            assert after["hits"] - before["hits"] == 1 - first_batch_misses


class TestCrashSemantics:
    def test_sigkill_loses_inflight_and_flips_alive(self):
        transport = MultiprocessTransport()
        try:
            transport.submit(_request())
            transport.kill()  # real SIGKILL, possibly mid-batch
            assert not transport.alive
            assert not transport.probe(timeout_s=0.2)
            with pytest.raises(TransportClosed):
                transport.submit(_request(2))
        finally:
            transport.close()  # reclaims the lost batch's segment
        assert transport.inflight == 0  # close() destroyed pending blocks

    def test_close_is_idempotent_and_orderly(self):
        transport = MultiprocessTransport()
        transport.close()
        transport.close()
        assert not transport.alive


SLOT_HEADS, SLOT_HIDDEN = 2, 16


def _members(rng, b, n, padded, patterns):
    """``b`` requests for an ``n``-long batch; padded ones are shorter."""
    out = []
    for i in range(b):
        length = int(rng.choice((n - 64, n - 16))) if padded and i % 2 else n
        if length not in patterns:
            patterns[length] = longformer_pattern(length, 8, (0,))
        q, k, v = (rng.standard_normal((length, SLOT_HIDDEN)) for _ in range(3))
        out.append(
            AttentionRequest(
                request_id=i, pattern=patterns[length], q=q, k=k, v=v, heads=SLOT_HEADS
            )
        )
    return out


@needs_shm_listing
class TestSlotPool:
    def test_slots_are_reused_as_batches_grow_and_shrink(self):
        """A seeded run of b in {1, 4, 8}, n in {256, 512}, padded or
        not, one or two in flight, via both submit paths: every output is
        bit-equal to an in-process attend on the same stacked operands,
        the pool never holds more slots than batches were ever in flight,
        and the worker maps nothing but live slots."""
        rng = np.random.default_rng(28)
        patterns = {n: longformer_pattern(n, 8, (0,)) for n in (256, 512)}
        warm = tuple((patterns[n], SLOT_HEADS, SLOT_HIDDEN // SLOT_HEADS) for n in (256, 512))
        local = Runtime(backend="functional")
        batches = high_water = 0
        ever = set()  # every segment name a slot has had
        with MultiprocessTransport(warm=warm) as transport:
            before = _shm_segments()
            for step in range(10):
                sent = {}
                for _ in range(int(rng.integers(1, 3))):
                    b, n = int(rng.choice((1, 4, 8))), int(rng.choice((256, 512)))
                    if step == 0:  # start small, so slots must grow later
                        b, n = 1, 256
                    members = _members(rng, b, n, b > 1 and bool(rng.integers(2)), patterns)
                    batches += 1
                    if step % 3 == 2:  # pre-stacked: the same slot writer
                        q, k, v, lens = stacked_operands(members, patterns[n])
                        transport.submit(
                            TransportRequest(batches, patterns[n], q, k, v, SLOT_HEADS, lens)
                        )
                    else:
                        transport.submit_members(batches, patterns[n], members, SLOT_HEADS)
                    high_water = max(high_water, transport.inflight)
                    sent[batches] = (patterns[n], members)
                for done in _poll_until(transport, len(sent)):
                    pattern, members = sent.pop(done.batch_id)
                    q, k, v, lens = stacked_operands(members, pattern)
                    want = local.attend(pattern, q, k, v, heads=SLOT_HEADS, valid_lens=lens)
                    assert done.ok, done.error
                    assert np.array_equal(done.output, want.output)
                slots = _shm_segments() - before
                ever |= slots
                mapped = _worker_mappings(transport)
                assert 1 <= len(slots) <= high_water
                assert len(mapped) <= len(slots)
                assert mapped <= {f"{SHM_DIR}/{name}" for name in slots}
        assert high_water == 2 and batches > 2 * high_water
        assert len(ever) > len(slots)  # some slot was re-created larger

    def test_dispatch_error_returns_its_slot(self):
        with MultiprocessTransport() as transport:
            before = _shm_segments()
            bad = _request()
            bad.heads = 5  # the worker's engine rejects it
            transport.submit(bad)
            (failed,) = _poll_until(transport, 1)
            assert failed.outcome == DISPATCH_ERROR and transport.inflight == 0
            slots = _shm_segments() - before
            assert len(slots) == 1
            transport.submit(_request(2))
            (ok,) = _poll_until(transport, 1)
            assert ok.ok
            assert _shm_segments() - before == slots  # the same slot again

    @pytest.mark.parametrize("kill", [False, True], ids=["close", "kill+close"])
    def test_close_leaves_no_segment_behind(self, kill):
        before = _shm_segments()
        transport = MultiprocessTransport()
        try:
            transport.submit(_request(1))
            _poll_until(transport, 1)
            transport.submit(_request(2, b=4))  # in flight (or lost) at close
            transport.submit(_request(3))
            assert len(_shm_segments() - before) == 2
            if kill:
                transport.kill()
        finally:
            transport.close()
        assert _shm_segments() - before == set()
