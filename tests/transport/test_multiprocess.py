"""Out-of-process driver: real processes, real SIGKILL, shared memory."""

import numpy as np
import pytest

from repro.api import Runtime
from repro.patterns.library import longformer_pattern
from repro.transport import (
    DISPATCH_ERROR,
    MultiprocessTransport,
    TransportClosed,
    TransportRequest,
)

PATTERN = longformer_pattern(64, 8, (0,))


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
