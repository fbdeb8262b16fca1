"""Zero steady-state allocation: the tiled hot path's committed contract.

After one warmup call on a plan, every buffer the compiled path touches
is a view of the process-wide scratch arena
(``repro.accelerator.arena``), the accumulator included, so a warm
``run`` may allocate only what it *returns* — the output array and the
per-row part counts, which the caller owns — plus a small fixed slack
for result objects and interpreter noise.  The gate is deliberately
tight: re-introducing a single full-size temporary (any plan-sized
``np.empty`` in the steady state) exceeds the slack by an order of
magnitude and fails the assertion.
"""

import tracemalloc

import numpy as np
import pytest

from repro.accelerator.functional import FunctionalEngine
from repro.core.config import HardwareConfig
from repro.patterns.base import Band
from repro.patterns.hybrid import HybridSparsePattern
from repro.patterns.library import longformer_pattern, vil_pattern
from repro.scheduler.scheduler import DataScheduler

#: Fixed allowance beyond the caller-owned result arrays: result
#: dataclasses, view headers, bucket lists — measured well under 8 KiB;
#: a plan-sized float64 temporary is ≥ 256 KiB at these sizes.
SLACK_BYTES = 64 * 1024


def _measure(engine, q, k, v, calls=3, door="run", **kw):
    run = getattr(engine, door)
    warm = run(q, k, v, **kw)  # warmup: allocates all scratch
    owned = warm.output.nbytes + warm.parts.nbytes
    run(q, k, v, **kw)
    del warm
    tracemalloc.start()
    try:
        for _ in range(calls):
            res = run(q, k, v, **kw)
            del res  # one caller-owned result alive at a time
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, owned


@pytest.mark.parametrize(
    "pattern,heads,head_dim",
    [
        (longformer_pattern(512, 64, (0,)), 4, 32),
        (vil_pattern(256, 32), 4, 32),
        # Multi-segment jobs chained over the interior, short last block
        # (its padding rows read the slab's tail margin).
        (vil_pattern(28, 28, 15), 2, 16),
    ],
)
def test_warm_attend_is_allocation_free(pattern, heads, head_dim):
    plan = DataScheduler(HardwareConfig()).schedule(
        pattern, heads=heads, head_dim=head_dim
    )
    rng = np.random.default_rng(5)
    q, k, v = (rng.standard_normal((pattern.n, heads * head_dim)) for _ in range(3))
    engine = FunctionalEngine(plan)
    peak, owned = _measure(engine, q, k, v)
    assert peak <= owned + SLACK_BYTES, (
        f"warm tiled run allocated {peak} B (budget: {owned} B of returned "
        f"results + {SLACK_BYTES} B slack) — a scratch buffer leaked out of "
        "the plan's reuse pool"
    )


def test_warm_wide_chain_is_allocation_free_through_both_doors():
    """A wide chained band at head_dim 64 with a global token: the
    transposed stage-1 rectangle, the exp-code index cast straight from
    it, the V slab's shift and merges that consume their part, through
    float operands (``run``) and operand codes (``run_codes``)."""
    pattern = longformer_pattern(1024, 256, (0,))
    plan = DataScheduler(HardwareConfig()).schedule(pattern, heads=2, head_dim=64)
    assert any(chain.wide_ids is not None for chain in plan.compiled().job_chains)
    rng = np.random.default_rng(8)
    q, k, v = (rng.standard_normal((pattern.n, 128)) for _ in range(3))
    engine = FunctionalEngine(plan)
    peak, owned = _measure(engine, q, k, v)
    assert peak <= owned + SLACK_BYTES
    codes = [
        [np.rint(16 * x.reshape(pattern.n, 2, 64).transpose(1, 0, 2)).clip(-128, 127).astype(np.float32)]
        for x in (q, k, v)
    ]
    peak, owned = _measure(engine, *codes, door="run_codes")
    assert peak <= owned + SLACK_BYTES


def test_warm_long_global_chain_is_allocation_free_through_both_doors():
    """A global row folded over 129 key batches: its weights, coefficients
    and scaled parts are ``(lanes, batches, globals[, d])`` arena views,
    through float operands (``run``) and operand codes (``run_codes``)."""
    pattern = longformer_pattern(4096, 256, (0,))
    plan = DataScheduler(HardwareConfig()).schedule(pattern, heads=2, head_dim=8)
    assert plan.compiled().global_batches.shape[0] == 129
    rng = np.random.default_rng(9)
    q, k, v = (rng.standard_normal((pattern.n, 16)) for _ in range(3))
    engine = FunctionalEngine(plan)
    peak, owned = _measure(engine, q, k, v)
    assert peak <= owned + SLACK_BYTES
    codes = [
        [np.rint(16 * x.reshape(pattern.n, 2, 8).transpose(1, 0, 2)).clip(-128, 127).astype(np.float32)]
        for x in (q, k, v)
    ]
    peak, owned = _measure(engine, *codes, door="run_codes")
    assert peak <= owned + SLACK_BYTES


def test_warm_attend_with_valid_lens_budget():
    """The padded-tail masking path shares the same scratch pool."""
    pattern = longformer_pattern(512, 64, (0,))
    plan = DataScheduler(HardwareConfig()).schedule(pattern, heads=4, head_dim=32)
    rng = np.random.default_rng(6)
    q, k, v = (rng.standard_normal((2, 512, 128)) for _ in range(3))
    engine = FunctionalEngine(plan)
    peak, owned = _measure(engine, q, k, v, valid_lens=np.array([512, 384]))
    assert peak <= owned + SLACK_BYTES


def test_warm_step_pattern_is_allocation_free():
    """Decode step plans of a 64-row bucket: eight lanes with padded
    tails, the shape of a warm ``decode_stream`` step.  At ``first_query``
    48 the straddling block computes 16 rows; at 63, the steady-state
    step, each window job computes one row.  Both doors: float operands
    (``run``) and the lanes' KV code windows (``run_codes``, views of
    wider buffers, as ``KVState.window`` hands them over)."""
    rng = np.random.default_rng(7)
    q, k, v = (rng.standard_normal((8, 64, 64)) for _ in range(3))
    kv = np.rint(16 * rng.standard_normal((3, 8, 4, 128, 16))).astype(np.float32)
    windows = [[buf[:, 32:96] for buf in operand] for operand in kv]
    lens = np.array([64, 64, 60, 49, 64, 63, 64, 50])
    for first, rows in ((48, 16), (63, 1)):
        pattern = HybridSparsePattern(64, [Band(-63, 0)], first_query=first)
        plan = DataScheduler(HardwareConfig()).schedule(pattern, heads=4, head_dim=16)
        assert len(plan.passes) == 2
        assert [job.rows for job in plan.compiled().window_jobs] == [rows, rows]
        engine = FunctionalEngine(plan)
        peak, owned = _measure(engine, q, k, v, valid_lens=lens)
        assert peak <= owned + SLACK_BYTES
        peak, owned = _measure(engine, *windows, door="run_codes", valid_lens=lens)
        assert peak <= owned + SLACK_BYTES


def test_coverage_check_on_full_lanes_builds_no_temporary():
    """Past ``first_query`` the check reads a view of ``has``; a mask
    over it would cost 4 MiB here."""
    from repro.accelerator.functional import _require_parts

    has = np.ones((64, 1 << 16), dtype=bool)
    tracemalloc.start()
    try:
        _require_parts(has, 100)
        _require_parts(has, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024
