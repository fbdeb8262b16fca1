"""The global row's merge chain, weights in one pass, against the walk.

``FunctionalEngine._merge_global_rows`` computes every batch's Eq. 2
coefficients from an exclusive prefix sum of the (exact, fixed-point)
weights and keeps only the output half per batch.  The property holds
it bit-equal to the per-batch ``_merge_part`` walk it replaced
(:func:`_merge_oracle.merge_chain`) on what the accumulator keeps — the
output codes and weights of every covered cell, coverage, part counts
and the merge count — over chains of 1 to 140 batches, batches that
leave some lanes without work, cells whose first part comes late,
signed-zero part codes and equal weights.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from _merge_oracle import merge_chain
from repro.accelerator.functional import FunctionalEngine, _BatchAccumulator
from repro.core.config import HardwareConfig
from repro.patterns.library import longformer_pattern
from repro.scheduler.scheduler import DataScheduler

_ENGINE = FunctionalEngine(
    DataScheduler(HardwareConfig()).schedule(longformer_pattern(24, 8, (0,)), heads=1, head_dim=4)
)


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


@st.composite
def chains(draw):
    lanes = draw(st.integers(1, 4))
    batches = draw(st.integers(1, 140))
    globals_, d = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (lanes, batches, globals_)
    has = rng.random(shape) < draw(st.sampled_from([0.2, 0.7, 1.0]))
    has[rng.random(lanes) < 0.3, rng.integers(batches)] = False  # a batch without work for a lane
    late = rng.integers(0, batches, shape[::2])  # first part of (lane, global) no earlier than this
    has &= np.arange(batches)[None, :, None] >= late[:, None, :]
    # Exact fixed-point weights, a small set of values so that equal ones meet.
    w = rng.choice([1.0, 0.75, 3.5, 1 / 64, 1234.5, 2.0**-10], shape)
    w *= rng.integers(1, 9, shape)
    codes = rng.integers(-3000, 3001, shape + (d,)).astype(np.float64)
    codes[rng.random(codes.shape) < 0.2] = 0.0
    codes[rng.random(codes.shape) < 0.2] = -0.0
    return codes, w, has


@given(chain=chains())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_vectorised_chain_equals_the_per_batch_walk(chain):
    out, w, has = chain
    lanes, _, num_g, d = out.shape
    want_out, want_w, want_has, want_parts, want_merges = merge_chain(
        _ENGINE, out.copy(), w.copy(), has.copy()
    )
    acc = _BatchAccumulator(lanes, num_g, d)
    cp = SimpleNamespace(global_tokens=np.arange(num_g))
    _ENGINE._merge_global_rows(cp, out.copy(), w.copy(), has.copy(), acc)
    covered = want_has
    assert np.array_equal(acc.has, want_has)
    assert np.array_equal(acc.parts, want_parts)
    assert acc.merges == want_merges
    assert np.array_equal(_bits(acc.out[covered]), _bits(want_out[covered]))
    assert np.array_equal(_bits(acc.w[covered]), _bits(want_w[covered]))
