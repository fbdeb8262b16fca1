"""Pinned production-path outputs: a hash per run of a small battery.

The equivalence suites compare the production path against the reference
path on the same tree, so a change that moved both in step would pass
them.  These digests were recorded before the engine's stage-1 GEMM was
turned around (``K @ Q^T``), the stage-5 shift moved into the V slab and
the merges started consuming their part: each covers a family the
production path treats differently — one wide chained band, 2-D
multi-segment jobs, a dilated (gathered) band, global tokens
mid-sequence, padded tails, a batch and the codes door.  Re-pin only
when the engine's outputs are meant to move.
"""

import hashlib

import numpy as np
import pytest

from repro.accelerator.functional import FunctionalEngine
from repro.core.config import HardwareConfig
from repro.patterns.library import dilated_longformer_pattern, longformer_pattern, vil_pattern
from repro.scheduler.scheduler import DataScheduler

# name: (pattern, heads, head_dim, batch, valid_lens, scale, door)
BATTERY = {
    "longformer": (longformer_pattern(1024, 256, (0,)), 2, 64, None, None, None, "run"),
    "vil": (vil_pattern(28, 28), 2, 32, None, None, None, "run"),
    "dilated": (dilated_longformer_pattern(512, 64, 2, (0,)), 2, 32, None, None, None, "run"),
    "global": (longformer_pattern(512, 64, (130, 311)), 2, 32, None, None, 0.3, "run"),
    "valid_lens": (longformer_pattern(512, 64, (0,)), 2, 16, 3, [512, 300, 77], None, "run"),
    "batched": (vil_pattern(16, 16, 7), 2, 16, 2, None, None, "run"),
    "codes": (longformer_pattern(512, 128, (0, 200)), 2, 32, 2, [512, 333], None, "run_codes"),
}

PINNED = {
    "longformer": "80d23a1ee245245454658380c22e26e068e0d9d455ce1406f7e60580b5d5d0de",
    "vil": "d769d529c1f1eca04193d2e4688346f312304a395c111ef8c601ab9c661e56dc",
    "dilated": "f28d05c30fe966ca3a22f20dee13453b801ef0cced1880b1d9410811b8a5d7c5",
    "global": "df7f2c8f57cdd109f5e8993f1823f8c739f7cd7804492c055226831c44349f0b",
    "valid_lens": "431c66e017a50ee250bb684d01dd60b235b9f7ed18f985deefa4ce2bca19fa34",
    "batched": "ca9a329d8697597928bf978e5859e5a2fe39db574fd7e873e90d51113d1eebb0",
    "codes": "499e20420dc2180f19fa11ea22355cfa3ba89c597425e3113ed511d5442a456d",
}


def _digest(name):
    pattern, heads, head_dim, batch, lens, scale, door = BATTERY[name]
    plan = DataScheduler(HardwareConfig()).schedule(pattern, heads=heads, head_dim=head_dim)
    engine = FunctionalEngine(plan)
    assert engine.tiled
    rng = np.random.default_rng(sum(map(ord, name)))
    shape = (pattern.n, heads * head_dim) if batch is None else (batch, pattern.n, heads * head_dim)
    q, k, v = (2.0 * rng.standard_normal(shape) for _ in range(3))
    if door == "run_codes":
        dp = engine.datapath

        def windows(x):
            lanes = x.reshape(batch, pattern.n, heads, head_dim).transpose(0, 2, 1, 3)
            codes = dp.input_codes_into(lanes, np.empty(lanes.shape))
            return [c.astype(np.float32) for c in codes]

        q, k, v = map(windows, (q, k, v))
    res = getattr(engine, door)(q, k, v, scale=scale, valid_lens=lens)
    h = hashlib.sha256()
    for array in (res.output, res.parts, np.int64(res.merges)):
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(BATTERY))
def test_production_output_is_pinned(name):
    assert _digest(name) == PINNED[name]

