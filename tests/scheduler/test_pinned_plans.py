"""Pinned compiled plans: a hash per pattern of everything a plan compiles.

The equivalence suites compare the compiled plan against the per-pass
reference on the same tree, and the output pins only see what an engine
run happens to read.  These digests cover the compiled plan itself —
every :class:`~repro.scheduler.compiled.CompiledPlan` field except the
pass list it is built from (``valid`` read through its attribute,
whether stored or derived), plus the :class:`ExecutionSchedule`: window
jobs, job chains, slab margins and global-row buckets.  They were
recorded before compilation stopped expanding every pass into cells;
re-pin only when a plan or its schedule is meant to change.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core.config import HardwareConfig
from repro.decode.session import decode_pattern
from repro.patterns.base import Band
from repro.patterns.library import (
    dilated_longformer_pattern,
    longformer_pattern,
    sparse_transformer_pattern,
    star_transformer_pattern,
    vil_pattern,
)
from repro.scheduler.compiled import CompiledPlan, WindowJob
from repro.scheduler.scheduler import DataScheduler

HEADS, HEAD_DIM = 2, 8


def _patterns():
    cases = {}
    for n, window in ((2048, 480), (4096, 320), (3072, 352)):
        for g in (0, 5, 100, 2047):
            cases[f"longformer-{n}-{window}-g{g}"] = longformer_pattern(n, window, (g,))
    cases["longformer-1024-256-none"] = longformer_pattern(1024, 256, ())
    cases["longformer-1024-256-four"] = longformer_pattern(1024, 256, (0, 17, 500, 1023))
    cases["longformer-300-300"] = longformer_pattern(300, 300, (0,))
    for side, window in ((12, 7), (28, 15), (56, 15)):
        cases[f"vil-{side}"] = vil_pattern(side, side, window)
    cases["dilated"] = dilated_longformer_pattern(512, 64, 2, (0,))
    cases["sparse"] = sparse_transformer_pattern(1024, block=32)
    cases["star"] = star_transformer_pattern(512)
    cases["decode-step"] = decode_pattern((Band(-127, 0, 1),), (), 256, 256, first_query=255)
    cases["decode-step-mid-block"] = decode_pattern((Band(-63, 0, 1),), (), 256, 256, 100)
    return cases


PATTERNS = _patterns()

#: Every CompiledPlan field but ``passes``, by name (``valid`` included).
PLAN_FIELDS = (
    "n", "heads", "head_dim", "num_passes", "pad_rows", "pad_cols", "q_ids", "valid",
    "keep", "rows_used", "cols_used", "qpos", "col_base", "col_dil", "valid_counts",
    "row_has_work", "distinct_per_pass", "q_loads", "out_vectors", "global_tokens",
    "nonglobal_rows", "global_batches", "global_batch_valid", "first_query",
)  # fmt: skip
#: What a window job carries for execution; its cell mask is ``cp.valid``
#: regrouped, and what the engine reads of it is ``masked`` + ``validf``.
JOB_FIELDS = (
    "pass_indices", "num_groups", "num_blocks", "rows", "cols", "q_ids", "q_safe",
    "keep", "segments", "masked", "validf", "key_views", "q_start",
)  # fmt: skip


def _update(h, value):
    """Feed ``value`` to ``h``: arrays by dtype, shape and bytes, ints as ints."""
    if isinstance(value, np.ndarray):
        a = np.ascontiguousarray(value)
        h.update(f"a{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    elif dataclasses.is_dataclass(value):
        h.update(type(value).__name__.encode())
        for f in dataclasses.fields(value):
            _update(h, getattr(value, f.name))
    elif isinstance(value, (tuple, list)):
        h.update(b"(")
        for item in value:
            _update(h, item)
        h.update(b")")
    elif isinstance(value, (bool, np.bool_)):
        h.update(b"b1" if value else b"b0")
    elif isinstance(value, (int, np.integer)):
        h.update(b"i%d" % int(value))
    elif value is None:
        h.update(b"N")
    else:  # pragma: no cover - no other kind is compiled
        raise TypeError(f"cannot hash {type(value).__name__}")


def _digest(pattern):
    plan = DataScheduler(HardwareConfig()).schedule(pattern, heads=HEADS, head_dim=HEAD_DIM)
    cp = plan.compiled()
    h = hashlib.sha256()
    for name in PLAN_FIELDS:
        h.update(name.encode())
        _update(h, getattr(cp, name))
    sched = cp.schedule
    for job in sched.window_jobs:
        for name in JOB_FIELDS:
            h.update(name.encode())
            _update(h, getattr(job, name))
    for name in ("job_chains", "slab_margins", "global_start", "global_buckets"):
        h.update(name.encode())
        _update(h, getattr(sched, name))
    return h.hexdigest()


PINNED = {
    "decode-step": "7e6c85d0a4789986329a04f00d82bdfb589dc8480882da74a53cd48f2f7733ca",
    "decode-step-mid-block": "7c474f0b2ea3051786849a264689844099c0779bd7d2d64c04ae44942757afce",
    "dilated": "b75899ee647adfc15250bf02501778fe0da2e21dbb1939894afb8dce298a92cd",
    "longformer-1024-256-four": "abcfe535facb75a23b0620c459cc2055b821e3778e2d99b2f4d1aa8b28367804",
    "longformer-1024-256-none": "14342cff0bcaf8aab1729ffc996e46089b84df50d646c53ee381af33bef6b034",
    "longformer-2048-480-g0": "55328b8921f5aa6ba1119b9754a8c4aa5957a81b49e95e6e6f795babc088dbb6",
    "longformer-2048-480-g100": "e1a4f73c5aa403d2dbbff7950a6ed16f0ad1fe2dd0b7e1094d4369cc5327bbb1",
    "longformer-2048-480-g2047": "1df650b977a33123ffe3a563abce76b36a7ab8f4c5296d74251fa700f690a857",
    "longformer-2048-480-g5": "015dcac646c73d2c6ed363c2ef293f2afdff4b2cd8722832a56cb6c75d3b0b1b",
    "longformer-300-300": "8df7f2268ed0e2e2fc4e05583b111d97c059fda5737483767268a9274d7e8311",
    "longformer-3072-352-g0": "d7a460a60b01691371206239636601fedfeedfae564462069a1cbbd94a79cc93",
    "longformer-3072-352-g100": "0300058612095d0fbf5fb896faf52faf914a89569332798fe92de6e8c4ab31db",
    "longformer-3072-352-g2047": "37b39b879a3c639b50fa7a2a616addf561d3e87981e9818abc6f247ca9e5202d",
    "longformer-3072-352-g5": "5dea396e8bdd12037cfe962c6922606882328e76aeaa342131350c4953cb1f61",
    "longformer-4096-320-g0": "74b96be9c8b68c9b099618d054b607d671d5c0be216a364cd07114891d8e453d",
    "longformer-4096-320-g100": "01e7498db0efdf092d77dd95899e9cb6caf38e09b7a52743a0058aa69b9bc020",
    "longformer-4096-320-g2047": "9cf43cc425688522227d40aa934048eea377286e34e53981dfe2e8754029f1bc",
    "longformer-4096-320-g5": "73267514302111b433c5fd63e481fb4673b99347f375bd834ea775eecd3e8861",
    "sparse": "bd913fc04b24061b2aead199160e421e7f82a545dab09bbdf18c929a613158dc",
    "star": "72a14611309b52a19fd06df352b112d75e52f5fbb85d45760f3d3b08b3dbcbed",
    "vil-12": "002334cfd727e7d5f4c5b159080f08c971cabb037238f767c8f4afbb8b1d16c9",
    "vil-28": "04f6682d88d00f8fa41abbe2d2fa34e2f09e5def2f3ba8005cebc44a68ab99c8",
    "vil-56": "935bf1cf615683736b5ec3dbdaa93cabe78e1eab5dbb61d50c86949725776166",
}


def test_the_digests_cover_every_field():
    assert {f.name for f in dataclasses.fields(CompiledPlan)} - {"passes"} <= set(PLAN_FIELDS)
    assert {f.name for f in dataclasses.fields(WindowJob)} - {"valid"} <= set(JOB_FIELDS)


@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_compiled_plan_is_pinned(name):
    assert _digest(PATTERNS[name]) == PINNED[name]
