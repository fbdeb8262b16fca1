"""Pinned session outcomes: batching, outputs and admission by hash.

Each scenario drives a :class:`ServingSession` through a script of
``submit`` / ``step`` / ``drain`` calls and hashes what does not depend
on the clock:

* what every ``submit`` returned and ``pending`` after every call;
* which requests rode together, in order — the batches ``step`` returned
  and the members of every engine call (read off the stacked operands);
* every output's bytes and batch size;
* ``rejected`` per class, and ``completed`` / ``batches`` /
  ``mean_batch_size`` of :meth:`ServingSession.stats`.

The session clock ticks a fixed step per read, so arrival order is
submission order however often the session reads it; the token bucket
refills at a rate no run lasts long enough to earn a token at.  A change
that moves a hash changed what the session serves, batches or admits.
"""

import hashlib

import numpy as np
import pytest

from repro.api import engine_factory
from repro.core.config import HardwareConfig
from repro.core.salo import SALO
from repro.patterns.base import AttentionPattern, Band
from repro.patterns.hybrid import HybridSparsePattern
from repro.patterns.library import longformer_pattern
from repro.serving import (
    EstimatedWaitCap,
    QueueDepthCap,
    ServingSession,
    TokenBucketAdmission,
)


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1e-3
        return self.t


class _Opaque(AttentionPattern):
    """Mask-only: every row sees itself and its left neighbour."""

    def row_keys(self, i):
        return np.asarray(sorted({max(i - 1, 0), i}), dtype=np.int64)


class _Recording:
    """An engine that logs which requests each attend call carried."""

    def __init__(self, engine, ids):
        self._engine = engine
        self._ids = ids  # q bytes -> request id
        self.calls = []

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def attend(self, pattern, q, k, v, heads=1, valid_lens=None, **kw):
        rows = q if q.ndim == 3 else q[None]
        lens = valid_lens if valid_lens is not None else [rows.shape[1]] * len(rows)
        self.calls.append(tuple(self._ids[row[:n].tobytes()] for row, n in zip(rows, lens)))
        return self._engine.attend(pattern, q, k, v, heads=heads, valid_lens=valid_lens, **kw)


def _data(n, hidden, seed):
    rng = np.random.default_rng(seed)
    return tuple(rng.standard_normal((n, hidden)) for _ in range(3))


def _digest(session, script, ids):
    trace = []
    for op, kwargs in script:  # kwargs: a submit's (id, pattern, hidden, keywords)
        if op == "submit":
            rid, pattern, hidden, kwargs = kwargs
            q, k, v = _data(pattern.n, hidden, seed=len(ids))
            ids[q.tobytes()] = rid
            trace.append(("submit", session.submit(pattern, q, k, v, request_id=rid, **kwargs)))
        elif op == "step":
            batch = session.step()
            trace.append(("step", None if batch is None else [r.request_id for r in batch.requests]))
        else:
            trace.append(("drain", sorted(session.drain(), key=repr)))
        trace.append(("pending", session.pending))
    calls = getattr(session.salo, "calls", None)
    results = sorted(session.results.items(), key=lambda kv: repr(kv[0]))
    outputs = [
        (rid, r.batch_size, r.output.shape, hashlib.sha256(r.output.tobytes()).hexdigest())
        for rid, r in results
    ]
    stats = session.stats()
    summary = (
        sorted(session.rejected.items()),
        stats.completed,
        stats.batches,
        repr(stats.mean_batch_size),
        stats.rejected,
    )
    blob = repr((trace, calls, outputs, summary)).encode()
    return hashlib.sha256(blob).hexdigest()


def _submit(rid, pattern, hidden=8, **kwargs):
    return ("submit", (rid, pattern, hidden, kwargs))


_STEP, _DRAIN = ("step", {}), ("drain", {})
_WIN = longformer_pattern(24, 6, (0,))
_DIL = HybridSparsePattern(24, [Band(-4, 4, 2)], ())
_LONG = longformer_pattern(40, 8, (0,))


def _exact():
    return SALO(HardwareConfig(pe_rows=4, pe_cols=4).exact())


def _mixed():
    order = [_WIN, _DIL, _WIN, _LONG, _WIN, _DIL, _WIN, _LONG, _DIL, _WIN, _WIN]
    script = [_submit(f"m{i}", p) for i, p in enumerate(order)] + [_DRAIN]
    return dict(max_batch_size=3), _exact, script


def _padded():
    script = [
        _submit(i, longformer_pattern(n, 6, (0,)), heads=2)
        for i, n in enumerate((20, 27, 32, 24, 30, 17, 40, 64, 33))
    ] + [_submit(100, _DIL, heads=2), _DRAIN]
    return dict(max_batch_size=4, pad_to_bucket=True), _exact, script


def _depth_cap():
    s = [_submit(i, _WIN, slo_class="gold" if i % 2 else "bulk") for i in range(5)]
    s += [_STEP, _submit(5, _DIL), _submit(6, _WIN, slo_class="gold"), _STEP, _STEP]
    s += [_submit(i, _DIL, slo_class="gold") for i in range(7, 11)] + [_STEP, _DRAIN, _STEP]
    return dict(max_batch_size=2, admission=QueueDepthCap(max_depth=3)), _exact, s


def _wait_cap():
    unit = _exact().estimate(_WIN, heads=2, head_dim=4).latency_s
    budget = 3.5 * unit  # admitted at depths 0-2, doomed from depth 3 on
    s = [_submit(i, _WIN, heads=2, deadline_s=budget) for i in range(5)]
    s += [_submit(5, _WIN, heads=2, slo_class="bulk"), _STEP]
    s += [_submit(i, _WIN, heads=2, deadline_s=budget) for i in range(6, 9)] + [_STEP, _STEP]
    s += [_submit(9, _WIN, heads=2, deadline_s=budget), _DRAIN]
    return dict(max_batch_size=2, admission=EstimatedWaitCap(slack=1.0)), _exact, s


def _token_bucket():
    bucket = TokenBucketAdmission(rates={"gold": 1e-6, ("bulk", "a"): 1e-6}, burst=2.0)
    s = []
    for i in range(4):
        s += [_submit(f"g{i}", _WIN, slo_class="gold"), _submit(f"a{i}", _DIL, slo_class="bulk", client_id="a")]
        s += [_submit(f"b{i}", _DIL, slo_class="bulk", client_id="b"), _STEP]
    return dict(max_batch_size=4, admission=bucket), _exact, s + [_DRAIN]


def _dense_opaque():
    s = [_submit(f"o{i}", _Opaque(12), hidden=4) for i in range(3)]
    s += [_submit("w0", _WIN, hidden=4), _submit("w1", _WIN, hidden=4), _STEP, _STEP, _DRAIN]
    return dict(salo=engine_factory("dense")(), max_batch_size=4), None, s


def _systolic():
    def engine():
        return SALO(HardwareConfig(pe_rows=4, pe_cols=4), strict_global_bound=False, backend="systolic")

    pattern = longformer_pattern(16, 4, (0,))
    s = [_submit(i, pattern, heads=2) for i in range(3)] + [_STEP, _STEP]
    return dict(max_batch_size=4), engine, s


_SCENARIOS = {
    "mixed": _mixed,
    "padded": _padded,
    "depth-cap": _depth_cap,
    "wait-cap": _wait_cap,
    "token-bucket": _token_bucket,
    "dense-opaque": _dense_opaque,
    "systolic": _systolic,
}

_PINNED = {
    "mixed": "c13219945a12fb408aaa86eba7539ebf721034a861088219362cd6bd9b243327",
    "padded": "65caa085f9817b9f98d473aa5927b6846dd83c6a0476d1b580c30420aa467fa8",
    "depth-cap": "b143ad00c833e7d3542c5c9e46451d3d63b0b0bdfe69b72300dacefde226f827",
    "wait-cap": "18c422d6107b8cc9b59a97f1369f947b7fe5e0f666bcf2a750480349fdea1eee",
    "token-bucket": "6e0da99b07fd91cb1a45eb7b5afb3c32669eca75711e86ed01a8cf5f8756e3d5",
    "dense-opaque": "c7ab2a8e66c37f704fec9bcd11e3ec4d9839056534998c2edff2138bf4a35b20",
    "systolic": "d37e3899b059bde975fd1d819d1284c9c436800e935b7314214021defa99ebd0",
}


@pytest.mark.parametrize("name", sorted(_SCENARIOS))
def test_session_outcomes_are_pinned(name):
    kwargs, engine, script = _SCENARIOS[name]()
    ids = {}
    if engine is not None:
        kwargs["salo"] = _Recording(engine(), ids)
    session = ServingSession(clock=_Clock(), **kwargs)
    assert _digest(session, script, ids) == _PINNED[name]
