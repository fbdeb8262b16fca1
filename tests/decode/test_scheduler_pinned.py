"""Pinned scheduler outcomes: steps, outputs, failures and counters by hash.

Each scenario drives a :class:`DecodeScheduler` through a script of
``submit`` / ``step`` / ``run`` calls and hashes what it did:

* every ``DecodeStepReport`` and ``queued`` / ``active`` after each call;
* each completed sequence's output bytes, in ``completed`` order;
* ``failed`` reasons per ``request_id``;
* the ``steps`` / ``dispatches`` / ``tokens`` / ``peak_lanes`` /
  ``lane_steps`` counters and the engine's ``cache_info()``.

A change that moves a hash changed which lanes step together, at which
bucket, what they produce or how the run is counted.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core.config import HardwareConfig
from repro.core.salo import SALO
from repro.decode import DecodeRequest, DecodeScheduler, default_next_token
from repro.patterns.base import Band
from repro.patterns.hybrid import HybridSparsePattern
from repro.patterns.window import SlidingWindowPattern

HEADS = 2
HIDDEN = 8

_WINDOW = SlidingWindowPattern.causal(16, 6)
_DILATED = HybridSparsePattern(16, [Band(-8, 0, 2)], ())
_GLOBAL = HybridSparsePattern(64, [Band(-6, 0)], (0, 5))


def _request(i, prompt, budget, pattern=_WINDOW, next_token=None):
    rng = np.random.default_rng((23, i))
    q, k, v = (rng.standard_normal((prompt, HIDDEN)) for _ in range(3))
    return DecodeRequest(
        f"seq-{i}", pattern, q, k, v, max_new_tokens=budget, heads=HEADS, seed=i,
        next_token=next_token,
    )


def _poisoned(at):
    """Token feedback whose ``at``-th call hands back a non-finite key."""
    calls = []

    def source(out_row, rng):
        calls.append(1)
        q, k, v = default_next_token(out_row, rng)
        if len(calls) == at:
            k[1] = np.nan
        return q, k, v

    return source


def _digest(sched, script):
    trace = []
    for op, arg in script:
        if op == "submit":
            sched.submit(arg)
        elif op == "step":
            trace.append(dataclasses.astuple(sched.step()))
        else:
            result = sched.run()
            trace.append(("run", result.steps, result.dispatches, result.tokens,
                          result.peak_lanes, result.lane_steps, sorted(result.outputs)))
        trace.append((sched.queued, sched.active))
    outputs = [
        (rid, out.shape, hashlib.sha256(out.tobytes()).hexdigest())
        for rid, out in sched.completed.items()
    ]
    counters = (sched.steps, sched.dispatches, sched.tokens, sched.peak_lanes, sched.lane_steps)
    blob = repr((trace, outputs, sorted(sched.failed.items()), counters,
                 sched.salo.cache_info()))
    return hashlib.sha256(blob.encode()).hexdigest()


_RUN = ("run", None)


def _two_structures():
    patterns = (_WINDOW, _DILATED, _WINDOW, _DILATED, _DILATED, _WINDOW)
    script = [("submit", _request(i, 3 + 5 * i, 4 + i % 3, p)) for i, p in enumerate(patterns)]
    return dict(max_lanes=4), script + [_RUN]


def _global_mid_run():
    script = [("submit", _request(i, n, 7, _GLOBAL)) for i, n in enumerate((2, 3, 9, 4))]
    return dict(max_lanes=3), script + [_RUN]


def _poisoned_next_token():
    victim = _request(1, 6, 5, next_token=_poisoned(2))
    late = _request(3, 4, 6, _DILATED, next_token=_poisoned(4))
    script = [("submit", _request(0, 5, 5)), ("submit", victim), ("submit", _request(2, 8, 4)),
              ("step", None), ("submit", late), ("step", None), ("step", None)]
    return dict(max_lanes=4), script + [_RUN]


def _lanes(width):
    def scenario():
        script = [("submit", _request(i, 2 + 3 * i, 3 + i % 4)) for i in range(9)]
        return dict(max_lanes=width), script + [_RUN]

    return scenario


def _submits_between_steps():
    script = [("submit", _request(0, 5, 6)), ("step", None), ("step", None),
              ("submit", _request(1, 20, 3, _DILATED)), ("step", None),
              ("submit", _request(2, 7, 5)), ("submit", _request(3, 11, 2)),
              ("step", None), ("step", None), ("submit", _request(4, 1, 4)),
              ("step", None)]
    return dict(max_lanes=3), script + [_RUN]


def _floor(floor):
    def scenario():
        script = [("submit", _request(i, n, 5, p))
                  for i, (n, p) in enumerate(((3, _WINDOW), (30, _DILATED), (70, _WINDOW), (12, _GLOBAL)))]
        return dict(max_lanes=4, bucket_floor=floor), script + [_RUN]

    return scenario


_SCENARIOS = {
    "two-structures": _two_structures,
    "global-mid-run": _global_mid_run,
    "poisoned-next-token": _poisoned_next_token,
    "lanes-1": _lanes(1),
    "lanes-8": _lanes(8),
    "submits-between-steps": _submits_between_steps,
    "floor-16": _floor(16),
    "floor-32": _floor(32),
}

_PINNED = {
    "two-structures": "ddae40259f4a652577feeec4e1dc38a3348b1e2094362d676e92c285d7c7af8d",
    "global-mid-run": "038d1b596bbc6392649a47e7076d524de1408c31ab1c466a4c658ccce548d0d8",
    "poisoned-next-token": "ddb15dfca2b54e18f3e8a59ffada7a73f61fef1defbd610904aadfa4a616fb08",
    "lanes-1": "31322836d56f32c962272cf477465fcaa007f9279fa3ee55c494689bc4427b2b",
    "lanes-8": "e97f1b1e2f34283f348c898399538f27f6e87475d3b1deafbf7c97bb00e367ca",
    "submits-between-steps": "9304400aecde71f0507283c1e9666a66e130a0461a886c0cd6b7bf6911d71983",
    "floor-16": "eb74da26f35adb36d7b01cf304194d8415ca1f4da2bbf1f30faab9acf72dcfec",
    "floor-32": "d318de26386a8a795302d5920a6ac820d146964678ed432f5c4cedc1077be4fb",
}


@pytest.mark.parametrize("name", sorted(_SCENARIOS))
def test_scheduler_outcomes_are_pinned(name):
    kwargs, script = _SCENARIOS[name]()
    sched = DecodeScheduler(SALO(HardwareConfig(pe_rows=4, pe_cols=4)), **kwargs)
    assert _digest(sched, script) == _PINNED[name]
