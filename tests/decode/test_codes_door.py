"""The codes door: decode reads its KV as operand codes, one plan per first query.

``SALO.attend_codes`` on the code windows a :class:`KVState` holds must
equal ``SALO.attend`` on the float windows those codes came from, bit
for bit, on every row a plan computes; and a decode step runs one engine
call per distinct first query among its lanes, each lane's row
bit-equal to its solo :class:`DecodeSession`.
"""

import numpy as np
import pytest

from repro.accelerator.functional import EngineError, FunctionalEngine
from repro.core.config import HardwareConfig, NumericsConfig
from repro.core.salo import SALO
from repro.decode import (
    DecodeRequest,
    DecodeScheduler,
    DecodeSession,
    KVState,
    decode_pattern,
    default_next_token,
)
from repro.patterns.base import Band
from repro.patterns.hybrid import HybridSparsePattern
from repro.patterns.window import SlidingWindowPattern
from repro.serving.batching import length_bucket

HEADS = 2
HIDDEN = 8


def _operands(salo, pattern, lens, heads=HEADS, hidden=HIDDEN, seed=0):
    """Zero-padded float operands ``(b, n, hidden)`` and the code windows
    KV states built from their valid rows hold."""
    rng = np.random.default_rng(seed)
    n = pattern.n
    floats = np.zeros((3, len(lens), n, hidden))
    windows = ([], [], [])
    for i, length in enumerate(lens):
        rows = rng.standard_normal((3, length, hidden))
        floats[:, i, :length] = rows
        state = KVState(hidden, heads=heads, numerics=salo.config.numerics)
        state.extend(*rows)
        for store, window in zip(windows, state.window(0, n)):
            store.append(window)
    return floats, windows


# (pattern, valid lens): steps of a 64-row bucket on an 8 x 8 array
_CASES = {
    "one-row-step": (HybridSparsePattern(64, [Band(-63, 0)], (), 63), [64, 64, 64]),
    "padded-lanes": (HybridSparsePattern(64, [Band(-63, 0)], (), 32), [64, 60, 33, 49]),
    "later-block": (HybridSparsePattern(64, [Band(-20, 0)], (), 41), [64, 50, 42]),
    "dilated": (HybridSparsePattern(64, [Band(-16, 0, 2)], (), 48), [64, 57, 49]),
    "multi-band": (HybridSparsePattern(64, [Band(-3, 0), Band(-20, -12)], (), 56), [64, 61, 57]),
    "global-tokens": (HybridSparsePattern(64, [Band(-15, 0)], (0, 5), 0), [64, 40, 9]),
    "full-plan": (HybridSparsePattern(64, [Band(-8, 0)], ()), [64, 64]),
}


@pytest.mark.parametrize("backend", ["functional", "functional-legacy"])
@pytest.mark.parametrize("case", sorted(_CASES))
def test_codes_door_equals_the_float_door(backend, case):
    pattern, lens = _CASES[case]
    salo = SALO(HardwareConfig(pe_rows=8, pe_cols=8), backend=backend)
    floats, windows = _operands(salo, pattern, lens)
    first = pattern.first_query
    want = salo.attend(pattern, *floats, heads=HEADS, valid_lens=lens)
    got = salo.attend_codes(pattern, *windows, heads=HEADS, valid_lens=lens)
    assert got.output.shape == want.output.shape == (len(lens), 64, HIDDEN)
    assert np.array_equal(got.output[:, first:], want.output[:, first:])
    assert got.functional.merges == want.functional.merges
    assert got.plan is want.plan and got.stats is want.stats
    if backend == "functional":
        assert salo._plan_cache[salo._plan_key(pattern, HEADS, HIDDEN // HEADS)].engine.tiled


def test_reference_path_numerics_keep_the_codes_door_exact():
    """Datapaths the production path refuses run the reference path on
    ``codes x resolution``: 12-bit inputs (float32 codes) and 30-bit ones
    (too wide for float32, so the KV keeps float64 codes)."""
    pattern, lens = _CASES["padded-lanes"]
    for bits, frac in ((12, 6), (30, 24)):
        numerics = NumericsConfig(input_bits=bits, input_frac_bits=frac)
        salo = SALO(HardwareConfig(pe_rows=8, pe_cols=8).with_numerics(numerics))
        floats, windows = _operands(salo, pattern, lens)
        want = salo.attend(pattern, *floats, heads=HEADS, valid_lens=lens)
        got = salo.attend_codes(pattern, *windows, heads=HEADS, valid_lens=lens)
        assert not salo._plan_cache[salo._plan_key(pattern, HEADS, HIDDEN // HEADS)].engine.tiled
        assert np.array_equal(got.output[:, 32:], want.output[:, 32:]), bits


def test_a_stacked_array_is_a_sequence_of_windows():
    pattern, lens = _CASES["padded-lanes"]
    salo = SALO(HardwareConfig(pe_rows=8, pe_cols=8))
    _, windows = _operands(salo, pattern, lens)
    listed = salo.attend_codes(pattern, *windows, heads=HEADS, valid_lens=lens)
    stacked = salo.attend_codes(pattern, *map(np.stack, windows), heads=HEADS, valid_lens=lens)
    assert np.array_equal(listed.output, stacked.output)


class TestRunCodesChecks:
    """``run_codes`` refuses what ``run`` refuses."""

    def _engine(self):
        pattern = HybridSparsePattern(16, [Band(-4, 0)], (2,))
        plan = SALO(HardwareConfig(pe_rows=4, pe_cols=4)).schedule(pattern, heads=2, head_dim=4)
        return FunctionalEngine(plan), np.zeros((2, 2, 16, 4), dtype=np.float32)

    def test_window_shape(self):
        engine, w = self._engine()
        with pytest.raises(EngineError, match="heads, n, head_dim"):
            engine.run_codes(w[:, :, :8], w[:, :, :8], w[:, :, :8])
        with pytest.raises(EngineError, match="heads, n, head_dim"):
            engine.run_codes(w, w[:, :1], w)

    def test_window_counts(self):
        engine, w = self._engine()
        with pytest.raises(EngineError, match="same number"):
            engine.run_codes(w, w[:1], w)
        with pytest.raises(EngineError, match="same number"):
            engine.run_codes([], [], [])

    def test_valid_lens(self):
        engine, w = self._engine()
        with pytest.raises(EngineError, match="one length per sequence"):
            engine.run_codes(w, w, w, valid_lens=[16])
        with pytest.raises(EngineError, match="must lie in"):
            engine.run_codes(w, w, w, valid_lens=[16, 17])
        with pytest.raises(EngineError, match="valid prefix"):
            engine.run_codes(w, w, w, valid_lens=[16, 2])

    def test_heads_must_match_and_systolic_takes_no_codes(self):
        salo = SALO(HardwareConfig(pe_rows=4, pe_cols=4))
        w = np.zeros((1, 2, 16, 4), dtype=np.float32)
        pattern = SlidingWindowPattern.causal(16, 4)
        with pytest.raises(ValueError, match="heads"):
            salo.attend_codes(pattern, w, w, w, heads=4)
        systolic = SALO(HardwareConfig(pe_rows=4, pe_cols=4), backend="systolic")
        with pytest.raises(ValueError, match="takes no operand codes"):
            systolic.attend_codes(pattern, w, w, w, heads=2)


def test_exact_numerics_session_keeps_its_contract():
    """On ``exact()`` numerics the KV holds float64 values and the engine
    runs its reference path; every step row is still row ``L-1`` of a
    whole-history float attend at the KV bucket, bit for bit, and
    prefill equals the exact-length attend."""
    config = HardwareConfig(pe_rows=4, pe_cols=4).exact()
    pattern = HybridSparsePattern(16, [Band(-8, 0, 2)], ())
    session = DecodeSession(pattern, salo=SALO(config), heads=HEADS)
    rng = np.random.default_rng(3)
    q, k, v = (rng.standard_normal((90, HIDDEN)) for _ in range(3))
    out = session.prefill(q[:5], k[:5], v[:5])
    assert session.state._q.dtype == np.float64
    ref = SALO(config).attend(decode_pattern(pattern.bands(), (), 5, 5), q[:5], k[:5], v[:5],
                              heads=HEADS)
    assert np.array_equal(out, ref.output)
    for length in range(6, 91):
        row = session.step(q[length - 1], k[length - 1], v[length - 1])
        bucket = length_bucket(length)
        padded = np.zeros((3, 1, bucket, HIDDEN))
        padded[:, 0, :length] = q[:length], k[:length], v[:length]
        full = SALO(config).attend(
            decode_pattern(pattern.bands(), (), bucket, length), *padded, heads=HEADS,
            valid_lens=[length],
        ).output[0, length - 1]
        assert np.array_equal(row, full), length


# -- one engine call per distinct first query ----------------------------------

_WINDOW = SlidingWindowPattern.causal(256, 8)


def _salo():
    return SALO(HardwareConfig(pe_rows=4, pe_cols=4))


def _request(i, prompt, budget):
    rng = np.random.default_rng((31, i))
    q, k, v = (rng.standard_normal((prompt, HIDDEN)) for _ in range(3))
    return DecodeRequest(f"seq-{i}", _WINDOW, q, k, v, max_new_tokens=budget, heads=HEADS, seed=i)


def _solo(request):
    session = DecodeSession(request.pattern, salo=_salo(), heads=HEADS)
    row = session.prefill(request.prompt_q, request.prompt_k, request.prompt_v)[-1]
    rng, rows = request.rng(), [row]
    for _ in range(request.max_new_tokens - 1):
        row = session.step(*default_next_token(row, rng))
        rows.append(row)
    return np.stack(rows)


def _counted(monkeypatch, sched):
    """Record each step's engine calls by the first query of their plan."""
    calls = []
    door = sched.salo.attend_codes

    def counting(pattern, *args, **kwargs):
        calls.append((pattern.n, pattern.first_query, len(kwargs["valid_lens"])))
        return door(pattern, *args, **kwargs)

    monkeypatch.setattr(sched.salo, "attend_codes", counting)
    return calls


def test_lanes_at_three_first_queries_make_three_calls(monkeypatch):
    """Windows of 25, 40 and 64 rows at bucket 64 keep rows in three
    different blocks: first queries 0, 32 and 63, one call each, and
    every lane's rows equal its solo session's."""
    requests = [_request(0, 25, 4), _request(1, 40, 4), _request(2, 100, 4)]
    sched = DecodeScheduler(salo=_salo(), max_lanes=3)
    for r in requests:
        sched.submit(r)
    calls = _counted(monkeypatch, sched)
    report = sched.step()
    assert (report.lanes, report.dispatches, report.bucket) == (3, 1, 64)
    assert calls == [(64, 0, 1), (64, 32, 1), (64, 63, 1)]
    result = sched.run()
    for r in requests:
        assert np.array_equal(result.outputs[r.request_id], _solo(r)), r.request_id


def test_lanes_sharing_a_first_query_make_one_call(monkeypatch):
    requests = [_request(i, prompt, 5) for i, prompt in enumerate((100, 120, 130))]
    sched = DecodeScheduler(salo=_salo(), max_lanes=3)
    for r in requests:
        sched.submit(r)
    calls = _counted(monkeypatch, sched)
    steps = 0
    while sched.active or sched.queued:
        before = len(calls)
        sched.step()
        steps += 1
        assert calls[before:] == [(64, 63, 3)]
    assert steps == 5
    for r in requests:
        assert np.array_equal(sched.completed[r.request_id], _solo(r)), r.request_id
