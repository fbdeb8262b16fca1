"""The step window: which rows a decode step attends, and that attending
only those rows is invisible in the bits of the row it returns."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import HardwareConfig
from repro.core.salo import SALO
from repro.decode import (
    DecodeRequest,
    DecodeScheduler,
    DecodeSession,
    KVState,
    decode_pattern,
    default_next_token,
    step_window,
)
from repro.decode.session import _MIN_STEP_ROWS
from repro.patterns.base import Band
from repro.patterns.hybrid import HybridSparsePattern
from repro.serving.batching import length_bucket

HEADS = 2
HIDDEN = 8


def _salo(array=4):
    return SALO(HardwareConfig(pe_rows=array, pe_cols=array))


def _rows(rng, n):
    return tuple(rng.standard_normal((n, HIDDEN)) for _ in range(3))


@st.composite
def band_sets(draw):
    """Non-overlapping bands: causal, symmetric, or a near + a far band."""
    d = draw(st.integers(1, 8))
    w = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(("causal", "symmetric", "multi")))
    if kind == "causal":
        return (Band(-w * d, 0, d),)
    if kind == "symmetric":
        return (Band(-w * d, w * d, d),)
    d2 = draw(st.integers(1, 4))
    hi2 = -w * d - draw(st.integers(1, 5))
    return (Band(-w * d, 0, d), Band(hi2 - draw(st.integers(0, 3)) * d2, hi2, d2))


def _tail(bands, floor):
    back = max(0, -min(b.lo for b in bands))
    lcm = math.lcm(*(b.dilation for b in bands))
    return length_bucket(max(back + lcm, _MIN_STEP_ROWS), floor)


class TestStepWindowRule:
    def test_active_globals_keep_the_whole_history(self):
        bands = (Band(-6, 0),)
        assert step_window(bands, (0,), 100, 16) == (0, 128)
        assert step_window(bands, (), 100, 16) == (36, 64)

    def test_inside_the_tail_is_the_full_bucket(self):
        bands = (Band(-40, 0),)  # tail 64
        for length in (1, 16, 17, 64):
            assert step_window(bands, (), length, 16) == (
                0,
                length_bucket(length, 16),
            )
        assert step_window(bands, (), 65, 16) == (1, 64)

    def test_tail_grows_with_band_reach_and_dilation(self):
        assert step_window((Band(-100, 0),), (), 300, 16) == (172, 128)
        # back 60 + lcm 12 = 72 rows -> 128; start is a multiple of 12
        bands = (Band(-60, 0, 4), Band(-6, 0, 6))
        assert step_window(bands, (), 300, 16) == (180, 128)

    def test_small_windows_are_held_at_the_temporary_minimum(self):
        """Window 8 would fit a 16-row tail; ``_MIN_STEP_ROWS`` (benchmark
        harness workaround) keeps it at 64 until that constant goes."""
        bands = (Band(-7, 0),)
        assert _MIN_STEP_ROWS == 64
        assert step_window(bands, (), 100, 16) == (36, 64)
        assert step_window(bands, (), 60, 16) == (0, 64)

    @given(
        bands=band_sets(),
        floor=st.sampled_from((4, 16, 32)),
        length=st.integers(1, 700),
    )
    @settings(max_examples=300, deadline=None)
    def test_window_keeps_residues_and_reach(self, bands, floor, length):
        start, bucket = step_window(bands, (), length, floor)
        lcm = math.lcm(*(b.dilation for b in bands))
        back = max(0, -min(b.lo for b in bands))
        assert 0 <= start < length <= start + bucket
        if start:
            assert bucket == _tail(bands, floor) < length_bucket(length, floor)
            assert start % lcm == 0
            assert length - start >= back + 1
        else:
            assert bucket == length_bucket(length, floor)


class TestKVStateWindow:
    def _state(self, n=20):
        state = KVState(4, bucket_floor=16)
        rng = np.random.default_rng(0)
        state.extend(*(rng.standard_normal((n, 4)) for _ in range(3)))
        return state  # 20 rows in a 32-row buffer

    def test_inside_capacity_shares_memory(self):
        state = self._state()
        for start, rows in ((0, 32), (4, 16), (16, 16)):
            for view, buf in zip(state.window(start, rows), (state._q, state._k, state._v)):
                assert view.shape == (1, rows, 4)
                assert np.shares_memory(view, buf)
                assert np.array_equal(view, buf[:, start : start + rows])

    def test_overrunning_capacity_copies_with_a_zero_tail(self):
        # dilation 6: start rounds up to a multiple of 6, so near a full
        # buffer start + bucket runs past it
        bands = (Band(-6, 0, 6),)
        state = self._state(125)
        start, bucket = step_window(bands, (), state.length, 16)
        assert (start, bucket) == (66, 64) and start + bucket > state.capacity
        q, k, v = state.window(start, bucket)
        live = state.length - start
        for view, buf in zip((q, k, v), (state._q, state._k, state._v)):
            assert view.shape == (1, bucket, 4)
            assert not np.shares_memory(view, buf)
            assert np.array_equal(view[:, :live], buf[:, start : state.length])
            assert not view[:, live:].any()

    def test_window_must_reach_the_newest_row(self):
        state = self._state()
        with pytest.raises(ValueError):
            state.window(0, 16)
        with pytest.raises(ValueError):
            state.window(-1, 32)

    def test_non_finite_rows_rejected(self):
        """The append door names the operand, the history row and the
        column it refused."""
        state = self._state()
        row = np.zeros(4)
        for bad in (np.nan, np.inf):
            poisoned = row.copy()
            poisoned[2] = bad
            with pytest.raises(ValueError, match=rf"^k holds {bad} at row 20, column 2; .*finite"):
                state.append(row, poisoned, row)
        block = np.zeros((3, 4))
        poisoned = block.copy()
        poisoned[1, 3] = -np.inf
        with pytest.raises(ValueError, match=r"^v holds -inf at row 21, column 3; "):
            state.extend(block, block, poisoned)
        assert state.length == 20


@given(
    bands=band_sets(),
    floor=st.sampled_from((4, 16)),
    array=st.sampled_from((4, 32)),
    offset=st.integers(-2, 40),
    buckets_beyond=st.integers(0, 2),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_step_row_equals_full_bucket_recompute(
    bands, floor, array, offset, buckets_beyond, seed
):
    """Lengths straddling the tail and up to two KV buckets beyond it: the
    row a step returns is, bit for bit, row ``L-1`` of a fresh engine's
    whole-history attend at the KV bucket."""
    tail = _tail(bands, floor)
    length = max(2, (tail << buckets_beyond) + offset)
    rng = np.random.default_rng(seed)
    q, k, v = _rows(rng, length)
    session = DecodeSession(
        HybridSparsePattern(16, bands, ()),
        salo=_salo(array),
        heads=HEADS,
        bucket_floor=floor,
    )
    session.prefill(q[:-1], k[:-1], v[:-1])
    out = session.step(q[-1], k[-1], v[-1])

    bucket = length_bucket(length, floor)
    padded = np.zeros((3, 1, bucket, HIDDEN))
    padded[:, 0, :length] = q, k, v
    full = _salo(array).attend(
        decode_pattern(bands, (), bucket, length), *padded, heads=HEADS, valid_lens=[length]
    ).output[0, length - 1]
    assert np.array_equal(out, full)


def test_group_mixing_short_and_long_lanes_matches_solo_sessions():
    """One dispatch holds a lane shorter than the tail (start 0, padded up
    to the group bucket) and lanes far past it (tail windows at different
    starts); every lane still equals its solo session bit for bit."""
    pattern = HybridSparsePattern(16, [Band(-8, 0, 2)], ())  # tail 64
    prompts = (3, 40, 150)
    requests = []
    for i, n in enumerate(prompts):
        rng = np.random.default_rng((11, i))
        q, k, v = _rows(rng, n)
        requests.append(
            DecodeRequest(f"seq-{i}", pattern, q, k, v, max_new_tokens=6, heads=HEADS, seed=3)
        )
    sched = DecodeScheduler(salo=_salo(), max_lanes=4)
    for request in requests:
        sched.submit(request)
    report = sched.step()
    assert (report.dispatches, report.lanes, report.bucket) == (1, 3, 64)
    result = sched.run()
    assert set(sched.salo.cache_info()["buckets"]) == {64}

    for request in requests:
        session = DecodeSession(pattern, salo=_salo(), heads=HEADS)
        rng = request.rng()
        row = session.prefill(request.prompt_q, request.prompt_k, request.prompt_v)[-1]
        rows = [row]
        for _ in range(request.max_new_tokens - 1):
            row = session.step(*default_next_token(row, rng))
            rows.append(row)
        assert np.array_equal(result.outputs[request.request_id], np.stack(rows))


@given(
    bands=band_sets(),
    floor=st.sampled_from((4, 16)),
    prompt=st.integers(1, 40),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=12, deadline=None)
def test_long_walk_compiles_at_most_log2_step_plans_per_bucket(bands, floor, prompt, seed):
    """A step plan starts its queries at ``bucket - length_bucket(bucket -
    (valid - 1), 1)``, so however long the walk, a bucket compiles its
    full plan plus at most ``log2(bucket)`` step plans."""
    rng = np.random.default_rng(seed)
    salo = _salo()
    session = DecodeSession(
        HybridSparsePattern(16, bands, ()), salo=salo, heads=HEADS, bucket_floor=floor
    )
    session.prefill(*_rows(rng, prompt))
    for _ in range(150):
        session.step(*(r[0] for r in _rows(rng, 1)))
    for bucket, counts in salo.cache_info()["buckets"].items():
        assert counts["misses"] <= 1 + int(math.log2(bucket)), (bucket, counts)
