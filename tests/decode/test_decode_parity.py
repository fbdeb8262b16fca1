"""Decode step bit-identity contracts (style of test_batched_equivalence).

Three tiers, from strongest to weakest, all pinned:

1. the row every step returns is bit-identical to row ``L-1`` of a
   *from-scratch full-length recompute* — a fresh engine handed the
   entire history in one call (KV bucket, ``valid_lens``), a different
   plan from the step-window one the session ran, reproduces it
   byte-for-byte, across bucket boundaries;
2. for banded patterns (sliding window, dilated, multi-band) it is bit-
   identical to the *exact-length* ``attend()`` with no padding at all
   (and so is ``prefill``'s full output);
3. global-token patterns keep tier-2 identity on every non-global row;
   the global rows depend on the padded length through the engine's
   global-row pass grouping (partial-softmax regrouping under the exp
   LUT) and are pinned as close-but-regrouped.
"""

import numpy as np
import pytest

from repro.core.config import HardwareConfig
from repro.core.salo import SALO
from repro.decode import DecodeSession, KVState, decode_pattern
from repro.patterns.base import Band
from repro.patterns.hybrid import HybridSparsePattern
from repro.patterns.window import SlidingWindowPattern

HEADS = 2
HIDDEN = 8
FLOOR = 16

# banded: exact-length bit identity holds at every (length, bucket)
BANDED_CASES = [
    ("causal-window", lambda n: SlidingWindowPattern.causal(n, 6)),
    ("symmetric-window", lambda n: SlidingWindowPattern.symmetric(n, 5)),
    ("dilated", lambda n: HybridSparsePattern(n, [Band(-8, 0, 2)], ())),
    ("multi-band", lambda n: HybridSparsePattern(n, [Band(-3, 0), Band(-12, -8)], ())),
]

# global tokens activate once the sequence grows past them
GLOBAL_CASES = [
    ("window+global", lambda n: HybridSparsePattern(n, [Band(-6, 0)], (0,))),
    (
        "window+late-global",
        lambda n: HybridSparsePattern(
            n, [Band(-6, 0)], tuple(g for g in (0, 20) if g < n)
        ),
    ),
]

ALL_CASES = BANDED_CASES + GLOBAL_CASES


def _salo():
    return SALO(HardwareConfig(pe_rows=4, pe_cols=4))


def _global_rows(pattern, n):
    return [g for g in pattern(n).global_tokens() if g < n]


class _Walk:
    """Drive a session and keep the exact history for references."""

    def __init__(self, make_pattern, prompt_len=5, seed=0):
        self.make_pattern = make_pattern
        self.rng = np.random.default_rng(seed)
        self.salo = _salo()
        # the family pattern carries EVERY global of the structure; a
        # short instance would silently truncate the family (the n<16
        # filter in the case lambdas is for exact-length references)
        self.session = DecodeSession(
            make_pattern(64), salo=self.salo, heads=HEADS, bucket_floor=FLOOR
        )
        self.q = self.rng.standard_normal((prompt_len, HIDDEN))
        self.k = self.rng.standard_normal((prompt_len, HIDDEN))
        self.v = self.rng.standard_normal((prompt_len, HIDDEN))
        self.session.prefill(self.q, self.k, self.v)

    def step(self):
        rows = [self.rng.standard_normal(HIDDEN) for _ in range(3)]
        out = self.session.step(*rows)
        self.q = np.vstack([self.q, rows[0]])
        self.k = np.vstack([self.k, rows[1]])
        self.v = np.vstack([self.v, rows[2]])
        return out


@pytest.mark.parametrize("name,make", ALL_CASES, ids=[c[0] for c in ALL_CASES])
def test_every_step_matches_from_scratch_recompute(name, make):
    """Tier 1: incremental KV state and the step window add zero drift.

    A separate engine recomputing the whole history from scratch in a
    single call (KV-bucket pattern, ``valid_lens``) yields, in its last
    row, byte-for-byte the row the step returned at every length,
    across the KV crossings at 17, 33 and 65 and, from length 65 on,
    with the step attending only its 64-row tail.
    """
    walk = _Walk(make)
    ref = _salo()
    for _ in range(95):  # length 6..100
        out = walk.step()
        sess = walk.session
        L, bucket = sess.length, sess.bucket
        pattern = sess.bucket_pattern()
        qp = np.zeros((bucket, HIDDEN))
        kp = np.zeros((bucket, HIDDEN))
        vp = np.zeros((bucket, HIDDEN))
        qp[:L], kp[:L], vp[:L] = walk.q, walk.k, walk.v
        scratch = ref.attend(
            pattern, qp[None], kp[None], vp[None], heads=HEADS, valid_lens=[L]
        ).output[0, :L]
        assert np.array_equal(out, scratch[-1])
    # the last step also against a brand-new engine (cold compile path)
    cold = _salo().attend(
        pattern, qp[None], kp[None], vp[None], heads=HEADS, valid_lens=[L]
    ).output[0, :L]
    assert np.array_equal(out, cold[-1])


@pytest.mark.parametrize("name,make", BANDED_CASES, ids=[c[0] for c in BANDED_CASES])
def test_banded_steps_match_exact_length_attend(name, make):
    """Tier 2: no-padding exact-length parity for banded patterns."""
    walk = _Walk(make)
    ref = _salo()
    for _ in range(95):  # length 6..100: tail steps from 65 on
        out = walk.step()
        L = walk.session.length
        exact = ref.attend(make(L), walk.q, walk.k, walk.v, heads=HEADS).output
        assert np.array_equal(out, exact[-1])


@pytest.mark.parametrize("name,make", GLOBAL_CASES, ids=[c[0] for c in GLOBAL_CASES])
def test_global_patterns_exact_on_nonglobal_rows(name, make):
    """Tier 3: the returned row has exact-length parity unless it is a
    global row, which regroups with the padded length (documented
    engine behaviour) and stays within LUT-regrouping distance.  Only
    a global token past the prompt is ever the row a step returns."""
    walk = _Walk(make)
    ref = _salo()
    saw_regroup_rows = False
    for _ in range(45):
        out = walk.step()
        L = walk.session.length
        exact = ref.attend(make(L), walk.q, walk.k, walk.v, heads=HEADS).output
        if L - 1 in _global_rows(make, L):
            saw_regroup_rows = True
            assert np.allclose(out, exact[-1], atol=0.05)
        else:
            assert np.array_equal(out, exact[-1])
    assert saw_regroup_rows == (20 in make(64).global_tokens())


def test_prefill_matches_exact_length_attend():
    rng = np.random.default_rng(1)
    q, k, v = (rng.standard_normal((11, HIDDEN)) for _ in range(3))
    session = DecodeSession(
        SlidingWindowPattern.causal(FLOOR, 6), salo=_salo(), heads=HEADS
    )
    out = session.prefill(q, k, v)
    exact = _salo().attend(
        SlidingWindowPattern.causal(11, 6), q, k, v, heads=HEADS
    ).output
    assert np.array_equal(out, exact)


def test_bucket_crossings_are_the_only_compiles():
    """Compiles stop at the step bucket (64 rows while the temporary
    minimum stands): the KV buckets past it (storage) compile nothing.
    Inside a bucket a step plan starts its queries at the power-of-two
    block of rows (one row or more) holding the kept row, so a bucket
    compiles at most 1 + log2(bucket) plans.  Here: at 16 the prefill's
    full plan and four step plans (first query 8, 12, 14, 15); at 32
    five (16, 24, 28, 30, 31); at 64 six (32, 48, 56, 60, 62, then 63
    from length 64 on, through every windowed step after)."""
    walk = _Walk(BANDED_CASES[0][1], prompt_len=10)
    for _ in range(130):  # 10 -> 140 tokens: KV buckets 16 .. 256
        walk.step()
    info = walk.salo.cache_info()
    assert walk.session.bucket_crossings == 4
    assert walk.session.bucket == 256
    assert {n: b["misses"] for n, b in info["buckets"].items()} == {16: 5, 32: 5, 64: 6}
    assert info["misses"] == 16
    assert info["hits"] == walk.session.steps - 16


def test_late_global_activation_costs_one_structural_compile():
    """A global token past the prompt joins the structure the step the
    sequence grows past it — one extra miss, same bucket."""
    make = GLOBAL_CASES[1][1]  # globals (0, 20)
    walk = _Walk(make, prompt_len=5)
    for _ in range(25):  # 5 -> 30: global 20 activates at length 21
        walk.step()
    info = walk.salo.cache_info()
    # bucket 16: one structure (global 20 inactive); bucket 32: both
    # the inactive and the active-global structures compile once each
    assert info["buckets"][16]["misses"] == 1
    assert info["buckets"][32]["misses"] == 2
    assert info["misses"] == 3


class TestKVState:
    def test_growth_is_bucketed_and_tail_stays_zero(self):
        state = KVState(4, bucket_floor=16)
        rng = np.random.default_rng(0)
        state.extend(*(rng.standard_normal((10, 4)) for _ in range(3)))
        assert (state.length, state.capacity) == (10, 16)
        for i in range(7):
            grew = state.append(*(rng.standard_normal(4) for _ in range(3)))
            assert grew == (state.length == 17)
        assert (state.length, state.capacity, state.grows) == (17, 32, 2)
        q, k, v = state.window(0, 32)
        assert np.shares_memory(q, state._q)  # zero-copy at capacity
        assert not q[17:].any() and not k[17:].any() and not v[17:].any()

    def test_padded_above_capacity_copies(self):
        state = KVState(4)
        state.extend(np.ones((3, 4)), np.ones((3, 4)), np.ones((3, 4)))
        q, k, v = state.window(0, 64)
        assert q.shape == (64, 4) and q is not state._q
        assert q[:3].all() and not q[3:].any()

    def test_padded_below_length_raises(self):
        state = KVState(4)
        state.extend(np.ones((5, 4)), np.ones((5, 4)), np.ones((5, 4)))
        with pytest.raises(ValueError):
            state.window(0, 4)

    def test_shape_validation(self):
        state = KVState(4)
        with pytest.raises(ValueError):
            state.extend(np.ones((2, 3)), np.ones((2, 3)), np.ones((2, 3)))
        with pytest.raises(ValueError):
            state.extend(np.ones((0, 4)), np.ones((0, 4)), np.ones((0, 4)))


class TestSessionValidation:
    def test_opaque_pattern_rejected(self):
        class Opaque:
            n = 16

            def bands(self):
                return None

            def global_tokens(self):
                return ()

        with pytest.raises(ValueError, match="structured"):
            DecodeSession(Opaque(), salo=_salo())

    def test_double_prefill_rejected(self):
        session = DecodeSession(SlidingWindowPattern.causal(16, 4), salo=_salo())
        q = np.zeros((3, 4))
        session.prefill(q, q, q)
        with pytest.raises(RuntimeError):
            session.prefill(q, q, q)

    def test_step_before_prefill_rejected(self):
        session = DecodeSession(SlidingWindowPattern.causal(16, 4), salo=_salo())
        with pytest.raises(RuntimeError):
            session.step(np.zeros(4), np.zeros(4), np.zeros(4))

    def test_decode_pattern_validates_valid_len(self):
        with pytest.raises(ValueError):
            decode_pattern((Band(-4, 0),), (), bucket=16, valid_len=20)
        pat = decode_pattern((Band(-4, 0),), (0, 20), bucket=32, valid_len=10)
        assert pat.global_tokens() == (0,)  # 20 not yet in the prefix
