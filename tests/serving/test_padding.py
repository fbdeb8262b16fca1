"""Cross-length padded batching: pad_to_bucket equivalence + masking.

The contract: a request served inside a padded mixed-length batch gets
the same answer as an unpadded per-request call at its true length.
With the exact datapath that equality is mathematical (same key sets per
query row; only the partial-softmax pass partitioning differs), so the
tolerance is float-roundoff tight.  The quantised datapath re-rounds at
different merge points, so its bound is the quantisation step, not an
ulp — both are characterised here.
"""

import re

import numpy as np
import pytest

from repro.accelerator.functional import EngineError, FunctionalEngine
from repro.core.config import HardwareConfig
from repro.core.salo import SALO
from repro.patterns.base import Band
from repro.patterns.hybrid import HybridSparsePattern
from repro.patterns.library import longformer_pattern
from repro.serving import Batch, BatchScheduler, AttentionRequest, ServingSession


def _exact_salo():
    return SALO(HardwareConfig(pe_rows=4, pe_cols=4).exact())


def _data(n, hidden, seed):
    rng = np.random.default_rng(seed)
    return tuple(rng.standard_normal((n, hidden)) for _ in range(3))


class TestValidLensEngine:
    """Engine-level valid_lens semantics."""

    def test_padded_lane_matches_unpadded_plan_exact(self):
        salo = _exact_salo()
        lens = [20, 27, 32, 24]
        pat32 = longformer_pattern(32, 6, (0,))
        payload = {n: _data(n, 8, seed=n) for n in lens}
        q = np.zeros((len(lens), 32, 8))
        k = np.zeros((len(lens), 32, 8))
        v = np.zeros((len(lens), 32, 8))
        for i, n in enumerate(lens):
            q[i, :n], k[i, :n], v[i, :n] = payload[n]
        res = salo.attend(pat32, q, k, v, heads=2, valid_lens=lens)
        for i, n in enumerate(lens):
            ref = salo.attend(
                longformer_pattern(n, 6, (0,)), *payload[n], heads=2
            ).output
            np.testing.assert_allclose(
                res.output[i, :n], ref, rtol=1e-9, atol=1e-12,
                err_msg=f"padded lane {i} (n={n}) diverged from unpadded plan",
            )

    def test_padded_lane_quantized_within_quantisation_step(self):
        salo = SALO(HardwareConfig(pe_rows=4, pe_cols=4))
        n, pad = 24, 32
        qd, kd, vd = _data(n, 8, seed=3)
        ref = salo.attend(longformer_pattern(n, 6, (0,)), qd, kd, vd, heads=2).output
        qp = np.zeros((1, pad, 8))
        kp = np.zeros((1, pad, 8))
        vp = np.zeros((1, pad, 8))
        qp[0, :n], kp[0, :n], vp[0, :n] = qd, kd, vd
        res = salo.attend(
            longformer_pattern(pad, 6, (0,)), qp, kp, vp, heads=2, valid_lens=[n]
        )
        # Output format is Q8.8 (step 2^-8); merges may re-round a few
        # steps apart when pass partitions differ.
        assert np.max(np.abs(res.output[0, :n] - ref)) <= 4 * 2**-8

    def test_compiled_padded_path_matches_legacy_reference(self):
        plan_salo = _exact_salo()
        pat = longformer_pattern(32, 6, (0,))
        plan = plan_salo.schedule(pat, heads=2, head_dim=4)
        lens = [18, 32, 25]
        rng = np.random.default_rng(11)
        q, k, v = (rng.standard_normal((3, 32, 8)) for _ in range(3))
        for arr in (q, k, v):
            for i, n in enumerate(lens):
                arr[i, n:] = 0.0
        compiled = FunctionalEngine(plan).run(q, k, v, valid_lens=lens)
        legacy = FunctionalEngine(plan, mode="legacy").run(q, k, v, valid_lens=lens)
        for i, n in enumerate(lens):
            assert np.array_equal(compiled.output[i, :n], legacy.output[i, :n])

    def test_full_lens_collapse_to_fast_path_bit_identical(self):
        salo = _exact_salo()
        pat = longformer_pattern(32, 6, (0,))
        q, k, v = _data(32, 8, seed=5)
        plain = salo.attend(pat, q, k, v, heads=2).output
        full = salo.attend(pat, q, k, v, heads=2, valid_lens=[32]).output
        assert np.array_equal(plain, full)

    def test_valid_lens_validation(self):
        salo = _exact_salo()
        pat = longformer_pattern(32, 6, (4,))  # global token at 4
        q, k, v = _data(32, 8, seed=6)
        with pytest.raises(EngineError, match="valid_lens"):
            salo.attend(pat, q, k, v, heads=2, valid_lens=[0])
        with pytest.raises(EngineError, match="valid_lens"):
            salo.attend(pat, q, k, v, heads=2, valid_lens=[40])
        with pytest.raises(EngineError, match="global tokens"):
            # global token 4 outside the 3-row valid prefix
            salo.attend(pat, q, k, v, heads=2, valid_lens=[3])
        with pytest.raises(EngineError, match="one length per sequence"):
            salo.attend(pat, q, k, v, heads=2, valid_lens=[16, 16])

    BAD_LENS = [
        [40.7, 64], [True, 64], [np.bool_(True), 64], ["40", 64], [np.nan, 64], [np.inf, 64]
    ]
    BAD_IDS = ["fractional", "bool", "numpy-bool", "str", "nan", "inf"]

    @pytest.mark.parametrize("lens", BAD_LENS, ids=BAD_IDS)
    def test_entries_must_be_integers_at_runtime_attend(self, lens):
        """A fractional entry used to run truncated, a bool as 1, a string
        parsed, and NaN raised numpy's cast error without naming the
        argument: each is refused like an out-of-range length."""
        from repro import Runtime

        pat = longformer_pattern(64, 8, (0,))
        q = np.random.default_rng(7).standard_normal((2, 64, 16))
        bad = f"^valid_lens entries must be integers, got {re.escape(repr(lens[0]))} in "
        with pytest.raises(EngineError, match=bad):
            Runtime().attend(pat, q, q, q, heads=2, valid_lens=lens)

    @pytest.mark.parametrize("lens", BAD_LENS, ids=BAD_IDS)
    def test_entries_must_be_integers_at_run_codes(self, lens):
        plan = SALO().schedule(longformer_pattern(64, 8, (0,)), heads=2, head_dim=8)
        windows = [np.zeros((2, 64, 8), dtype=np.float32) for _ in range(2)]  # two lanes
        with pytest.raises(EngineError, match="^valid_lens entries must be integers, got "):
            FunctionalEngine(plan).run_codes(windows, windows, windows, valid_lens=lens)

    def test_integral_floats_keep_running(self):
        pat = longformer_pattern(64, 8, (0,))
        q = np.random.default_rng(8).standard_normal((2, 64, 16))
        salo = SALO()
        as_float = salo.attend(pat, q, q, q, heads=2, valid_lens=[40.0, np.float32(64)]).output
        as_int = salo.attend(pat, q, q, q, heads=2, valid_lens=np.array([40, 64])).output
        assert np.array_equal(as_float, as_int)


class TestPadToBucketScheduler:
    """Grouping semantics of the pad_to_bucket mode."""

    @staticmethod
    def _request(rid, n, seed=0, window=6):
        pattern = longformer_pattern(n, window, (0,))
        q, k, v = _data(n, 8, seed=seed)
        return AttentionRequest(request_id=rid, pattern=pattern, q=q, k=k, v=v, heads=2)

    def test_same_structure_different_lengths_share_queue(self):
        sched = BatchScheduler(max_batch_size=8, pad_to_bucket=True)
        keys = {sched.enqueue(self._request(i, n)) for i, n in enumerate((20, 27, 32))}
        assert len(keys) == 1
        batch = sched.next_batch()
        assert batch.size == 3
        assert batch.pad_to == 32
        assert batch.mixed_lengths
        assert batch.padded_pattern().n == 32

    def test_without_pad_mode_lengths_stay_separate(self):
        sched = BatchScheduler(max_batch_size=8)
        keys = {sched.enqueue(self._request(i, n)) for i, n in enumerate((20, 27, 32))}
        assert len(keys) == 3

    def test_different_buckets_stay_separate(self):
        sched = BatchScheduler(max_batch_size=8, pad_to_bucket=True)
        k1 = sched.enqueue(self._request(0, 30))
        k2 = sched.enqueue(self._request(1, 40))  # bucket 64
        assert k1 != k2

    def test_different_band_structure_stays_separate(self):
        sched = BatchScheduler(max_batch_size=8, pad_to_bucket=True)
        k1 = sched.enqueue(self._request(0, 30, window=6))
        k2 = sched.enqueue(self._request(1, 30, window=4))
        assert k1 != k2

    def test_uniform_length_padded_batch_runs_exact_pattern(self):
        # All members the same length: no padding, exact-n plan.
        sched = BatchScheduler(max_batch_size=8, pad_to_bucket=True)
        for i in range(3):
            sched.enqueue(self._request(i, 30, seed=i))
        batch = sched.next_batch()
        assert batch.pad_to == 32 and not batch.mixed_lengths
        assert batch.execution_pattern().n == 30


class TestPaddedSession:
    """End-to-end: session outputs equal per-request unpadded calls."""

    def test_session_padded_equivalence(self):
        session = ServingSession(
            salo=_exact_salo(), max_batch_size=8, pad_to_bucket=True
        )
        reference = _exact_salo()
        payloads = {}
        for i, n in enumerate((20, 27, 32, 24, 30)):
            pattern = longformer_pattern(n, 6, (0,))
            q, k, v = _data(n, 8, seed=100 + i)
            payloads[i] = (pattern, q, k, v)
            session.submit(pattern, q, k, v, heads=2, request_id=i)
        assert session.pending == 5
        batch = session.step()
        assert batch.size == 5  # one padded dispatch served all lengths
        for i, (pattern, q, k, v) in payloads.items():
            ref = reference.attend(pattern, q, k, v, heads=2).output
            got = session.results[i].output
            assert got.shape == ref.shape
            np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-12)

    def test_occupancy_win_under_length_tail(self):
        """The point of the mode: a long-tail length mix that fragments
        into singleton batches without padding rides one dispatch with it."""
        lengths = (160, 144, 176, 130, 150, 192, 170, 155)
        def submit_all(session):
            for i, n in enumerate(lengths):
                pattern = HybridSparsePattern(n, [Band(-24, 24, 8)], (0,))
                q, k, v = _data(n, 8, seed=i)
                session.submit(pattern, q, k, v, heads=2, request_id=i)
            session.drain()
            return session.batches_executed

        unpadded = submit_all(ServingSession(salo=_exact_salo(), max_batch_size=8))
        padded = submit_all(
            ServingSession(salo=_exact_salo(), max_batch_size=8, pad_to_bucket=True)
        )
        assert unpadded == len(lengths)  # every length alone
        assert padded == 1
