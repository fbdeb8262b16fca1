"""Tests for the weighted-sum module (Eq. 2 renormalisation)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerator.datapath import Datapath
from repro.accelerator.weighted_sum import WeightedSumModule
from repro.core.config import NumericsConfig


def _module(exact=True):
    cfg = NumericsConfig.exact() if exact else NumericsConfig()
    return WeightedSumModule(Datapath(cfg))


class TestExactMerge:
    def test_eq2_formula(self):
        m = _module()
        out1 = np.array([[1.0, 0.0]])
        out2 = np.array([[0.0, 1.0]])
        merged, total = m.merge(out1, np.array([3.0]), out2, np.array([1.0]))
        assert np.allclose(merged, [[0.75, 0.25]])
        assert total[0] == 4.0

    def test_weight_accumulates(self):
        m = _module()
        _, total = m.merge(
            np.zeros((2, 3)), np.array([1.0, 2.0]), np.zeros((2, 3)), np.array([3.0, 4.0])
        )
        assert total.tolist() == [4.0, 6.0]

    def test_rejects_nonpositive_weights(self):
        m = _module()
        with pytest.raises(ValueError):
            m.merge(np.zeros((1, 2)), np.array([0.0]), np.zeros((1, 2)), np.array([0.0]))

    def test_merge_equals_joint_softmax(self):
        """Merging two split-window partials equals the unsplit softmax."""
        rng = np.random.default_rng(0)
        d = 4
        s1, s2 = rng.standard_normal(5), rng.standard_normal(3)
        v1, v2 = rng.standard_normal((5, d)), rng.standard_normal((3, d))
        e1, e2 = np.exp(s1), np.exp(s2)
        w1, w2 = e1.sum(), e2.sum()
        out1 = (e1 @ v1 / w1)[None, :]
        out2 = (e2 @ v2 / w2)[None, :]
        merged, total = _module().merge(out1, np.array([w1]), out2, np.array([w2]))
        e = np.exp(np.concatenate([s1, s2]))
        expected = e @ np.concatenate([v1, v2]) / e.sum()
        assert np.allclose(merged[0], expected)
        assert total[0] == pytest.approx(w1 + w2)

    @given(
        w1=st.floats(0.01, 1e4),
        w2=st.floats(0.01, 1e4),
        w3=st.floats(0.01, 1e4),
    )
    @settings(max_examples=100, deadline=None)
    def test_associativity_exact(self, w1, w2, w3):
        """Chained merges are order-independent in exact arithmetic."""
        m = _module()
        rng = np.random.default_rng(42)
        o1, o2, o3 = (rng.standard_normal((1, 3)) for _ in range(3))
        a, wa = m.merge(o1, np.array([w1]), o2, np.array([w2]))
        left, _ = m.merge(a, wa, o3, np.array([w3]))
        b, wb = m.merge(o2, np.array([w2]), o3, np.array([w3]))
        right, _ = m.merge(o1, np.array([w1]), b, wb)
        assert np.allclose(left, right, atol=1e-9)


class TestQuantizedMerge:
    def test_weights_sum_to_one(self):
        """a2 = 1 - a1 construction: no weight drift under quantisation."""
        m = _module(exact=False)
        out1 = np.full((1, 4), 2.0)
        out2 = np.full((1, 4), 2.0)
        merged, _ = m.merge(out1, np.array([1.234]), out2, np.array([5.678]))
        assert np.allclose(merged, 2.0, atol=1 / 256 + 1e-12)

    def test_bounded_error_vs_exact(self):
        rng = np.random.default_rng(7)
        out1 = rng.standard_normal((8, 16))
        out2 = rng.standard_normal((8, 16))
        w1 = rng.uniform(0.5, 50, 8)
        w2 = rng.uniform(0.5, 50, 8)
        exact, _ = _module(True).merge(out1, w1, out2, w2)
        quant, _ = _module(False).merge(out1, w1, out2, w2)
        assert np.max(np.abs(exact - quant)) < 0.05


class TestMergeInto:
    """The production path's in-place merge, in output codes."""

    def test_codes_equal_merge_on_values_and_the_part_is_consumed(self):
        m = _module(exact=False)
        res = m.datapath.output_format.resolution
        rng = np.random.default_rng(11)
        c1 = np.rint(rng.uniform(-2000, 2000, (3, 5, 16)))
        c2 = np.rint(rng.uniform(-2000, 2000, (3, 5, 16)))
        w1 = rng.uniform(0.01, 40, (3, 5))
        w2 = rng.uniform(0.01, 40, (3, 5))
        merged, total = m.merge(c1 * res, w1, c2 * res, w2)
        run, run_w, part = c1.copy(), w1.copy(), c2.copy()
        assert m.merge_into(run, run_w, part, w2) is None
        assert np.array_equal(run * res, merged)
        assert np.array_equal(run_w, total)
        # The part is scratch the merge scales in place: its codes are gone.
        assert not np.array_equal(part, c2)
