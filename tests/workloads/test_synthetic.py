"""Tests for synthetic Q/K/V generation."""

import numpy as np
import pytest

from repro.workloads.synthetic import correlated_qkv, random_qkv


class TestRandomQKV:
    def test_shapes(self):
        q, k, v = random_qkv(10, 8)
        assert q.shape == k.shape == v.shape == (10, 8)

    def test_seeded_determinism(self):
        a = random_qkv(10, 8, seed=3)
        b = random_qkv(10, 8, seed=3)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_different_seeds_differ(self):
        a = random_qkv(10, 8, seed=1)
        b = random_qkv(10, 8, seed=2)
        assert not np.array_equal(a[0], b[0])

    def test_std_parameter(self):
        q, _, _ = random_qkv(2000, 16, std=0.5)
        assert q.std() == pytest.approx(0.5, rel=0.05)


class TestCorrelatedQKV:
    def test_correlation_increases_alignment(self):
        qc, kc, _ = correlated_qkv(2000, 8, correlation=0.9)
        qi, ki, _ = correlated_qkv(2000, 8, correlation=0.0)
        corr_high = np.mean([np.corrcoef(qc[:, j], kc[:, j])[0, 1] for j in range(8)])
        corr_low = np.mean([np.corrcoef(qi[:, j], ki[:, j])[0, 1] for j in range(8)])
        assert corr_high > 0.5 > abs(corr_low) + 0.3

    def test_unit_variance_preserved(self):
        q, _, _ = correlated_qkv(5000, 8, correlation=0.7)
        assert q.std() == pytest.approx(1.0, rel=0.05)

    def test_rejects_bad_correlation(self):
        with pytest.raises(ValueError):
            correlated_qkv(10, 4, correlation=1.5)

