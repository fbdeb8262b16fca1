"""Plan-cache hardening: eviction order, capacity 0, counters under
repeated mixed-pattern traffic (the serving scenario)."""

import numpy as np

from repro.core.salo import SALO
from repro.patterns.base import Band
from repro.patterns.hybrid import HybridSparsePattern
from repro.patterns.library import longformer_pattern


def _data(n, hidden, seed=0):
    rng = np.random.default_rng(seed)
    return tuple(rng.standard_normal((n, hidden)) for _ in range(3))


def _pattern(w):
    return longformer_pattern(64, w, (0,))


class TestEvictionOrder:
    def test_lru_evicts_least_recently_used(self):
        """Touching an entry protects it; the stale one is evicted."""
        salo = SALO(plan_cache_size=2)
        q, k, v = _data(64, 8)
        salo.attend(_pattern(4), q, k, v)  # A
        salo.attend(_pattern(8), q, k, v)  # B
        salo.attend(_pattern(4), q, k, v)  # touch A -> B is now LRU
        salo.attend(_pattern(12), q, k, v)  # C evicts B
        assert salo.plan_cache_misses == 3 and salo.plan_cache_hits == 1
        salo.attend(_pattern(4), q, k, v)  # A survived
        assert salo.plan_cache_hits == 2
        salo.attend(_pattern(8), q, k, v)  # B was evicted
        assert salo.plan_cache_misses == 4

    def test_eviction_is_by_recency_not_insertion(self):
        salo = SALO(plan_cache_size=2)
        q, k, v = _data(64, 8)
        salo.attend(_pattern(4), q, k, v)  # A (oldest insertion)
        salo.attend(_pattern(8), q, k, v)  # B
        salo.attend(_pattern(4), q, k, v)  # touch A
        salo.attend(_pattern(12), q, k, v)  # C: evicts B, not A
        assert salo.cache_info()["size"] == 2
        salo.attend(_pattern(4), q, k, v)
        salo.attend(_pattern(12), q, k, v)
        assert salo.plan_cache_misses == 3  # both still cached


class TestCapacityZero:
    def test_never_stores_and_counts_misses(self):
        salo = SALO(plan_cache_size=0)
        q, k, v = _data(64, 8)
        a = salo.attend(_pattern(8), q, k, v)
        b = salo.attend(_pattern(8), q, k, v)
        assert a.plan is not b.plan  # nothing cached
        assert np.array_equal(a.output, b.output)
        info = salo.cache_info()
        assert info["size"] == 0 and info["capacity"] == 0
        assert info["hits"] == 0 and info["misses"] == 2
        assert info["hit_rate"] == 0.0

    def test_estimate_also_counts(self):
        salo = SALO(plan_cache_size=0)
        salo.estimate(_pattern(8), heads=1, head_dim=8)
        salo.estimate(_pattern(8), heads=1, head_dim=8)
        assert salo.plan_cache_misses == 2


class TestCountersUnderMixedTraffic:
    def test_repeated_mixed_pattern_traffic(self):
        """A serving mix: three families, repeated rounds. After the
        first round every structure is cached, so the hit rate climbs
        to (rounds-1)/rounds."""
        salo = SALO()
        families = [
            _pattern(8),
            _pattern(12),
            HybridSparsePattern(64, [Band(-8, 8, 4)], ()),
        ]
        q, k, v = _data(64, 8)
        rounds = 5
        for _ in range(rounds):
            for pattern in families:
                salo.attend(pattern, q, k, v)
        assert salo.plan_cache_misses == len(families)
        assert salo.plan_cache_hits == (rounds - 1) * len(families)
        info = salo.cache_info()
        assert info["size"] == len(families)
        assert info["hit_rate"] == (rounds - 1) / rounds

    def test_clear_keeps_counters(self):
        salo = SALO()
        q, k, v = _data(64, 8)
        salo.attend(_pattern(8), q, k, v)
        salo.attend(_pattern(8), q, k, v)
        salo.clear_plan_cache()
        assert salo.cache_info()["size"] == 0
        assert salo.plan_cache_hits == 1 and salo.plan_cache_misses == 1
        salo.attend(_pattern(8), q, k, v)  # re-compiles after clear
        assert salo.plan_cache_misses == 2

    def test_hit_rate_zero_when_untouched(self):
        info = SALO().cache_info()
        assert info["hit_rate"] == 0.0
        assert info["buckets"] == {}


class TestPerBucketCounters:
    """Per-padded-length accounting — what decode amortisation rests on."""

    def test_buckets_split_by_padded_length(self):
        salo = SALO()
        for n, calls in ((16, 3), (32, 2), (64, 4)):
            pattern = longformer_pattern(n, 4, (0,))
            q, k, v = _data(n, 8, seed=n)
            for _ in range(calls):
                salo.attend(pattern, q, k, v)
        info = salo.cache_info()
        assert info["buckets"] == {
            16: {"hits": 2, "misses": 1},
            32: {"hits": 1, "misses": 1},
            64: {"hits": 3, "misses": 1},
        }
        # the per-bucket split always sums to the aggregate counters
        assert sum(b["hits"] for b in info["buckets"].values()) == info["hits"]
        assert sum(b["misses"] for b in info["buckets"].values()) == info["misses"]

    def test_bucket_crossing_decode_walk(self):
        """A decode-style walk: every step attends at the current
        bucket with the tail masked, its plan starting at the
        power-of-two block of rows (one row or more) that holds the kept
        row.  A bucket compiles at most 1 + log2(bucket) plans: 16 the
        prefill's full plan and three step plans (first query 12, 14,
        15), 32 five (16, 24, 28, 30, 31), 64 two (32, then 48 from
        length 49 on); every other step is a hit."""
        from repro.decode import DecodeSession
        from repro.patterns.window import SlidingWindowPattern

        salo = SALO()
        session = DecodeSession(
            SlidingWindowPattern.causal(16, 4), salo=salo, heads=2
        )
        rng = np.random.default_rng(3)
        session.prefill(*(rng.standard_normal((12, 8)) for _ in range(3)))
        for _ in range(40):  # 12 -> 52 tokens: buckets 16, 32, 64
            session.step(*(rng.standard_normal(8) for _ in range(3)))
        info = salo.cache_info()
        assert {n: b["misses"] for n, b in info["buckets"].items()} == {16: 4, 32: 5, 64: 2}
        assert session.bucket_crossings == 2
        # 41 attends total, 11 compiles: every other step hits
        assert info["hits"] == 41 - 11 and info["misses"] == 11

    def test_capacity_zero_still_counts_buckets(self):
        salo = SALO(plan_cache_size=0)
        q, k, v = _data(64, 8)
        salo.attend(_pattern(8), q, k, v)
        salo.attend(_pattern(8), q, k, v)
        assert salo.cache_info()["buckets"] == {64: {"hits": 0, "misses": 2}}
