"""Unit tests for cache statistics bookkeeping."""

import pytest

from repro.caches.stats import AsidCounters, CacheStats


class TestAsidCounters:
    def test_miss_arithmetic(self):
        counters = AsidCounters(accesses=10, hits=7)
        assert counters.misses == 3
        assert counters.miss_rate == pytest.approx(0.3)
        assert counters.hit_rate == pytest.approx(0.7)

    def test_zero_accesses(self):
        counters = AsidCounters()
        assert counters.miss_rate == 0.0
        assert counters.hit_rate == 0.0

    def test_copy_is_independent(self):
        counters = AsidCounters(accesses=1)
        clone = counters.copy()
        clone.accesses = 99
        assert counters.accesses == 1

    def test_add(self):
        a = AsidCounters(accesses=2, hits=1, evictions=1, writebacks=1)
        b = AsidCounters(accesses=3, hits=2)
        a.add(b)
        assert (a.accesses, a.hits, a.evictions, a.writebacks) == (5, 3, 1, 1)


class TestCacheStats:
    def test_record_access_updates_both_horizons(self):
        stats = CacheStats()
        stats.record_access(1, hit=True)
        stats.record_access(1, hit=False)
        assert stats.total.accesses == 2
        assert stats.window_total.accesses == 2
        assert stats.miss_rate(1) == pytest.approx(0.5)
        assert stats.window_miss_rate(1) == pytest.approx(0.5)

    def test_window_reset_preserves_cumulative(self):
        stats = CacheStats()
        stats.record_access(1, hit=False)
        stats.reset_window()
        assert stats.total.accesses == 1
        assert stats.window_total.accesses == 0
        stats.record_access(1, hit=True)
        assert stats.window_miss_rate(1) == 0.0
        assert stats.miss_rate(1) == pytest.approx(0.5)

    def test_record_eviction(self):
        stats = CacheStats()
        stats.record_eviction(3, writeback=True)
        stats.record_eviction(3, writeback=False)
        assert stats.per_asid[3].evictions == 2
        assert stats.per_asid[3].writebacks == 1

    def test_full_reset(self):
        stats = CacheStats()
        stats.record_access(1, hit=False)
        stats.reset()
        assert stats.total.accesses == 0
        assert stats.per_asid == {}

    def test_unknown_asid_rates_zero(self):
        stats = CacheStats()
        assert stats.miss_rate(42) == 0.0
        assert stats.window_miss_rate(42) == 0.0

    def test_as_dict(self):
        stats = CacheStats()
        stats.record_access(1, hit=False)
        stats.record_access(1, hit=True)
        snapshot = stats.as_dict()
        assert snapshot["accesses"] == 2
        assert snapshot["miss_rate"] == pytest.approx(0.5)
        assert snapshot["per_asid"][1]["hits"] == 1
