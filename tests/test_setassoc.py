"""Unit tests for the set-associative cache simulator."""

import pytest

from repro.caches.setassoc import SetAssociativeCache
from repro.common.errors import ConfigError
from repro.common.types import Access, AccessType


def make_cache(size=4096, assoc=2, line=64, policy="lru"):
    return SetAssociativeCache(size, assoc, line, policy)


class TestValidation:
    def test_rejects_non_power_of_two_size(self):
        with pytest.raises(ConfigError):
            make_cache(size=3000)

    def test_rejects_bad_line(self):
        with pytest.raises(ConfigError):
            make_cache(line=48)

    def test_rejects_zero_assoc(self):
        with pytest.raises(ConfigError):
            make_cache(assoc=0)

    def test_rejects_assoc_exceeding_lines(self):
        with pytest.raises(ConfigError):
            SetAssociativeCache(128, 4, 64)

    def test_geometry(self):
        cache = make_cache(size=4096, assoc=2, line=64)
        assert cache.num_sets == 32

    def test_fully_associative_geometry(self):
        cache = SetAssociativeCache(1024, 16, 64)
        assert cache.num_sets == 1


class TestBasicBehaviour:
    def test_first_access_misses_then_hits(self):
        cache = make_cache()
        assert cache.access_block(5).miss
        assert cache.access_block(5).hit

    def test_different_blocks_independent(self):
        cache = make_cache()
        cache.access_block(5)
        assert cache.access_block(6).miss

    def test_access_by_address(self):
        cache = make_cache()
        assert cache.access(Access(0x1000)).miss
        assert cache.access(Access(0x1000 + 63)).hit  # same line
        assert cache.access(Access(0x1040)).miss  # next line

    def test_occupancy_grows_to_capacity(self):
        cache = make_cache(size=1024, assoc=2)  # 16 lines
        for block in range(100):
            cache.access_block(block)
        assert cache.occupancy() == 16

    def test_contains_block(self):
        cache = make_cache()
        cache.access_block(9)
        assert cache.contains_block(9)
        assert not cache.contains_block(10)

    def test_resident_blocks(self):
        cache = make_cache()
        for block in (1, 2, 3):
            cache.access_block(block)
        assert sorted(cache.resident_blocks()) == [1, 2, 3]


class TestEviction:
    def test_lru_eviction_within_set(self):
        cache = make_cache(size=1024, assoc=2)  # 8 sets
        sets = cache.num_sets
        a, b, c = 0, sets, 2 * sets  # all map to set 0
        cache.access_block(a)
        cache.access_block(b)
        cache.access_block(a)  # refresh a
        result = cache.access_block(c)  # evicts b
        assert result.evicted_block == b
        assert cache.contains_block(a)
        assert not cache.contains_block(b)

    def test_direct_mapped_conflicts(self):
        cache = make_cache(size=1024, assoc=1)
        sets = cache.num_sets
        cache.access_block(0)
        assert cache.access_block(sets).evicted_block == 0
        assert cache.access_block(0).miss

    def test_eviction_counted_per_owner_asid(self):
        cache = make_cache(size=1024, assoc=1)
        sets = cache.num_sets
        cache.access_block(0, asid=1)
        cache.access_block(sets, asid=2)  # evicts asid 1's line
        assert cache.stats.per_asid[1].evictions == 1

    def test_fifo_differs_from_lru(self):
        size, assoc = 1024, 2
        lru = make_cache(size, assoc, policy="lru")
        fifo = make_cache(size, assoc, policy="fifo")
        sets = lru.num_sets
        pattern = [0, sets, 0, 2 * sets, 0]
        lru_hits = sum(lru.access_block(b).hit for b in pattern)
        fifo_hits = sum(fifo.access_block(b).hit for b in pattern)
        # LRU keeps block 0 alive (3 touches); FIFO evicts it.
        assert lru_hits > fifo_hits


class TestWriteback:
    def test_dirty_eviction_reports_writeback(self):
        cache = make_cache(size=1024, assoc=1)
        sets = cache.num_sets
        cache.access_block(0, write=True)
        assert cache.access_block(sets).writeback

    def test_clean_eviction_no_writeback(self):
        cache = make_cache(size=1024, assoc=1)
        sets = cache.num_sets
        cache.access_block(0, write=False)
        assert not cache.access_block(sets).writeback

    def test_write_hit_marks_dirty(self):
        cache = make_cache(size=1024, assoc=1)
        sets = cache.num_sets
        cache.access_block(0)
        cache.access_block(0, write=True)
        assert cache.access_block(sets).writeback

    def test_flush_reports_dirty_lines(self):
        cache = make_cache()
        cache.access_block(1, write=True)
        cache.access_block(2, write=False)
        assert cache.flush() == 1
        assert cache.occupancy() == 0


class TestStatsIntegration:
    def test_miss_rate(self):
        cache = make_cache()
        for _ in range(3):
            cache.access_block(7)
        assert cache.stats.miss_rate() == pytest.approx(1 / 3)

    def test_per_asid_rates(self):
        cache = make_cache()
        cache.access_block(1, asid=1)
        cache.access_block(1, asid=1)
        cache.access_block(2, asid=2)
        assert cache.stats.miss_rate(1) == pytest.approx(0.5)
        assert cache.stats.miss_rate(2) == pytest.approx(1.0)

    def test_occupancy_by_asid(self):
        cache = make_cache()
        cache.access_block(1, asid=1)
        cache.access_block(2, asid=2)
        cache.access_block(3, asid=2)
        assert cache.occupancy_by_asid() == {1: 1, 2: 2}

    def test_run_helper(self):
        cache = make_cache()
        stats = cache.run([1, 2, 1, 2])
        assert stats.total.accesses == 4
        assert stats.total.hits == 2

    def test_run_with_parallel_columns(self):
        cache = make_cache()
        cache.run([1, 1], asids=[1, 2], writes=[False, True])
        assert cache.stats.per_asid[1].accesses == 1
        assert cache.stats.per_asid[2].accesses == 1


class MRUReplacement:
    """A policy object: evict the most recently used line."""

    def touch(self, cache_set, block):
        cache_set[block] = cache_set.pop(block)

    def victim(self, cache_set):
        return next(reversed(cache_set))


class TestUserPolicy:
    def test_session_refuses_it(self):
        # A policy is a name the session reads once; an object that could
        # override anything is refused when the cache is built.
        with pytest.raises(ConfigError, match="MRUReplacement"):
            SetAssociativeCache(128, 2, 64, MRUReplacement())


class TestLRUStackProperty:
    def test_bigger_lru_cache_never_worse(self):
        """LRU inclusion: hits(size) is monotone in size for same assoc
        ratio — checked on a concrete pseudo-random stream."""
        import random

        rng = random.Random(7)
        stream = [rng.randrange(600) for _ in range(6000)]
        hits = []
        for size in (1024, 2048, 4096, 8192):
            cache = SetAssociativeCache(size, size // 64, 64, "lru")  # fully assoc
            hits.append(sum(cache.access_block(b).hit for b in stream))
        assert hits == sorted(hits)
