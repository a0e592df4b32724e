"""Tests for the related-work partitioned caches (Suh et al.)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches.partitioned import ColumnCache, ModifiedLRUCache
from repro.caches.setassoc import DIRTY, line_owner
from repro.common.errors import ConfigError
from tests.test_setassoc_model import LINE, ListModel, streams


class TestModifiedLRU:
    def make(self, quotas=None, size=1024, assoc=4):
        return ModifiedLRUCache(size, assoc, 64, quotas=quotas)

    def test_behaves_like_lru_without_quotas(self):
        cache = self.make()
        sets = cache.num_sets
        a, b, c, d, e = (i * sets for i in range(5))
        for block in (a, b, c, d):
            cache.access_block(block, asid=1)
        result = cache.access_block(e, asid=1)  # evicts a (global LRU)
        assert result.evicted_block == a

    def test_quota_forces_local_replacement(self):
        cache = self.make(quotas={2: 1})
        sets = cache.num_sets
        # asid 1 fills three ways; asid 2 owns one line and is at quota
        cache.access_block(0 * sets, asid=1)
        cache.access_block(1 * sets, asid=2)
        cache.access_block(2 * sets, asid=1)
        cache.access_block(3 * sets, asid=1)
        # asid 2 misses: global LRU would evict asid 1's oldest, but the
        # quota forces a local replacement of asid 2's own line
        result = cache.access_block(4 * sets, asid=2)
        assert result.evicted_block == 1 * sets
        assert cache.resident_lines(2) == 1

    def test_under_quota_uses_global_replacement(self):
        cache = self.make(quotas={2: 8})
        sets = cache.num_sets
        for i, asid in enumerate((1, 1, 1, 1)):
            cache.access_block(i * sets, asid=asid)
        result = cache.access_block(4 * sets, asid=2)
        assert result.evicted_block == 0  # global LRU victim

    def test_local_falls_back_to_global_if_no_own_line_in_set(self):
        cache = self.make(quotas={2: 0})
        sets = cache.num_sets
        for i in range(4):
            cache.access_block(i * sets, asid=1)
        result = cache.access_block(4 * sets, asid=2)  # over quota, no own lines
        assert result.evicted_block == 0

    def test_set_quota_runtime(self):
        cache = self.make()
        cache.set_quota(1, 4)
        assert cache.quotas[1] == 4
        cache.set_quota(1, None)
        assert 1 not in cache.quotas
        with pytest.raises(ConfigError):
            cache.set_quota(1, -1)

    def test_resident_accounting(self):
        cache = self.make()
        cache.access_block(1, asid=1)
        cache.access_block(2, asid=1)
        cache.access_block(3, asid=2)
        assert cache.resident_lines(1) == 2
        assert cache.resident_lines(2) == 1
        assert cache.occupancy_by_asid() == {1: 2, 2: 1}

    def test_quota_caps_footprint_under_pressure(self):
        cache = ModifiedLRUCache(64 * 64, 4, 64, quotas={2: 8})
        import random

        rng = random.Random(3)
        for _ in range(5000):
            cache.access_block(rng.randrange(1000), asid=1)
            cache.access_block(2000 + rng.randrange(1000), asid=2)
        # asid 2 can transiently exceed by one per set but stays near quota
        assert cache.resident_lines(2) <= 8 + cache.num_sets


class TestColumnCache:
    def make(self, columns=None, size=1024, assoc=4):
        return ColumnCache(size, assoc, 64, columns=columns)

    def test_placement_restricted_to_columns(self):
        cache = self.make(columns={1: (0,)})
        sets = cache.num_sets
        cache.access_block(0 * sets, asid=1)
        result = cache.access_block(1 * sets, asid=1)
        # only one permitted column: the second fill evicts the first
        assert result.evicted_block == 0 * sets

    def test_unrestricted_app_uses_all_ways(self):
        cache = self.make(columns={1: (0,)})
        sets = cache.num_sets
        for i in range(4):
            assert cache.access_block(i * sets, asid=2).evicted_block is None

    def test_lookup_searches_all_ways(self):
        cache = self.make(columns={1: (0,), 2: (1, 2, 3)})
        sets = cache.num_sets
        cache.access_block(0, asid=2)  # lands in a column 1-3
        # asid 1 can't *place* outside way 0 but still hits asid 2's line
        assert cache.access_block(0, asid=1).hit

    def test_columns_partition_conflict_misses(self):
        cache = self.make(columns={1: (0, 1), 2: (2, 3)})
        sets = cache.num_sets
        # each app loops over 2 conflicting blocks: both fit their columns
        for _ in range(10):
            for i in range(2):
                cache.access_block(i * sets, asid=1)
                cache.access_block((4 + i) * sets, asid=2)
        assert cache.stats.miss_rate(1) < 0.25
        assert cache.stats.miss_rate(2) < 0.25

    def test_isolation_under_thrash(self):
        # asid 2 thrashes its two columns; asid 1's two columns are safe
        cache = self.make(columns={1: (0, 1), 2: (2, 3)})
        sets = cache.num_sets
        cache.access_block(0, asid=1)
        for i in range(1, 40):
            cache.access_block(i * sets, asid=2)
        assert cache.access_block(0, asid=1).hit

    def test_assign_columns_validation(self):
        cache = self.make()
        with pytest.raises(ConfigError):
            cache.assign_columns(1, ())
        with pytest.raises(ConfigError):
            cache.assign_columns(1, (9,))

    def test_columns_of_default(self):
        cache = self.make()
        assert cache.columns_of(7) == (0, 1, 2, 3)

    def test_writeback_on_column_eviction(self):
        cache = self.make(columns={1: (0,)})
        sets = cache.num_sets
        cache.access_block(0, asid=1, write=True)
        assert cache.access_block(sets, asid=1).writeback


@given(
    stream=streams,
    ways=st.sampled_from([1, 2, 4]),
    sets=st.sampled_from([1, 2, 4]),
    kind=st.sampled_from([ModifiedLRUCache, ColumnCache]),
)
@settings(max_examples=100, deadline=None)
def test_unrestricted_cache_matches_lru_list_model(stream, ways, sets, kind):
    """With no quotas or column restrictions both caches are plain LRU:
    per-ASID counters and every set's ``(block, owner, dirty)`` contents,
    oldest first, match the list model of ``test_setassoc_model.py``."""
    model = ListModel(sets, ways, "lru", [0])
    cache = kind(sets * ways * LINE, ways, LINE)
    for block, asid, write in stream:
        model.access(block, asid, write)
        cache.access_block(block, asid, write)

    counts = {
        asid: [c.accesses, c.hits, c.evictions, c.writebacks]
        for asid, c in cache.stats.lifetime.items()
    }
    assert counts == model.counts
    contents = [
        [[block, line_owner(state), bool(state & DIRTY)]
         for block, state in cache_set.items()]
        for cache_set in cache._sets
    ]
    assert contents == model.sets
