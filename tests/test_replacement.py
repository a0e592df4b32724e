"""Unit tests for the set-associative replacement policies.

Each policy is a name the cache reads once; these cases drive one set
through ``access_block`` and read the victim off its ``AccessResult``.
``test_setassoc_model.py`` checks every policy's order, draws, owners
and dirty bits against a list model.
"""

import pytest

from repro.caches.setassoc import POLICIES, SetAssociativeCache
from repro.common.errors import ConfigError
from repro.common.rng import XorShift64


def one_set(ways: int, policy: str, rng=None) -> SetAssociativeCache:
    return SetAssociativeCache(ways * 64, ways, 64, policy, rng=rng)


def filled(blocks, policy: str, rng=None) -> SetAssociativeCache:
    cache = one_set(len(blocks), policy, rng)
    for block in blocks:
        assert cache.access_block(block).miss
    return cache


class TestLRU:
    def test_victim_is_oldest(self):
        cache = filled([1, 2, 3, 4], "lru")
        assert cache.access_block(9).evicted_block == 1

    def test_touch_refreshes(self):
        cache = filled([1, 2, 3, 4], "lru")
        assert cache.access_block(1).hit
        assert cache.access_block(9).evicted_block == 2

    def test_full_recency_ordering(self):
        cache = filled([1, 2, 3, 4], "lru")
        for block in (3, 1, 4, 2):
            assert cache.access_block(block).hit
        assert list(next(cache.iter_sets())) == [3, 1, 4, 2]


class TestFIFO:
    def test_victim_is_first_inserted(self):
        assert filled([5, 6, 7, 8], "fifo").access_block(9).evicted_block == 5

    def test_touch_does_not_refresh(self):
        cache = filled([5, 6, 7, 8], "fifo")
        assert cache.access_block(5).hit
        assert cache.access_block(9).evicted_block == 5


class TestRandom:
    def test_victim_is_member(self):
        cache = filled([1, 2, 3, 4], "random", XorShift64(1))
        for block in range(10, 60):
            resident = set(next(cache.iter_sets()))
            assert cache.access_block(block).evicted_block in resident

    def test_covers_all_members(self):
        victims = set()
        for seed in range(1, 40):
            cache = filled([1, 2, 3, 4], "random", XorShift64(seed))
            victims.add(cache.access_block(9).evicted_block)
        assert victims == {1, 2, 3, 4}

    def test_deterministic_with_seed(self):
        def victims(seed: int) -> list[int]:
            cache = filled([1, 2, 3, 4], "random", XorShift64(seed))
            return [cache.access_block(b).evicted_block for b in range(10, 15)]

        assert victims(3) == victims(3)


class TestFactory:
    def test_builds_each(self):
        assert one_set(2, "lru").policy == "lru"
        assert one_set(2, "FIFO").policy == "fifo"
        assert one_set(2, "random").policy == "random"
        assert POLICIES == ("lru", "fifo", "random")

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError, match="plru"):
            one_set(2, "plru")
