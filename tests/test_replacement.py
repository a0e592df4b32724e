"""Unit tests for the set-associative replacement policies."""

import pytest

from repro.caches.replacement import (
    FIFOReplacement,
    LRUReplacement,
    RandomReplacement,
    make_replacement_policy,
)
from repro.caches.setassoc import line_state
from repro.common.errors import ConfigError
from repro.common.rng import XorShift64


def make_set(blocks) -> dict[int, int]:
    return {b: line_state(0, False) for b in blocks}


class TestLRU:
    def test_victim_is_oldest(self):
        cache_set = make_set([1, 2, 3])
        assert LRUReplacement().victim(cache_set) == 1

    def test_touch_refreshes(self):
        policy = LRUReplacement()
        cache_set = make_set([1, 2, 3])
        policy.touch(cache_set, 1)
        assert policy.victim(cache_set) == 2

    def test_full_recency_ordering(self):
        policy = LRUReplacement()
        cache_set = make_set([1, 2, 3, 4])
        for block in (3, 1, 4, 2):
            policy.touch(cache_set, block)
        assert list(cache_set) == [3, 1, 4, 2]


class TestFIFO:
    def test_victim_is_first_inserted(self):
        assert FIFOReplacement().victim(make_set([5, 6, 7])) == 5

    def test_touch_does_not_refresh(self):
        policy = FIFOReplacement()
        cache_set = make_set([5, 6, 7])
        policy.touch(cache_set, 5)
        assert policy.victim(cache_set) == 5


class TestRandom:
    def test_victim_is_member(self):
        policy = RandomReplacement(XorShift64(1))
        cache_set = make_set([1, 2, 3, 4])
        for _ in range(50):
            assert policy.victim(cache_set) in cache_set

    def test_covers_all_members(self):
        policy = RandomReplacement(XorShift64(2))
        cache_set = make_set([1, 2, 3, 4])
        victims = {policy.victim(cache_set) for _ in range(200)}
        assert victims == {1, 2, 3, 4}

    def test_deterministic_with_seed(self):
        cache_set = make_set([1, 2, 3, 4])
        a = [RandomReplacement(XorShift64(3)).victim(cache_set) for _ in range(5)]
        b = [RandomReplacement(XorShift64(3)).victim(cache_set) for _ in range(5)]
        # note: fresh policy each call; streams must match pairwise
        assert a == b


class TestFactory:
    def test_builds_each(self):
        assert make_replacement_policy("lru").name == "lru"
        assert make_replacement_policy("FIFO").name == "fifo"
        assert make_replacement_policy("random").name == "random"

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            make_replacement_policy("plru")
