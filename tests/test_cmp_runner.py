"""Tests for the throttled CMP execution model."""

import numpy as np
import pytest

from repro.caches.setassoc import SetAssociativeCache
from repro.common.errors import ConfigError
from repro.molecular import MolecularCache, MolecularCacheConfig, ResizePolicy
from repro.sim.cmp import CMPRunConfig, CMPRunner
from repro.trace.container import Trace


def loop_trace(asid: int, blocks: int, refs: int) -> Trace:
    addresses = (np.arange(refs) % blocks) * 64 + (asid << 30)
    return Trace(addresses, asids=asid)


def miss_trace(asid: int, refs: int) -> Trace:
    addresses = np.arange(refs) * 64 + (asid << 36)
    return Trace(addresses, asids=asid)


class TestConfig:
    def test_rejects_negative_penalty(self):
        with pytest.raises(ConfigError):
            CMPRunConfig(miss_penalty=-1)

    def test_rejects_negative_warmup(self):
        with pytest.raises(ConfigError):
            CMPRunConfig(warmup_refs=-1)


class TestBasicRuns:
    def test_single_app_miss_rate(self):
        cache = SetAssociativeCache(64 * 1024, 4)
        runner = CMPRunner(cache, CMPRunConfig(warmup_refs=0))
        result = runner.run({0: loop_trace(0, 16, 1600)})
        assert result.miss_rate(0) == pytest.approx(16 / 1600)

    def test_empty_traces_rejected(self):
        runner = CMPRunner(SetAssociativeCache(1024, 1))
        with pytest.raises(ConfigError):
            runner.run({})
        with pytest.raises(ConfigError):
            runner.run({0: Trace([])})

    def test_stops_at_first_exhaustion(self):
        cache = SetAssociativeCache(64 * 1024, 4)
        runner = CMPRunner(cache, CMPRunConfig(warmup_refs=0))
        result = runner.run({0: loop_trace(0, 4, 100), 1: loop_trace(1, 4, 10_000)})
        assert result.total_refs < 10_100

    def test_deterministic(self):
        traces = {0: loop_trace(0, 64, 2000), 1: miss_trace(1, 2000)}
        results = []
        for _ in range(2):
            cache = SetAssociativeCache(16 * 1024, 4)
            runner = CMPRunner(cache, CMPRunConfig(warmup_refs=0))
            results.append(runner.run(traces).miss_rates())
        assert results[0] == results[1]


class TestThrottling:
    def test_missing_app_progresses_slower(self):
        """A core stalling on every access issues far fewer references by
        the time a hitting core finishes — the SESC behaviour Table 1
        depends on."""
        cache = SetAssociativeCache(256 * 1024, 4)
        runner = CMPRunner(cache, CMPRunConfig(miss_penalty=10, warmup_refs=0))
        result = runner.run(
            {0: loop_trace(0, 16, 20_000), 1: miss_trace(1, 20_000)}
        )
        hits_app = result.per_asid[0].accesses
        miss_app = result.per_asid[1].accesses
        assert miss_app < hits_app / 3

    def test_zero_penalty_is_fair_interleave(self):
        cache = SetAssociativeCache(256 * 1024, 4)
        runner = CMPRunner(cache, CMPRunConfig(miss_penalty=0, warmup_refs=0))
        result = runner.run(
            {0: loop_trace(0, 16, 5_000), 1: miss_trace(1, 5_000)}
        )
        assert result.per_asid[1].accesses >= result.per_asid[0].accesses - 1


class TestWarmup:
    def test_warmup_excluded_from_stats(self):
        cache = SetAssociativeCache(64 * 1024, 4)
        runner = CMPRunner(cache, CMPRunConfig(warmup_refs=100))
        # 16-block loop: all 16 cold misses land in the warm-up window
        result = runner.run({0: loop_trace(0, 16, 2000)})
        assert result.miss_rate(0) == 0.0
        assert result.measured_refs == 1900

    def test_no_warmup_counts_everything(self):
        cache = SetAssociativeCache(64 * 1024, 4)
        runner = CMPRunner(cache, CMPRunConfig(warmup_refs=0))
        result = runner.run({0: loop_trace(0, 16, 2000)})
        assert result.miss_rate(0) > 0.0

    def test_overall_miss_rate(self):
        cache = SetAssociativeCache(64 * 1024, 4)
        runner = CMPRunner(cache, CMPRunConfig(warmup_refs=0))
        result = runner.run({0: loop_trace(0, 16, 1000), 1: loop_trace(1, 16, 1000)})
        assert 0.0 < result.overall_miss_rate() < 0.1


class TestMolecularL2:
    """Two regions on two home tiles of one molecular cache, run
    concurrently with Algorithm-1 resizing live."""

    def _cache(self) -> MolecularCache:
        config = MolecularCacheConfig(
            molecule_bytes=8 * 1024,
            molecules_per_tile=32,
            tiles_per_cluster=4,
            clusters=1,
        )
        cache = MolecularCache(config, resize_policy=ResizePolicy())
        for asid in (0, 1):
            cache.assign_application(asid, goal=0.15, tile_id=asid)
        return cache

    def test_resizing_keeps_the_cache_consistent(self):
        cache = self._cache()
        runner = CMPRunner(cache, CMPRunConfig(warmup_refs=0))
        result = runner.run(
            {0: loop_trace(0, 512, 20_000), 1: loop_trace(1, 512, 20_000)}
        )
        assert result.per_asid[0].accesses > 0 and result.per_asid[1].accesses > 0
        assert cache.resizer.log  # resizing fired during the run
        cache.resizer.check_consistency()

    def test_regions_keep_their_own_copies(self):
        cache = self._cache()
        same_blocks = Trace((np.arange(10_000) % 256) * 64)
        CMPRunner(cache, CMPRunConfig(warmup_refs=0)).run(
            {0: same_blocks, 1: same_blocks}
        )
        # identical addresses, but each region holds its own copy
        assert cache.regions[0].presence.keys() & cache.regions[1].presence.keys()
