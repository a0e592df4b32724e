"""Tests for the throttled CMP execution model."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches.setassoc import SetAssociativeCache
from repro.caches.stats import CacheStats
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

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400"])
    def test_rejects_non_finite_penalty(self, text):
        # NaN issue times break the heap order; an infinite stall never
        # ends. Both are refused before anything runs.
        with pytest.raises(ConfigError, match="finite"):
            CMPRunConfig(miss_penalty=float(text))


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

    def test_warmup_past_the_run_is_refused(self):
        cache = SetAssociativeCache(64 * 1024, 4)
        runner = CMPRunner(cache, CMPRunConfig(warmup_refs=10_000))
        traces = {0: loop_trace(0, 16, 100), 1: loop_trace(1, 16, 100)}
        with pytest.raises(ConfigError, match=r"warmup_refs \(10000\).* 199 "):
            runner.run(traces)

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


class FlagCache:
    """Stub cache: answers each access with the next of a cycle of drawn
    hit flags, and logs the issue order."""

    def __init__(self, flags: list[bool]) -> None:
        self.flags = flags
        self.issued: list[tuple[int, int, bool]] = []
        self.stats = CacheStats()

    def access(self, block: int, asid: int, write: bool) -> bool:
        hit = self.flags[len(self.issued) % len(self.flags)]
        self.issued.append((asid, block, write))
        self.stats.record_access(asid, hit)
        return hit

    def access_session(self):
        return SimpleNamespace(access=self.access)


def reference_schedule(lengths: dict[int, int], flags: list[bool], penalty: float):
    """Linear-scan scheduler: the core with the least (time, asid) issues
    next; it may issue again 1 unit after a hit, 1 + penalty after a miss.
    Returns the issue order as (asid, index) and the final issue time."""
    ready = {asid: 0.0 for asid in lengths}
    done = {asid: 0 for asid in lengths}
    order: list[tuple[int, int]] = []
    while True:
        asid = min(ready, key=lambda a: (ready[a], a))
        now = ready[asid]
        hit = flags[len(order) % len(flags)]
        order.append((asid, done[asid]))
        done[asid] += 1
        if done[asid] == lengths[asid]:
            return order, now
        ready[asid] = now + (1.0 if hit else 1.0 + penalty)


def indexed_trace(asid: int, refs: int) -> Trace:
    """Block ``asid * 1000 + i`` at index ``i``; every third one a write."""
    index = np.arange(refs)
    return Trace((asid * 1000 + index) * 64, asids=asid, writes=index % 3 == 0)


class TestIssueOrder:
    @given(
        cores=st.lists(
            st.tuples(st.integers(0, 7), st.integers(1, 40)),
            min_size=1, max_size=4, unique_by=lambda core: core[0],
        ),
        flags=st.lists(st.booleans(), min_size=1, max_size=64),
        penalty=st.sampled_from([0.0, 2.5, 10.0]),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_a_linear_scan(self, cores, flags, penalty, data):
        lengths = dict(cores)
        order, end_time = reference_schedule(lengths, flags, penalty)
        total = len(order)
        warmup = data.draw(st.sampled_from(
            sorted({0, 1, max(total - 1, 0), total, total + 1})
        ))
        cache = FlagCache(flags)
        runner = CMPRunner(cache, CMPRunConfig(penalty, warmup_refs=warmup))
        traces = {asid: indexed_trace(asid, n) for asid, n in cores}
        if warmup >= total:
            with pytest.raises(ConfigError):
                runner.run(traces)
            return
        result = runner.run(traces)
        assert cache.issued == [
            (asid, asid * 1000 + index, index % 3 == 0) for asid, index in order
        ]
        assert (result.total_refs, result.end_time) == (total, end_time)
        # The snapshot sits after exactly ``warmup`` references.
        assert result.measured_refs == total - warmup


class TestMemory:
    def test_run_holds_no_whole_trace_list(self):
        """The run shifts and converts its columns a slice at a time: it
        builds no block column (3.2 MB for these two traces), and its peak
        is independent of trace length."""
        rng = np.random.default_rng(5)
        traces = {
            asid: Trace(rng.integers(0, 1 << 30, 200_000) * 64, asids=asid)
            for asid in (0, 1)
        }
        cache = SetAssociativeCache(64 * 1024, 4)
        runner = CMPRunner(cache, CMPRunConfig(warmup_refs=1000))
        tracemalloc.start()
        try:
            result = runner.run(traces)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.total_refs > 200_000
        assert peak < 2 << 20, f"peak {peak / 2**20:.2f} MB"

    def test_bad_line_size_refused_before_any_access(self):
        cache = FlagCache([True])
        with pytest.raises(ConfigError, match="power of two"):
            CMPRunner(cache, CMPRunConfig(warmup_refs=0)).run(
                {0: loop_trace(0, 4, 10)}, line_bytes=48
            )
        assert cache.issued == []
