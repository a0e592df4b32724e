"""Zero-overhead contract: a run with nothing to observe pays nothing per
reference.

Instead of racing the clock, count how often the drivers consult their
run schedule (:meth:`repro.sim.schedule.RunSchedule.reach`). With no bus,
no audit and no faults it is consulted at the start and at the warm-up,
whatever the trace length, and ``run_trace`` makes exactly two
``access_many`` calls: the warm-up, then the measured part. Everything
else a driver does per reference is the access itself (and, in
``CMPRunner``, one comparison with the next mark). The access rule
itself never reads the cache's telemetry bus.
"""

from __future__ import annotations

import pytest

from repro.common.rng import XorShift64
from repro.molecular.cache import MolecularCache
from repro.molecular.config import MolecularCacheConfig, ResizePolicy
from repro.sim.cmp import CMPRunConfig, CMPRunner
from repro.sim.driver import run_trace
from repro.sim.schedule import RunSchedule
from repro.telemetry.bus import EventBus
from repro.telemetry.sinks import RingBufferSink
from repro.trace.container import Trace


class CountingCache(MolecularCache):
    """A MolecularCache that counts reads of its ``telemetry`` attribute."""

    def __init__(self, *args, **kwargs):
        self.telemetry_reads = 0
        self._telemetry = None
        super().__init__(*args, **kwargs)

    @property
    def telemetry(self):
        self.telemetry_reads += 1
        return self._telemetry

    @telemetry.setter
    def telemetry(self, value):
        self._telemetry = value


def build_cache() -> MolecularCache:
    config = MolecularCacheConfig(
        molecule_bytes=1024,
        molecules_per_tile=8,
        tiles_per_cluster=2,
        clusters=1,
        strict=False,
    )
    cache = MolecularCache(
        config,
        resize_policy=ResizePolicy(period=200, min_window_refs=16),
        rng=XorShift64(3),
    )
    cache.assign_application(0, goal=0.3, initial_molecules=3, tile_id=0)
    cache.assign_application(1, goal=0.3, initial_molecules=3, tile_id=1)
    return cache


def make_trace(n: int, asid: int = 0) -> Trace:
    rng = XorShift64(9 + asid)
    return Trace([rng.randrange(400) * 64 for _ in range(n)], asids=asid)


@pytest.fixture
def consults(monkeypatch) -> list[int]:
    """Every issued count at which a driver consults its schedule."""
    counts: list[int] = []
    reach = RunSchedule.reach

    def counting(self, issued):
        counts.append(issued)
        return reach(self, issued)

    monkeypatch.setattr(RunSchedule, "reach", counting)
    return counts


def test_stream_lookups_independent_of_trace_length(consults, monkeypatch):
    for n in (100, 5_000):
        cache = build_cache()
        calls: list[int] = []
        access_many = cache.access_many

        def counting(blocks, asids, writes):
            calls.append(len(blocks))
            return access_many(blocks, asids, writes)

        monkeypatch.setattr(cache, "access_many", counting)
        consults.clear()
        run_trace(cache, make_trace(n), warmup_refs=n // 4)
        assert consults == [0, n // 4]
        assert calls == [n // 4, n - n // 4]


def test_session_lookups_independent_of_access_count(consults):
    for n in (100, 5_000):
        consults.clear()
        traces = {asid: make_trace(n, asid) for asid in (0, 1)}
        CMPRunner(build_cache(), CMPRunConfig(warmup_refs=n // 4)).run(traces)
        assert consults == [0, n // 4]


def test_access_rule_never_reads_the_bus():
    # Unmanaged regions: no resize decision, so nothing that may emit
    # (rounds, faults, audits) runs, and every read would be per access.
    config = MolecularCacheConfig(
        molecule_bytes=1024, molecules_per_tile=8, tiles_per_cluster=2,
        clusters=1, strict=False,
    )
    for n in (100, 5_000):
        cache = CountingCache(config, resize_policy=ResizePolicy(period=200),
                              rng=XorShift64(3))
        cache.assign_application(0, goal=None, initial_molecules=3, tile_id=0)
        cache.attach_telemetry(EventBus([RingBufferSink()]))
        before = cache.telemetry_reads
        rng = XorShift64(9)
        blocks = [rng.randrange(400) for _ in range(n)]
        for block in blocks:
            cache.access_block(block, 0)
        cache.access_many(blocks, 0)
        access = cache.access_session().access
        for block in blocks:
            access(block, 0)
        assert cache.telemetry_reads == before
