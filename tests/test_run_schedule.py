"""The run schedule both drivers share (:mod:`repro.sim.schedule`).

Once ``n`` references are issued, a driver does, in this order: the
epoch rollover, the audit, the warm-up snapshot or reset, then the
faults due at ``n``; the run ends with the tail epoch and a last audit.
These tests pin that order where the counts coincide, the ends of a run,
and the access a cache with neither ``access_many`` nor a session is
driven (and sampled) through.
"""

import pytest

import repro.sim.schedule as schedule_module
from repro.caches.partitioned import ModifiedLRUCache
from repro.common.rng import XorShift64
from repro.faults.spec import FaultPlan
from repro.molecular.cache import MolecularCache
from repro.molecular.config import MolecularCacheConfig, ResizePolicy
from repro.sim.cmp import CMPRunConfig, CMPRunner
from repro.sim.driver import run_trace
from repro.telemetry.bus import EventBus
from repro.telemetry.sinks import RingBufferSink
from repro.trace.container import Trace

BETWEEN = ("epoch_rollover", "audit_report", "fault_injected")


def build_cache() -> MolecularCache:
    config = MolecularCacheConfig(
        molecule_bytes=1024, molecules_per_tile=8, tiles_per_cluster=2,
        clusters=1, strict=False,
    )
    cache = MolecularCache(
        config, resize_policy=ResizePolicy(period=10_000), rng=XorShift64(3)
    )
    cache.assign_application(0, goal=0.3, initial_molecules=3, tile_id=0)
    cache.assign_application(1, goal=0.3, initial_molecules=3, tile_id=1)
    return cache


def random_trace(n: int, asid=None, seed: int = 5) -> Trace:
    rng = XorShift64(seed)
    asids = [rng.randrange(2) for _ in range(n)] if asid is None else asid
    return Trace([rng.randrange(300) * 64 for _ in range(n)], asids,
                 [rng.randrange(4) == 0 for _ in range(n)])


def test_coinciding_work_runs_in_order():
    # At 200 references everything is due: the rollover and the audit
    # see the warm-up's counts, the fault the reset ones.
    sink = RingBufferSink(capacity=10_000)
    run_trace(build_cache(), random_trace(400), warmup_refs=200,
              telemetry=EventBus([sink], epoch_refs=100), audit_every=100,
              faults=FaultPlan.parse("degraded@200:t1+4"))
    events = [e for e in sink if e.kind in BETWEEN]
    assert [e.kind for e in events] == [
        "epoch_rollover", "audit_report",                    # 100
        "epoch_rollover", "audit_report", "fault_injected",  # 200
        "epoch_rollover", "audit_report",                    # 300
        "epoch_rollover", "audit_report",                    # the end
    ]
    assert [e.seq for e in events if e.kind == "epoch_rollover"] == [
        100, 200, 300, 400
    ]
    audit, fault = events[3], events[4]
    assert audit.accesses == 200 and fault.accesses == 0


def test_cmp_runner_audits_at_cadence_and_at_the_end(monkeypatch):
    real = schedule_module.audit_and_emit
    audits = []
    monkeypatch.setattr(
        schedule_module, "audit_and_emit",
        lambda cache: audits.append(cache.stats.total.accesses) or real(cache),
    )
    traces = {asid: random_trace(350, asid, seed=asid) for asid in (0, 1)}
    result = CMPRunner(
        build_cache(), CMPRunConfig(warmup_refs=0, audit_every=100)
    ).run(traces)
    issued = result.total_refs
    assert issued % 100
    assert audits == [*range(100, issued, 100), issued]


def test_a_fault_at_zero_fires_before_the_first_reference():
    sink = RingBufferSink()
    run_trace(build_cache(), random_trace(300),
              telemetry=EventBus([sink], epoch_refs=0),
              faults=FaultPlan.parse("degraded@0:t1+4"))
    fired = [e for e in sink if e.kind == "fault_injected"]
    assert [(e.target, e.accesses) for e in fired] == [(1, 0)]


@pytest.mark.parametrize("driver", ["run_trace", "cmp"])
def test_access_block_only_cache_is_sampled(driver, monkeypatch):
    # No access_many and no session: both drivers issue every reference,
    # sampled ones included, through access_block.
    monkeypatch.setattr(schedule_module, "SAMPLE_EVERY", 1)

    def run(bus):
        cache = ModifiedLRUCache(1 << 12, 2, quotas={0: 8})
        if driver == "run_trace":
            run_trace(cache, random_trace(600), telemetry=bus)
        else:
            traces = {asid: random_trace(300, asid, seed=asid) for asid in (0, 1)}
            CMPRunner(cache, CMPRunConfig(warmup_refs=0), telemetry=bus).run(traces)
        return cache

    sink = RingBufferSink(capacity=10_000)
    sampled, plain = run(EventBus([sink])), run(None)
    assert sampled.stats == plain.stats
    outcomes = [e.outcome for e in sink]
    assert len(outcomes) == sampled.stats.total.accesses
    assert set(outcomes) == {"hit", "clean-miss", "dirty-miss"}
