"""Fault injection: spec grammar, fault semantics, retirement and repair.

Covers the :mod:`repro.faults` subsystem end to end — the ``--faults``
grammar, :func:`apply_fault` against every fault kind, the resizer's
repair path, the trace drivers' scheduling, and the differential oracle
with fault ops mixed into the stream.
"""

from __future__ import annotations

import pytest

from repro.audit.invariants import assert_invariants, audit_cache
from repro.audit.oracle import AppSpec, Scenario, run_oracle
from repro.common.errors import ConfigError
from repro.common.rng import XorShift64
from repro.faults import FaultInjector, FaultPlan, FaultSpec, apply_fault
from repro.molecular.cache import MolecularCache
from repro.molecular.config import MolecularCacheConfig, ResizePolicy
from repro.sim.driver import run_trace
from repro.telemetry.bus import EventBus
from repro.telemetry.sinks import RingBufferSink
from repro.trace.container import Trace


def build_cache(
    trigger: str = "constant",
    shared: bool = False,
    telemetry: bool = False,
    goal: float = 0.2,
):
    config = MolecularCacheConfig(
        molecule_bytes=512,
        line_bytes=64,
        molecules_per_tile=6,
        tiles_per_cluster=3,
        clusters=1,
        strict=False,
    )
    policy = ResizePolicy(
        period=200, trigger=trigger, min_window_refs=16, period_floor=50
    )
    cache = MolecularCache(config, policy, placement="randy", rng=XorShift64(11))
    sink = None
    if telemetry:
        sink = RingBufferSink(capacity=4096)
        cache.attach_telemetry(EventBus(sinks=[sink], epoch_refs=0))
    if shared:
        cache.create_shared_region(2, 2)
    cache.assign_application(0, goal=goal, tile_id=0, initial_molecules=2)
    cache.assign_application(1, goal=0.3, tile_id=1, initial_molecules=2)
    if shared:
        cache.assign_shared_application(2, 2)
    return cache, sink


def drive(cache, count: int = 400, seed: int = 5) -> None:
    rng = XorShift64(seed)
    asids = sorted(cache.regions)
    for index in range(count):
        asid = asids[index % len(asids)]
        block = 1 + asid * 100_000 + rng.randrange(200)
        cache.access_block(block, asid, rng.randrange(3) == 0)


def region_molecule(cache, asid: int):
    """A molecule currently owned by ``asid``'s region."""
    return next(cache.regions[asid].molecules())


# ----------------------------------------------------------------- grammar


class TestSpecGrammar:
    def test_parse_round_trip(self):
        text = "hard@5000:m3,transient@8000:m3,degraded@10000:t1+8"
        plan = FaultPlan.parse(text)
        assert str(plan) == text
        assert FaultPlan.from_payload(plan.as_payload()) == plan

    def test_plan_sorts_by_firing_time(self):
        plan = FaultPlan.parse("hard@900:m1,transient@100:m2")
        assert [spec.at for spec in plan] == [100, 900]

    @pytest.mark.parametrize("bad", [
        "meltdown@5:m1",        # unknown kind
        "hard@5:t1",            # hard targets a molecule, not a tile
        "degraded@5:m1+8",      # degraded targets a tile
        "hard@5:m1+8",          # +cycles only for degraded
        "degraded@5:t1",        # degraded needs +cycles
        "hard@5",               # missing target
        "",                     # no specs at all
    ])
    def test_rejects_bad_grammar(self, bad):
        with pytest.raises(ConfigError):
            FaultPlan.parse(bad)

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            FaultSpec(kind="hard", at=-1, target=0)
        with pytest.raises(ConfigError):
            FaultSpec(kind="transient", at=0, target=0, extra_cycles=4)
        with pytest.raises(ConfigError):
            FaultSpec(kind="degraded", at=0, target=0)


# ------------------------------------------------------------- hard faults


class TestHardFaults:
    def test_retirement_removes_the_molecule_from_its_region(self):
        cache, _ = build_cache()
        drive(cache)
        molecule = region_molecule(cache, 0)
        before = cache.regions[0].molecule_count
        assert apply_fault(
            cache, FaultSpec(kind="hard", at=0, target=molecule.molecule_id)
        )
        assert molecule.failed
        assert not molecule.is_free
        assert cache.regions[0].molecule_count == before - 1
        assert cache.regions[0].pending_repair == 1
        assert cache.stats.molecules_retired == 1
        assert cache.tile_of(molecule.tile_id).failed_count == 1
        assert assert_invariants(cache).ok

    def test_retirement_flushes_dirty_lines_to_memory(self):
        cache, _ = build_cache()
        cache.access_block(1, 0, write=True)  # dirty line in region 0
        victim = cache.regions[0].lookup(1)
        before = cache.stats.writebacks_to_memory
        apply_fault(cache, FaultSpec(kind="hard", at=0, target=victim.molecule_id))
        flushed = cache.stats.writebacks_to_memory - before
        assert flushed >= 1
        assert cache.stats.flush_writebacks >= flushed

    def test_free_pool_molecule_retires_without_repair(self):
        cache, _ = build_cache()
        free = next(
            m
            for tile in cache._tiles.values()
            for m in tile.molecules
            if m.is_free
        )
        apply_fault(cache, FaultSpec(kind="hard", at=0, target=free.molecule_id))
        assert free.failed and not free.is_free
        assert all(r.pending_repair == 0 for r in cache.regions.values())
        assert assert_invariants(cache).ok

    def test_refused_at_region_minimum_size(self):
        cache, _ = build_cache()
        region = cache.regions[0]
        while region.molecule_count > 1:
            target = next(region.molecules()).molecule_id
            apply_fault(cache, FaultSpec(kind="hard", at=0, target=target))
        last = next(region.molecules())
        assert not apply_fault(
            cache, FaultSpec(kind="hard", at=0, target=last.molecule_id)
        )
        assert not last.failed
        assert region.molecule_count == 1

    def test_refused_when_already_retired(self):
        cache, _ = build_cache()
        molecule = region_molecule(cache, 0)
        spec = FaultSpec(kind="hard", at=0, target=molecule.molecule_id)
        assert apply_fault(cache, spec)
        assert not apply_fault(cache, spec)
        assert cache.stats.molecules_retired == 1
        assert cache.stats.faults_injected == 2  # attempts are still counted

    def test_retired_molecule_stops_its_comparator(self):
        cache, _ = build_cache()
        drive(cache, 100)
        region = cache.regions[0]
        owned = list(region.molecules())
        victim = owned[0]
        tile = cache.tile_of(victim.tile_id)
        live = len(tile.molecules)
        # A block resident in a *surviving* molecule: both measured
        # accesses below hit, so the only delta is the comparator count.
        block = next(
            m.resident_blocks()[0]
            for m in owned[1:]
            if m.resident_blocks()
        )

        before = cache.stats.asid_comparisons
        assert cache.access_block(block, 0).hit
        full = cache.stats.asid_comparisons - before

        apply_fault(cache, FaultSpec(kind="hard", at=0, target=victim.molecule_id))
        before = cache.stats.asid_comparisons
        assert cache.access_block(block, 0).hit
        reduced = cache.stats.asid_comparisons - before
        assert full - reduced == 1
        assert tile.active_count == live - 1

    def test_shared_region_retirement_has_no_repair(self):
        cache, _ = build_cache(shared=True)
        drive(cache, 300)
        shared = cache._shared_regions[2]
        target = next(shared.molecules()).molecule_id
        apply_fault(cache, FaultSpec(kind="hard", at=0, target=target))
        assert shared.pending_repair == 0
        assert assert_invariants(cache).ok


# -------------------------------------------------------------- repair


class TestRepair:
    def test_resizer_repairs_the_region_next_epoch(self):
        cache, _ = build_cache()
        drive(cache, 300)
        molecule = region_molecule(cache, 0)
        apply_fault(cache, FaultSpec(kind="hard", at=0, target=molecule.molecule_id))
        assert cache.regions[0].pending_repair == 1
        cache.resizer.force_resize()
        assert cache.regions[0].pending_repair == 0
        assert cache.stats.molecules_repaired == 1
        assert any(e[2] == "repair" for e in cache.resizer.log)
        assert assert_invariants(cache).ok

    def test_repair_denied_when_the_free_pool_is_exhausted(self):
        cache, _ = build_cache()
        drive(cache, 300)
        # Retire every free molecule, then one of region 0's.
        for tile in cache._tiles.values():
            for molecule in list(tile.molecules):
                if molecule.is_free:
                    apply_fault(
                        cache,
                        FaultSpec(kind="hard", at=0, target=molecule.molecule_id),
                    )
        victim = region_molecule(cache, 0)
        apply_fault(cache, FaultSpec(kind="hard", at=0, target=victim.molecule_id))
        cache.resizer.force_resize()
        assert cache.regions[0].pending_repair == 1  # still owed
        assert any(e[2] == "repair-denied" for e in cache.resizer.log)
        assert assert_invariants(cache).ok

    def test_repair_does_not_disturb_last_allocation(self):
        cache, _ = build_cache()
        drive(cache, 300)
        region = cache.regions[0]
        last = region.last_allocation
        apply_fault(
            cache,
            FaultSpec(
                kind="hard", at=0, target=next(region.molecules()).molecule_id
            ),
        )
        cache.resizer._repair(region, cache.stats.total.accesses)
        assert region.last_allocation == last


# ------------------------------------------------- transient and degraded


class TestTransientFaults:
    def test_dropped_line_refetches_as_a_miss(self):
        cache, _ = build_cache()
        cache.access_block(1, 0, write=True)
        molecule = cache.regions[0].lookup(1)
        block = molecule.resident_blocks()[0]
        writebacks = cache.stats.writebacks_to_memory
        assert apply_fault(
            cache, FaultSpec(kind="transient", at=0, target=molecule.molecule_id)
        )
        assert cache.stats.lines_invalidated == 1
        # Dirty data is *lost*, not written back.
        assert cache.stats.writebacks_to_memory == writebacks
        assert not cache.access_block(block, 0).hit
        assert assert_invariants(cache).ok

    def test_no_resident_lines_is_a_no_op(self):
        cache, _ = build_cache()
        molecule = region_molecule(cache, 0)
        assert not apply_fault(
            cache, FaultSpec(kind="transient", at=0, target=molecule.molecule_id)
        )
        assert cache.stats.lines_invalidated == 0


class TestDegradedTiles:
    def test_home_accesses_pay_the_extra_cycles(self):
        cache, _ = build_cache()
        cache.access_block(1, 0)
        before = cache.stats.latency_cycles
        cache.access_block(1, 0)  # hit, clean port
        clean = cache.stats.latency_cycles - before

        assert apply_fault(
            cache, FaultSpec(kind="degraded", at=0, target=0, extra_cycles=9)
        )
        before = cache.stats.latency_cycles
        cache.access_block(1, 0)  # same hit, degraded port
        degraded = cache.stats.latency_cycles - before
        assert degraded - clean == 9
        assert assert_invariants(cache).ok

    def test_reapplying_the_same_degradation_is_a_no_op(self):
        cache, _ = build_cache()
        spec = FaultSpec(kind="degraded", at=0, target=1, extra_cycles=4)
        assert apply_fault(cache, spec)
        assert not apply_fault(cache, spec)


# ------------------------------------------------------ auditor integration


class TestFaultInvariants:
    def test_retired_molecule_inside_a_region_is_flagged(self):
        cache, _ = build_cache()
        molecule = region_molecule(cache, 0)
        molecule.failed = True  # corrupt: failed but still attached
        cache.tile_of(molecule.tile_id).failed_count += 1
        slugs = {
            v.invariant for v in audit_cache(cache).violations
        }
        assert "fault-retirement" in slugs

    def test_failed_count_mismatch_is_flagged(self):
        cache, _ = build_cache()
        cache.tile_of(0).failed_count = 2  # no molecule actually failed
        slugs = {
            v.invariant for v in audit_cache(cache).violations
        }
        assert "fault-retirement" in slugs


# -------------------------------------------------------- driver scheduling


class TestDriverScheduling:
    def make_trace(self, refs: int = 3000) -> Trace:
        rng = XorShift64(3)
        return Trace([rng.randrange(220) * 64 for _ in range(refs)])

    def plan(self) -> FaultPlan:
        return FaultPlan.parse("hard@500:m0,transient@900:m1,degraded@1500:t1+8")

    def test_batched_and_scalar_paths_agree_under_faults(self):
        cache_a, _ = build_cache()
        cache_b, _ = build_cache()
        trace = self.make_trace()
        run_trace(cache_a, trace, faults=self.plan())

        blocks = trace.block_list(64)
        injector = FaultInjector(cache_b, self.plan())
        for index, block in enumerate(blocks):
            injector.fire_due(index)
            cache_b.access_block(block, 0, False)
        assert cache_a.stats.as_dict() == cache_b.stats.as_dict()
        assert cache_a.stats.molecules_retired == 1
        assert cache_a.stats.lines_invalidated == 1

    def test_fault_at_or_past_the_trace_end_never_fires(self):
        cache, _ = build_cache()
        trace = self.make_trace(100)
        run_trace(cache, trace, faults=FaultPlan.parse("hard@100:m0"))
        assert cache.stats.faults_injected == 0

    def test_faults_need_a_molecular_cache(self):
        from repro.caches.setassoc import SetAssociativeCache

        cache = SetAssociativeCache(1 << 14, 2)
        with pytest.raises(ConfigError, match="molecular"):
            run_trace(cache, self.make_trace(10), faults=FaultPlan.parse("hard@1:m0"))

    def test_injector_fires_in_order_and_once(self):
        cache, _ = build_cache()
        plan = FaultPlan.parse("degraded@10:t0+4,degraded@10:t1+4,degraded@50:t2+4")
        injector = FaultInjector(cache, plan)
        assert injector.next_at == 10
        assert injector.fire_due(9) == 0
        assert injector.fire_due(10) == 2
        assert injector.next_at == 50
        assert injector.fire_due(200) == 1
        assert injector.exhausted
        assert injector.fire_due(1000) == 0


# -------------------------------------------------------------- telemetry


class TestFaultTelemetry:
    def test_events_cover_injection_retirement_and_repair(self):
        cache, sink = build_cache(telemetry=True)
        drive(cache, 300)
        molecule = region_molecule(cache, 0)
        apply_fault(cache, FaultSpec(kind="hard", at=0, target=molecule.molecule_id))
        cache.resizer.force_resize()
        cache.telemetry.flush_epoch(cache.stats.total.accesses)
        kinds = [event.kind for event in sink]
        assert "fault_injected" in kinds
        assert "molecule_retired" in kinds
        assert "region_repaired" in kinds
        retired = next(e for e in sink if e.kind == "molecule_retired")
        assert retired.molecule == molecule.molecule_id
        assert retired.asid == 0


# ------------------------------------------------------------------ oracle


class TestOracleFaultOps:
    def scenario(self) -> Scenario:
        return Scenario(
            apps=(
                AppSpec(asid=0, goal=0.2, tile_id=0, initial_molecules=2),
                AppSpec(asid=1, goal=0.3, tile_id=1, initial_molecules=2),
            ),
            placement="randy",
            trigger="constant",
            seed=7,
        )

    def test_all_paths_agree_under_fault_ops(self):
        rng = XorShift64(17)
        ops = []
        for index in range(1200):
            asid = index % 2
            ops.append(
                ("access", asid, 1 + asid * 100_000 + rng.randrange(180),
                 rng.randrange(4) == 0)
            )
        ops[300] = ("fault", "hard", 0)
        ops[500] = ("fault", "transient", 7)
        ops[700] = ("fault", "degraded", 1, 8)
        ops[900] = ("force_resize",)
        report = run_oracle(self.scenario(), ops, audit_every=250)
        assert report.ok, report.divergences

    def test_fuzz_with_fault_schedules_is_clean(self):
        from repro.audit.fuzz import fuzz

        report = fuzz(
            ops=4000,
            seed=3,
            placements=("randy",),
            triggers=("constant",),
            faults=True,
        )
        assert report.ok, [f.summary() for f in report.failures]
        # The generator actually mixed faults into the stream.
        cell_ops = report.operations
        assert cell_ops == 4000
