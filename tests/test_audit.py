"""Audit subsystem: invariant auditor, mutation self-tests, bug regressions.

The mutation tests are the auditor's own correctness proof: each seeds
one class of bookkeeping corruption into a healthy, driven cache and
asserts it is detected by *exactly* the invariant that owns that law —
no silence, no shotgun of unrelated violations.
"""

from __future__ import annotations

import pytest

from repro.audit.invariants import (
    AUDIT_ENV,
    AuditError,
    assert_invariants,
    audit_and_emit,
    audit_cache,
    resolve_cadence,
)
from repro.caches.setassoc import SetAssociativeCache, line_state
from repro.common.errors import ConfigError, SimulationError
from repro.common.rng import XorShift64
from repro.molecular.cache import MolecularCache
from repro.molecular.config import MolecularCacheConfig, ResizePolicy
from repro.telemetry.bus import EventBus
from repro.telemetry.sinks import RingBufferSink

PLACEMENTS = ("random", "randy", "lru_direct")
TRIGGERS = ("constant", "global_adaptive", "per_app_adaptive")


def build_cache(
    placement: str = "randy",
    trigger: str = "constant",
    shared: bool = False,
    multipliers: tuple[int, int] = (1, 1),
) -> MolecularCache:
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
    cache = MolecularCache(
        config, policy, placement=placement, rng=XorShift64(11)
    )
    if shared:
        cache.create_shared_region(2, 2)
    cache.assign_application(
        0, goal=0.2, tile_id=0, line_multiplier=multipliers[0],
        initial_molecules=2,
    )
    cache.assign_application(
        1, goal=0.3, tile_id=1, line_multiplier=multipliers[1],
        initial_molecules=2,
    )
    if shared:
        cache.assign_shared_application(2, 2)
    return cache


def drive(cache: MolecularCache, count: int = 1500, seed: int = 5) -> None:
    rng = XorShift64(seed)
    asids = sorted(cache.regions)
    for index in range(count):
        asid = asids[index % len(asids)]
        block = 1 + asid * 100_000 + rng.randrange(220)
        cache.access_block(block, asid, rng.randrange(3) == 0)


def violation_slugs(cache) -> set[str]:
    return {v.invariant for v in audit_cache(cache).violations}


# --------------------------------------------------------------- clean runs


class TestCleanAudits:
    @pytest.mark.parametrize("placement", PLACEMENTS)
    @pytest.mark.parametrize("trigger", TRIGGERS)
    def test_driven_cache_is_clean(self, placement, trigger):
        cache = build_cache(placement, trigger, shared=True, multipliers=(2, 4))
        drive(cache)
        outcome = assert_invariants(cache)
        assert outcome.ok
        assert outcome.checks > 20
        assert outcome.accesses == cache.stats.total.accesses

    def test_clean_across_migration_and_forced_resize(self):
        cache = build_cache("lru_direct", "per_app_adaptive", shared=True)
        drive(cache, 600)
        cache.migrate_application(0, 1)
        drive(cache, 400, seed=9)
        cache.resizer.force_resize()
        drive(cache, 400, seed=13)
        assert assert_invariants(cache).ok

    def test_fresh_cache_is_clean(self):
        assert assert_invariants(build_cache()).ok

    def test_setassoc_is_clean(self):
        cache = SetAssociativeCache(1 << 14, 4)
        rng = XorShift64(3)
        for _ in range(2000):
            cache.access_block(rng.randrange(1 << 9), rng.randrange(2),
                               rng.randrange(4) == 0)
        assert assert_invariants(cache).ok

    def test_clean_across_warmup_reset(self):
        # The laws are checked on lifetime counters, which a warm-up
        # reset leaves alone; sessions count straight through it.
        cache = build_cache(shared=True, multipliers=(2, 1))
        drive(cache, 400)
        cache.stats.reset()
        drive(cache, 400, seed=7)
        session = cache.access_session()
        cache.access_many([1 + i % 90 for i in range(300)], 0, True)
        cache.stats.reset()
        for i in range(300):
            session.access(100_001 + i % 70, 1, i % 4 == 0)
        assert assert_invariants(cache).ok
        assert cache.stats.total.accesses == 300


# ------------------------------------------------------- mutation self-test


class TestMutationsDetected:
    """Each corruption class is caught by exactly its own invariant."""

    def corrupted(self, mutate, count: int = 1500, **kwargs) -> set[str]:
        cache = build_cache(**kwargs)
        drive(cache, count)
        mutate(cache)
        return violation_slugs(cache)

    def test_dropped_presence_entry(self):
        def mutate(cache):
            region = cache.regions[0]
            region.presence.pop(next(iter(region.presence)))

        assert self.corrupted(mutate) == {"presence-map"}

    def test_tile_index_off_by_one(self):
        def mutate(cache):
            region = cache.regions[0]
            region.molecules_by_tile[region.home_tile_id] += 1

        assert self.corrupted(mutate) == {"tile-index"}

    def test_stale_row_misses_length(self):
        def mutate(cache):
            cache.regions[0].row_misses.append(0)

        assert self.corrupted(mutate) == {"row-misses"}

    def test_molecule_count_drift(self):
        def mutate(cache):
            cache.regions[0]._molecule_count += 1

        assert self.corrupted(mutate) == {"tile-index"}

    def test_foreign_asid_molecule(self):
        def mutate(cache):
            next(cache.regions[0].molecules()).asid = 99

        assert self.corrupted(mutate) == {"asid-gating"}

    def test_free_molecule_holding_a_line(self):
        def mutate(cache):
            tile = cache.tile_of(2)
            free = [m for m in tile.molecules if m.is_free][0]
            free.lines[0] = 424242

        # Stop short of the first resize round so tile 2 keeps free
        # molecules to corrupt.
        assert self.corrupted(mutate, count=100) == {"free-list"}

    def test_shared_count_drift(self):
        def mutate(cache):
            cache.tile_of(2).shared_count += 1

        assert self.corrupted(mutate, shared=True) == {"shared-bookkeeping"}

    def test_second_random_row(self):
        def mutate(cache):
            region = cache.regions[0]
            region.rows.append([region.rows[0].pop()])
            region.row_misses.append(0)

        assert self.corrupted(mutate, placement="random") == {"placement-rows"}

    def test_leaked_touch_entry(self):
        def mutate(cache):
            cache.placement._touch.setdefault(cache.regions[0], {})[999_999] = 1

        assert self.corrupted(mutate, placement="lru_direct") == {
            "placement-recency"
        }

    def test_stats_drift(self):
        def mutate(cache):
            cache.stats.lines_fetched += 1

        assert self.corrupted(mutate) == {"stats-conservation"}

    def test_window_counter_overflow(self):
        def mutate(cache):
            region = cache.regions[0]
            region.window_accesses = region.total_accesses + 1

        assert self.corrupted(mutate) == {"region-counters"}

    def driven_setassoc(self) -> SetAssociativeCache:
        cache = SetAssociativeCache(1 << 13, 2)
        rng = XorShift64(3)
        for _ in range(500):
            cache.access_block(rng.randrange(1 << 8), asid=rng.randrange(2))
        assert audit_cache(cache).ok
        return cache

    def test_setassoc_mismatched_key(self):
        """Two resident blocks swapped into sets their index does not
        select (set sizes and owners unchanged)."""
        cache = self.driven_setassoc()
        first, second = [s for s in cache.iter_sets() if s][:2]
        a = next(iter(first))
        b = next(iter(second))
        a_state = first.pop(a)
        b_state = second.pop(b)
        first[b] = b_state
        second[a] = a_state
        slugs = {v.invariant for v in audit_cache(cache).violations}
        assert slugs == {"set-structure"}

    def test_setassoc_owner_without_misses(self):
        """A resident line handed to an ASID that never missed."""
        cache = self.driven_setassoc()
        target = next(s for s in cache.iter_sets() if s)
        block = next(iter(target))
        target[block] = line_state(7, False)
        slugs = {v.invariant for v in audit_cache(cache).violations}
        assert slugs == {"stats-conservation"}


# --------------------------------------------------------- regression: fixes


class TestSatelliteFixes:
    def shared_lru_cache(self) -> MolecularCache:
        config = MolecularCacheConfig(
            molecule_bytes=512, line_bytes=64, molecules_per_tile=6,
            tiles_per_cluster=2, clusters=1, strict=False,
        )
        cache = MolecularCache(
            config, ResizePolicy(period=10_000), placement="lru_direct",
            rng=XorShift64(7),
        )
        cache.create_shared_region(0, 2)
        cache.assign_application(0, goal=None, tile_id=0, initial_molecules=2)
        cache.assign_shared_application(1, 0)
        return cache

    def test_shared_hit_ages_the_shared_region(self):
        cache = self.shared_lru_cache()
        block = 77
        cache.access_block(block, 1)  # install into the shared region
        assert block in cache._shared_regions[0].presence
        cache.access_block(block, 0)  # asid 0's hit is served by it
        touches = cache.placement._touch
        assert block in touches.get(cache._shared_regions[0], {})
        assert block not in touches.get(cache.regions[0], {})
        assert assert_invariants(cache).ok

    def test_touch_map_pruned_on_eviction(self):
        cache = build_cache("lru_direct")
        region = cache.regions[0]
        for block in range(1, 400):  # far beyond 2 molecules of capacity
            cache.access_block(block, 0)
            cache.access_block(block, 0)  # a hit stamps the touch map
        touches = cache.placement._touch[region]
        assert touches, "hits should have stamped timestamps"
        assert set(touches) <= set(region.presence)
        assert assert_invariants(cache).ok

    def withdrawable_cache(self, placement: str) -> MolecularCache:
        config = MolecularCacheConfig(
            molecule_bytes=512, line_bytes=64, molecules_per_tile=6,
            tiles_per_cluster=3, clusters=1, strict=False,
        )
        policy = ResizePolicy(period=10_000, min_molecules=1)
        cache = MolecularCache(
            config, policy, placement=placement, rng=XorShift64(11)
        )
        cache.assign_application(0, goal=0.2, tile_id=0, initial_molecules=3)
        return cache

    def test_touch_map_pruned_on_withdrawal(self):
        cache = self.withdrawable_cache("lru_direct")
        region = cache.regions[0]
        for block in range(1, 60):
            cache.access_block(block, 0)
            cache.access_block(block, 0)
        before = region.molecule_count
        cache.resizer._withdraw(region, 1, cache.stats.total.accesses)
        assert region.molecule_count == before - 1
        assert set(cache.placement._touch[region]) <= set(region.presence)
        assert assert_invariants(cache).ok

    def test_shared_rollback_reports_true_free_count(self):
        cache = build_cache()  # tiles of 6 molecules; tile 2 untouched
        with pytest.raises(ConfigError, match="only 6 free"):
            cache.create_shared_region(2, 7)
        # The partial grant was rolled back, not leaked.
        assert cache.tile_of(2).free_count == 6
        assert assert_invariants(cache).ok

    def test_assign_fails_fast_on_empty_grant(self):
        config = MolecularCacheConfig(
            molecule_bytes=512, line_bytes=64, molecules_per_tile=4,
            tiles_per_cluster=1, clusters=1, strict=False,
        )
        cache = MolecularCache(config, ResizePolicy(), rng=XorShift64(1))
        cache.assign_application(0, initial_molecules=4)
        with pytest.raises(ConfigError, match="got none.*0 free"):
            cache.assign_application(1, tile_id=0)
        assert 1 not in cache.regions

    def test_withdrawal_flushes_are_accounted(self):
        cache = self.withdrawable_cache("randy")
        region = cache.regions[0]
        for block in range(1, 30):
            cache.access_block(block, 0, write=True)
        before = cache.stats.writebacks_to_memory
        cache.resizer._withdraw(region, 1, cache.stats.total.accesses)
        flushed = cache.stats.flush_writebacks
        assert flushed > 0
        assert cache.stats.writebacks_to_memory == before + flushed
        assert assert_invariants(cache).ok


# ------------------------------------------------------------- API plumbing


class TestAuditApi:
    def test_assert_raises_audit_error_with_slug(self):
        cache = build_cache()
        drive(cache, 300)
        cache.regions[0].row_misses.append(0)
        with pytest.raises(AuditError, match=r"\[row-misses\]"):
            assert_invariants(cache)

    def test_audit_error_is_a_simulation_error(self):
        cache = build_cache()
        cache.regions[0].row_misses.append(0)
        with pytest.raises(SimulationError):
            cache.resizer.check_consistency()

    def test_check_consistency_still_passes_clean(self):
        cache = build_cache()
        drive(cache, 300)
        cache.resizer.check_consistency()

    def test_audit_rejects_unknown_cache(self):
        with pytest.raises(ConfigError, match="cannot audit"):
            audit_cache(object())

    def test_audit_and_emit_publishes_report(self):
        cache = build_cache()
        sink = RingBufferSink()
        cache.attach_telemetry(EventBus([sink], epoch_refs=0))
        drive(cache, 200)
        outcome = audit_and_emit(cache)
        reports = [e for e in sink if e.kind == "audit_report"]
        assert len(reports) == 1
        assert reports[0].ok and reports[0].checks == outcome.checks

    def test_audit_and_emit_reports_failure_then_raises(self):
        cache = build_cache()
        sink = RingBufferSink()
        cache.attach_telemetry(EventBus([sink], epoch_refs=0))
        drive(cache, 200)
        cache.regions[0].row_misses.append(0)
        with pytest.raises(AuditError):
            audit_and_emit(cache)
        report = [e for e in sink if e.kind == "audit_report"][-1]
        assert not report.ok
        assert any("row-misses" in v for v in report.violations)

    def test_resolve_cadence(self, monkeypatch):
        monkeypatch.delenv(AUDIT_ENV, raising=False)
        assert resolve_cadence(None) == 0
        assert resolve_cadence(0) == 0
        assert resolve_cadence(123) == 123
        with pytest.raises(ConfigError):
            resolve_cadence(-1)
        monkeypatch.setenv(AUDIT_ENV, "2500")
        assert resolve_cadence(None) == 2500
        assert resolve_cadence(10) == 10  # explicit beats the environment
        monkeypatch.setenv(AUDIT_ENV, "junk")
        with pytest.raises(ConfigError):
            resolve_cadence(None)
        monkeypatch.setenv(AUDIT_ENV, "")
        assert resolve_cadence(None) == 0


# ------------------------------------------------------- driver integration


class TestDriverIntegration:
    def test_run_trace_audits_at_cadence(self, monkeypatch):
        import repro.sim.driver as driver
        import repro.sim.schedule as schedule

        calls = []
        real = schedule.audit_and_emit
        monkeypatch.setattr(
            schedule, "audit_and_emit",
            lambda cache: calls.append(cache.stats.total.accesses) or real(cache),
        )
        from repro.trace.container import Trace

        cache = build_cache()
        addresses = [(1 + (i % 50)) * 64 for i in range(400)]
        driver.run_trace(cache, Trace(addresses), audit_every=100)
        # At every 100th reference, then once at the end of the run.
        assert calls == [100, 200, 300, 400]

    def test_run_trace_disabled_is_single_batch(self, monkeypatch):
        import repro.sim.driver as driver

        monkeypatch.delenv(AUDIT_ENV, raising=False)
        from repro.trace.container import Trace

        cache = build_cache()
        batches = []
        real = cache.access_many
        cache.access_many = lambda *a: batches.append(1) or real(*a)
        driver.run_trace(cache, Trace([64, 128, 192]))
        assert batches == [1]

    def test_run_trace_reads_environment(self, monkeypatch):
        import repro.sim.driver as driver
        import repro.sim.schedule as schedule

        calls = []
        monkeypatch.setattr(
            schedule, "audit_and_emit",
            lambda cache: calls.append(1),
        )
        monkeypatch.setenv(AUDIT_ENV, "50")
        from repro.trace.container import Trace

        cache = build_cache()
        driver.run_trace(cache, Trace([64] * 100))
        assert len(calls) == 2  # at reference 50, then at the end

    def test_cmp_runner_audits_at_cadence(self):
        from repro.sim.cmp import CMPRunConfig, CMPRunner
        from repro.trace.container import Trace

        cache = build_cache()
        traces = {
            0: Trace([(1 + (i % 40)) * 64 for i in range(300)], asids=0),
            1: Trace([(1 + (i % 40)) * 64 + (1 << 20) for i in range(300)],
                     asids=1),
        }
        runner = CMPRunner(
            cache, CMPRunConfig(warmup_refs=0, audit_every=100)
        )
        result = runner.run(traces)
        assert result.total_refs > 0  # audits did not derail the run

    def test_cmp_runner_surfaces_corruption(self):
        from repro.sim.cmp import CMPRunConfig, CMPRunner
        from repro.trace.container import Trace

        cache = build_cache()
        cache.regions[0].row_misses.append(0)
        runner = CMPRunner(cache, CMPRunConfig(warmup_refs=0, audit_every=10))
        with pytest.raises(AuditError):
            runner.run({0: Trace([i * 64 for i in range(100)], asids=0)})

    def test_cmp_config_rejects_negative_cadence(self):
        from repro.sim.cmp import CMPRunConfig

        with pytest.raises(ConfigError):
            CMPRunConfig(audit_every=-1)
