"""Cross-cutting consistency tests: statistics, energy and structure must
agree with each other after realistic end-to-end runs."""

import pytest

from repro.common.errors import (
    AllocationError,
    ConfigError,
    ReproError,
    SimulationError,
    UnknownASIDError,
)
from repro.molecular import MolecularCache, MolecularCacheConfig, ResizePolicy
from repro.power import CactiModel, MolecularEnergyModel
from repro.sim import CMPRunConfig, CMPRunner
from repro.workloads import get_model


class TestErrorHierarchy:
    def test_all_errors_are_repro_errors(self):
        for exc in (ConfigError, SimulationError, AllocationError, UnknownASIDError):
            assert issubclass(exc, ReproError)

    def test_config_error_is_value_error(self):
        assert issubclass(ConfigError, ValueError)

    def test_unknown_asid_is_key_error(self):
        assert issubclass(UnknownASIDError, KeyError)


@pytest.fixture(scope="module")
def loaded_cache():
    """A molecular cache after a realistic two-application run."""
    config = MolecularCacheConfig(
        molecule_bytes=8 * 1024,
        molecules_per_tile=32,
        tiles_per_cluster=4,
        clusters=1,
    )
    cache = MolecularCache(config, resize_policy=ResizePolicy())
    cache.assign_application(0, goal=0.10, tile_id=0)
    cache.assign_application(1, goal=0.10, tile_id=1)
    traces = {
        0: get_model("ammp").generate(60_000, seed=3, asid=0),
        1: get_model("parser").generate(60_000, seed=3, asid=1),
    }
    CMPRunner(cache, CMPRunConfig(miss_penalty=10, warmup_refs=0)).run(traces)
    return cache


class TestStatisticsConsistency:
    def test_structural_invariants(self, loaded_cache):
        loaded_cache.resizer.check_consistency()

    def test_per_asid_sums_to_total(self, loaded_cache):
        stats = loaded_cache.stats
        assert sum(c.accesses for c in stats.per_asid.values()) == stats.total.accesses
        assert sum(c.hits for c in stats.per_asid.values()) == stats.total.hits

    def test_region_counters_match_global(self, loaded_cache):
        stats = loaded_cache.stats
        for asid, region in loaded_cache.regions.items():
            assert region.total_accesses == stats.per_asid[asid].accesses
            assert region.total_misses == stats.per_asid[asid].misses

    def test_probe_counts_plausible(self, loaded_cache):
        stats = loaded_cache.stats
        # every access probes at least one molecule, at most a cluster
        assert stats.molecules_probed >= stats.total.accesses
        per_access = stats.mean_molecules_probed()
        assert 1.0 <= per_access <= loaded_cache.config.total_molecules

    def test_asid_comparisons_at_least_tile_per_access(self, loaded_cache):
        stats = loaded_cache.stats
        assert stats.asid_comparisons >= (
            stats.total.accesses * 1
        )  # every access fires the home tile's comparators

    def test_lines_fetched_equals_misses_at_unit_line(self, loaded_cache):
        stats = loaded_cache.stats
        assert stats.lines_fetched == stats.total.misses

    def test_latency_accumulates_sanely(self, loaded_cache):
        mean = loaded_cache.stats.mean_latency_cycles()
        model = loaded_cache.latency_model
        assert model.local_hit_cycles() <= mean
        assert mean <= model.params.memory_cycles + 100

    def test_molecule_occupancy_matches_presence(self, loaded_cache):
        for region in loaded_cache.regions.values():
            occupancy = sum(m.occupancy() for m in region.molecules())
            assert occupancy == len(region.presence)


class TestEnergyConsistency:
    def test_average_power_below_worst_case(self, loaded_cache):
        energy = MolecularEnergyModel(loaded_cache.config, CactiModel())
        average = energy.average_energy_nj(loaded_cache.stats.probe_counters())
        assert 0 < average <= energy.worst_case_energy_nj() * 1.01

    def test_energy_scales_with_frequency(self, loaded_cache):
        energy = MolecularEnergyModel(loaded_cache.config, CactiModel())
        p100 = energy.average_power_w(loaded_cache.stats.probe_counters(), 100.0)
        p200 = energy.average_power_w(loaded_cache.stats.probe_counters(), 200.0)
        assert p200 == pytest.approx(2 * p100)


class TestDeterminism:
    def test_identical_runs_identical_stats(self):
        def one_run():
            config = MolecularCacheConfig(
                molecule_bytes=8 * 1024, molecules_per_tile=32,
                tiles_per_cluster=4, clusters=1,
            )
            cache = MolecularCache(config, resize_policy=ResizePolicy())
            cache.assign_application(0, goal=0.2, tile_id=0)
            trace = get_model("crafty").generate(30_000, seed=8, asid=0)
            CMPRunner(cache, CMPRunConfig(10, 0)).run({0: trace})
            return (
                cache.stats.total.accesses,
                cache.stats.total.hits,
                cache.stats.molecules_probed,
                cache.stats.latency_cycles,
                cache.partition_sizes(),
            )

        assert one_run() == one_run()
