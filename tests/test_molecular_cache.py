"""Unit/integration tests for the MolecularCache front end."""

import pytest

from repro.common.errors import ConfigError, UnknownASIDError
from repro.common.types import Access
from repro.molecular.cache import MolecularCache
from repro.molecular.config import MolecularCacheConfig, ResizePolicy
from tests.conftest import make_cache


class TestConfig:
    def test_table3_defaults(self):
        config = MolecularCacheConfig()
        assert config.total_bytes == 8 << 20
        assert config.tile_bytes == 512 * 1024
        assert config.molecules_per_tile == 64
        assert config.lines_per_molecule == 128
        summary = config.table3_summary()
        assert summary["molecule_size"] == 8 * 1024
        assert summary["tile_clusters"] == 4

    def test_strict_ranges_enforced(self):
        with pytest.raises(ConfigError):
            MolecularCacheConfig(molecule_bytes=1024)  # below 8KB
        with pytest.raises(ConfigError):
            MolecularCacheConfig(molecules_per_tile=8)  # below 32
        with pytest.raises(ConfigError):
            MolecularCacheConfig(tiles_per_cluster=2)  # below 4

    def test_strict_false_allows_small(self):
        config = MolecularCacheConfig(
            molecule_bytes=1024, molecules_per_tile=2, tiles_per_cluster=2,
            clusters=1, strict=False,
        )
        assert config.total_bytes == 4096

    def test_for_total_size(self):
        config = MolecularCacheConfig.for_total_size(
            1 << 20, clusters=1, tiles_per_cluster=4, strict=False
        )
        assert config.total_bytes == 1 << 20
        assert config.tile_bytes == 256 * 1024

    def test_for_total_size_rejects_indivisible(self):
        with pytest.raises(ConfigError):
            MolecularCacheConfig.for_total_size(
                (1 << 20) + 512, clusters=1, tiles_per_cluster=4
            )

    @pytest.mark.parametrize("clusters, tiles", [(1, 0), (0, 4)])
    def test_for_total_size_rejects_empty_geometry(self, clusters, tiles):
        with pytest.raises(ConfigError, match="geometry must be positive"):
            MolecularCacheConfig.for_total_size(
                1 << 20, clusters=clusters, tiles_per_cluster=tiles
            )


class TestAssignment:
    def test_regions_get_distinct_tiles_round_robin(self, tiny_config):
        cache = make_cache(tiny_config)
        r0 = cache.assign_application(0)
        r1 = cache.assign_application(1)
        assert r0.home_tile_id != r1.home_tile_id

    def test_initial_allocation_half_tile_default(self, small_config):
        cache = MolecularCache(small_config, resize_policy=ResizePolicy())
        region = cache.assign_application(0)
        assert region.molecule_count == 8  # half of 16

    def test_explicit_initial_allocation(self, tiny_config):
        cache = make_cache(tiny_config)
        region = cache.assign_application(0, initial_molecules=3)
        assert region.molecule_count == 3

    def test_duplicate_asid_rejected(self, tiny_config):
        cache = make_cache(tiny_config)
        cache.assign_application(0)
        with pytest.raises(ConfigError):
            cache.assign_application(0)

    def test_negative_asid_rejected(self, tiny_config):
        with pytest.raises(ConfigError):
            make_cache(tiny_config).assign_application(-1)

    def test_unknown_tile_rejected(self, tiny_config):
        with pytest.raises(ConfigError):
            make_cache(tiny_config).assign_application(0, tile_id=99)

    def test_line_multiplier_bounded(self, tiny_config):
        with pytest.raises(ConfigError):
            make_cache(tiny_config).assign_application(0, line_multiplier=32)

    def test_unknown_asid_access_rejected(self, tiny_config):
        with pytest.raises(UnknownASIDError):
            make_cache(tiny_config).access_block(0, asid=5)

    def test_region_of(self, tiny_config):
        cache = make_cache(tiny_config)
        region = cache.assign_application(4)
        assert cache.region_of(4) is region
        with pytest.raises(UnknownASIDError):
            cache.region_of(5)


class TestAccessPath:
    def test_miss_then_hit(self, tiny_config):
        cache = make_cache(tiny_config)
        cache.assign_application(0, initial_molecules=2)
        assert cache.access_block(5, 0).miss
        assert cache.access_block(5, 0).hit

    def test_access_by_address(self, tiny_config):
        cache = make_cache(tiny_config)
        cache.assign_application(0, initial_molecules=2)
        assert cache.access(Access(0x1000, 0)).miss
        assert cache.access(Access(0x1000 + 32, 0)).hit

    def test_isolation_between_regions(self, tiny_config):
        cache = make_cache(tiny_config)
        cache.assign_application(0, initial_molecules=2)
        cache.assign_application(1, initial_molecules=2)
        cache.access_block(5, 0)
        assert cache.access_block(5, 1).miss  # other region: own copy

    def test_local_probe_accounting(self, tiny_config):
        cache = make_cache(tiny_config)
        cache.assign_application(0, tile_id=0, initial_molecules=2)
        result = cache.access_block(5, 0)
        assert result.molecules_probed_local == 2
        assert result.molecules_probed_remote == 0
        assert cache.stats.asid_comparisons == tiny_config.molecules_per_tile

    def test_remote_probe_accounting(self, tiny_config):
        cache = make_cache(tiny_config)
        # Region spans both tiles: 4 in home tile 0, 2 in tile 1.
        cache.assign_application(0, tile_id=0, initial_molecules=6)
        region = cache.regions[0]
        assert region.molecules_by_tile == {0: 4, 1: 2}
        remote_molecule = next(
            m for m in region.molecules() if m.tile_id == 1
        )
        region.install(7, remote_molecule, 0, write=False)
        result = cache.access_block(7, 0)
        assert result.hit
        assert result.molecules_probed_local == 4
        assert result.molecules_probed_remote == 2
        ulmo = cache.clusters[0].ulmo
        assert ulmo.stats.tile_misses == 1
        assert ulmo.stats.remote_hits == 1

    def test_miss_probes_all_contributing_tiles(self, tiny_config):
        cache = make_cache(tiny_config)
        cache.assign_application(0, tile_id=0, initial_molecules=6)
        result = cache.access_block(12345, 0)
        assert result.miss
        assert result.molecules_probed_remote == 2

    def test_write_dirty_writeback_cycle(self, tiny_config):
        cache = make_cache(tiny_config)
        cache.assign_application(0, initial_molecules=1)
        lines = tiny_config.lines_per_molecule
        cache.access_block(0, 0, write=True)
        result = cache.access_block(lines, 0)  # aliases block 0
        assert result.writeback
        assert cache.stats.writebacks_to_memory == 1

    def test_eviction_updates_presence(self, tiny_config):
        cache = make_cache(tiny_config)
        cache.assign_application(0, initial_molecules=1)
        lines = tiny_config.lines_per_molecule
        cache.access_block(0, 0)
        cache.access_block(lines, 0)
        assert cache.access_block(0, 0).miss  # was evicted

    def test_stats_track_per_asid(self, tiny_config):
        cache = make_cache(tiny_config)
        cache.assign_application(0, initial_molecules=2)
        cache.assign_application(1, initial_molecules=2)
        cache.access_block(1, 0)
        cache.access_block(1, 0)
        cache.access_block(2, 1)
        assert cache.stats.miss_rate(0) == pytest.approx(0.5)
        assert cache.stats.miss_rate(1) == pytest.approx(1.0)


class TestReporting:
    def test_partition_sizes(self, tiny_config):
        cache = make_cache(tiny_config)
        cache.assign_application(0, initial_molecules=3)
        cache.assign_application(1, initial_molecules=2)
        assert cache.partition_sizes() == {0: 3, 1: 2}

    def test_free_molecules(self, tiny_config):
        cache = make_cache(tiny_config)
        cache.assign_application(0, initial_molecules=3)
        assert cache.free_molecules() == tiny_config.total_molecules - 3

    def test_occupancy_report(self, tiny_config):
        cache = make_cache(tiny_config)
        cache.assign_application(0, goal=0.2, initial_molecules=2)
        cache.access_block(1, 0)
        report = cache.occupancy_report()
        assert report["partitions"][0]["molecules"] == 2
        assert report["partitions"][0]["goal"] == 0.2
        assert report["free_molecules"] == tiny_config.total_molecules - 2


class TestPresenceMapEquivalence:
    def test_presence_matches_brute_force_after_traffic(self, small_config):
        cache = make_cache(small_config, placement="randy")
        cache.assign_application(0, initial_molecules=8)
        import random

        stream_rng = random.Random(3)
        stream = [stream_rng.randrange(4000) for _ in range(5000)]
        for block in stream:
            cache.access_block(block, 0)
        region = cache.regions[0]
        for block in list(region.presence)[:200]:
            assert region.lookup_by_probe(block) is region.presence[block]
        # and the reverse: anything a probe finds is in the map
        for molecule in region.molecules():
            for block in molecule.resident_blocks():
                assert region.presence.get(block) is molecule
