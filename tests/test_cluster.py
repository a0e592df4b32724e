"""Unit tests for tile clusters and the Ulmo controller."""

import pytest

from repro.common.errors import ConfigError
from repro.molecular.cluster import TileCluster


def make_cluster(tiles=2, molecules=4, lines=16) -> TileCluster:
    return TileCluster(
        cluster_id=0,
        tile_count=tiles,
        molecules_per_tile=molecules,
        lines_per_molecule=lines,
    )


class TestStructure:
    def test_tile_ids(self):
        cluster = TileCluster(1, 3, 2, 16, first_tile_id=4, first_molecule_id=100)
        assert [t.tile_id for t in cluster.tiles] == [4, 5, 6]
        assert cluster.tile(5).tile_id == 5
        ids = [m.molecule_id for t in cluster.tiles for m in t.molecules]
        assert ids == list(range(100, 106))

    def test_unknown_tile_rejected(self):
        with pytest.raises(ConfigError):
            make_cluster().tile(99)

    def test_counts(self):
        cluster = make_cluster(tiles=2, molecules=4)
        assert cluster.molecule_count == 8
        assert cluster.free_count == 8

    def test_rejects_zero_tiles(self):
        with pytest.raises(ConfigError):
            make_cluster(tiles=0)


class TestUlmoAllocation:
    def test_prefers_home_tile(self):
        cluster = make_cluster(tiles=2, molecules=4)
        granted = cluster.ulmo.allocate(asid=1, count=3, home_tile_id=1)
        assert all(m.tile_id == 1 for m in granted)

    def test_spills_to_other_tiles(self):
        cluster = make_cluster(tiles=2, molecules=4)
        granted = cluster.ulmo.allocate(asid=1, count=6, home_tile_id=0)
        assert len(granted) == 6
        assert {m.tile_id for m in granted} == {0, 1}
        # home tile fully used first
        assert sum(1 for m in granted if m.tile_id == 0) == 4

    def test_partial_grant_and_shortfall_stat(self):
        cluster = make_cluster(tiles=2, molecules=2)
        granted = cluster.ulmo.allocate(asid=1, count=10, home_tile_id=0)
        assert len(granted) == 4
        assert cluster.ulmo.stats.allocation_shortfalls == 1
        assert cluster.ulmo.stats.allocations == 4

    def test_exhausted_cluster_grants_nothing(self):
        cluster = make_cluster(tiles=1, molecules=2)
        cluster.ulmo.allocate(asid=1, count=2, home_tile_id=0)
        assert cluster.ulmo.allocate(asid=2, count=1, home_tile_id=0) == []


class TestUlmoSearch:
    """Ulmo walks the region's other tiles in ascending id, probing its
    molecules there, until the line is found (or all on a global miss)."""

    def _cache(self, tiles: int, molecules: int, initial: int):
        from repro.molecular.config import MolecularCacheConfig
        from tests.conftest import make_cache

        cache = make_cache(MolecularCacheConfig(
            molecule_bytes=1024, molecules_per_tile=molecules,
            tiles_per_cluster=tiles, clusters=1, strict=False,
        ))
        cache.assign_application(1, tile_id=0, initial_molecules=initial)
        return cache, cache.regions[1]

    def test_remote_probe_cost_stops_at_found_tile(self):
        cache, region = self._cache(tiles=3, molecules=4, initial=6)
        assert region.molecules_by_tile == {0: 4, 1: 2}
        remote = next(m for m in region.molecules() if m.tile_id == 1)
        region.install(7, remote, 0, write=False)
        result = cache.access_block(7, 1)
        assert result.hit
        assert result.molecules_probed_remote == 2
        assert result.extra["remote_tiles_searched"] == 1
        assert cache.stats.molecules_probed_remote == 2

    def test_remote_probe_cost_global_miss_probes_all_remote(self):
        cache, region = self._cache(tiles=3, molecules=4, initial=10)
        # 4 in tile 0 (home), 4 in tile 1, 2 in tile 2
        result = cache.access_block(12345, 1)
        assert result.miss
        assert result.molecules_probed_remote == 6
        assert result.extra["remote_tiles_searched"] == 2
        assert cache.stats.molecules_probed_remote == 6

    def test_home_only_region_has_no_remote_cost(self):
        cache, region = self._cache(tiles=2, molecules=4, initial=2)
        result = cache.access_block(12345, 1)
        assert result.molecules_probed_remote == 0
        assert "remote_tiles_searched" not in result.extra
        assert cache.stats.molecules_probed_remote == 0
