"""Tests for shared-bit molecules and shared regions (Figure 3's shared bit)."""

import pytest

from repro.common.errors import ConfigError
from tests.conftest import make_cache


class TestSharedRegionCreation:
    def test_creates_shared_molecules(self, tiny_config):
        cache = make_cache(tiny_config)
        region = cache.create_shared_region(tile_id=0, molecules=2)
        assert region.molecule_count == 2
        tile = cache.tile_of(0)
        assert tile.shared_count == 2
        assert all(m.shared and m.tile_id == 0 for m in region.molecules())

    def test_duplicate_shared_region_rejected(self, tiny_config):
        cache = make_cache(tiny_config)
        cache.create_shared_region(0, 1)
        with pytest.raises(ConfigError):
            cache.create_shared_region(0, 1)

    def test_insufficient_free_molecules_rejected(self, tiny_config):
        cache = make_cache(tiny_config)
        cache.assign_application(0, tile_id=0, initial_molecules=4)
        with pytest.raises(ConfigError):
            cache.create_shared_region(0, 1)

    def test_failed_creation_releases_partial_grant(self, tiny_config):
        cache = make_cache(tiny_config)
        cache.assign_application(0, tile_id=0, initial_molecules=3)
        free_before = cache.tile_of(0).free_count
        with pytest.raises(ConfigError):
            cache.create_shared_region(0, 2)
        assert cache.tile_of(0).free_count == free_before


class TestSharedApplications:
    def test_shared_apps_share_data(self, tiny_config):
        cache = make_cache(tiny_config)
        cache.create_shared_region(0, 2)
        cache.assign_shared_application(1, 0)
        cache.assign_shared_application(2, 0)
        cache.access_block(5, 1)
        assert cache.access_block(5, 2).hit  # same physical region

    def test_shared_app_requires_shared_region(self, tiny_config):
        cache = make_cache(tiny_config)
        with pytest.raises(ConfigError):
            cache.assign_shared_application(1, 0)

    def test_shared_app_cannot_have_two_regions(self, tiny_config):
        cache = make_cache(tiny_config)
        cache.create_shared_region(0, 1)
        cache.assign_application(1, tile_id=1)
        with pytest.raises(ConfigError):
            cache.assign_shared_application(1, 0)


class TestSharedBitProbing:
    def test_exclusive_app_hits_shared_data_on_its_tile(self, tiny_config):
        cache = make_cache(tiny_config)
        shared = cache.create_shared_region(0, 2)
        cache.assign_shared_application(1, 0)
        cache.assign_application(2, tile_id=0, initial_molecules=1)
        cache.access_block(9, 1)  # fills the shared region
        result = cache.access_block(9, 2)  # exclusive app, same tile
        assert result.hit
        assert shared.lookup(9) is not None

    def test_shared_molecules_counted_in_probes(self, tiny_config):
        cache = make_cache(tiny_config)
        cache.create_shared_region(0, 2)
        cache.assign_application(2, tile_id=0, initial_molecules=1)
        result = cache.access_block(3, 2)
        # 1 owned + 2 shared molecules probed on the home tile
        assert result.molecules_probed_local == 3

    def test_shared_region_not_probed_from_other_tile(self, tiny_config):
        cache = make_cache(tiny_config)
        cache.create_shared_region(0, 2)
        cache.assign_shared_application(1, 0)
        cache.assign_application(2, tile_id=1, initial_molecules=1)
        cache.access_block(9, 1)
        assert cache.access_block(9, 2).miss
