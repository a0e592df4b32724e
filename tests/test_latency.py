"""Tests for the access-latency accounting.

A latency model is its stage costs plus :meth:`LatencyModel.constants`;
the cycle counts below are what a cache charges to ``latency_cycles``.
"""

import pytest

from repro.common.errors import ConfigError
from repro.molecular.config import MolecularCacheConfig
from repro.molecular.latency import LatencyModel, LatencyParameters
from tests.conftest import make_cache


def charged(cache, block: int, asid: int = 0):
    """The access's result and the cycles it added to ``latency_cycles``."""
    before = cache.stats.latency_cycles
    result = cache.access_block(block, asid)
    return result, cache.stats.latency_cycles - before


def spanning_cache(tiles: int = 3):
    """asid 0's lines on home tile 0 and two remote tiles."""
    cache = make_cache(MolecularCacheConfig(
        molecule_bytes=1024, molecules_per_tile=4, tiles_per_cluster=tiles,
        clusters=1, strict=False,
    ))
    cache.assign_application(0, tile_id=0, initial_molecules=4 * tiles)
    return cache


class TestModel:
    def test_local_hit(self, tiny_config):
        model = LatencyModel(LatencyParameters(
            asid_compare_cycles=1, molecule_access_cycles=2,
            ulmo_dispatch_cycles=2, tile_hop_cycles=4, memory_cycles=200,
        ))
        assert model.constants() == (3, 200, 2, 6)
        cache = make_cache(tiny_config)
        cache.latency_model = model
        cache.assign_application(0, initial_molecules=2)
        cache.access_block(5, 0)
        result, cycles = charged(cache, 5)
        assert result.hit and cycles == 3

    def test_remote_hit_serialises_tiles(self):
        cache = spanning_cache()
        region = cache.regions[0]
        far = next(m for m in region.molecules() if m.tile_id == 2)
        region.install(7, far, 0, write=False)
        result, cycles = charged(cache, 7)
        assert result.hit and result.extra["remote_tiles_searched"] == 2
        p = cache.latency_model.params
        expected = (
            p.asid_compare_cycles + p.molecule_access_cycles
            + p.ulmo_dispatch_cycles
            + 2 * (p.tile_hop_cycles + p.molecule_access_cycles)
        )
        assert cycles == expected

    def test_miss_adds_memory(self, tiny_config):
        cache = make_cache(tiny_config)
        cache.assign_application(0, initial_molecules=2)
        miss, miss_cycles = charged(cache, 5)
        hit, hit_cycles = charged(cache, 5)
        assert miss.miss and hit.hit
        local_hit, memory, _dispatch, _per_tile = cache.latency_model.constants()
        assert hit_cycles == local_hit
        assert miss_cycles == local_hit + memory

    def test_rejects_negative_parameters(self):
        with pytest.raises(ConfigError):
            LatencyParameters(memory_cycles=-1)


class TestCacheIntegration:
    def test_latency_accumulates(self, tiny_config):
        cache = make_cache(tiny_config)
        cache.assign_application(0, initial_molecules=2)
        cache.access_block(5, 0)   # miss
        cache.access_block(5, 0)   # local hit
        local_hit, memory, _dispatch, _per_tile = cache.latency_model.constants()
        expected = (local_hit + memory) + local_hit
        assert cache.stats.latency_cycles == expected
        assert cache.stats.mean_latency_cycles() == pytest.approx(expected / 2)

    def test_remote_tiles_recorded_in_result(self, tiny_config):
        cache = make_cache(tiny_config)
        cache.assign_application(0, tile_id=0, initial_molecules=6)  # spans 2 tiles
        result = cache.access_block(12345, 0)  # global miss searches tile 1
        assert result.extra.get("remote_tiles_searched") == 1

    def test_local_hit_has_no_remote_tiles(self, tiny_config):
        cache = make_cache(tiny_config)
        cache.assign_application(0, tile_id=0, initial_molecules=2)
        cache.access_block(5, 0)
        result = cache.access_block(5, 0)
        assert "remote_tiles_searched" not in result.extra

    def test_remote_hit_latency_exceeds_local(self, tiny_config):
        cache = make_cache(tiny_config)
        cache.assign_application(0, tile_id=0, initial_molecules=6)
        region = cache.regions[0]
        remote = next(m for m in region.molecules() if m.tile_id == 1)
        region.install(7, remote, 0, write=False)
        baseline = cache.stats.latency_cycles
        result = cache.access_block(7, 0)
        assert result.hit
        spent = cache.stats.latency_cycles - baseline
        assert spent > cache.latency_model.constants()[0]
