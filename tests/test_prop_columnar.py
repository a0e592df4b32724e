"""Property tests: bulk access over reference columns matches the scalar path.

``MolecularCache.access_many`` takes its references as columns (lists or
1-D ndarrays of blocks, ASIDs and write flags) and streams them through
one access session in bounded slices. For any reference stream the stats
dicts, occupancy reports and resize logs must be identical to replaying
the same stream through the scalar ``access_block`` reference. These
tests feed ndarray columns and sweep placements, resize triggers, line
multipliers and shared regions; structural interleaving, faults and
error positions live in ``test_prop_batched.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import XorShift64
from repro.molecular.cache import MolecularCache
from repro.molecular.config import MolecularCacheConfig, ResizePolicy
from repro.molecular.engine import AccessEngine

TRIGGERS = ["constant", "global_adaptive", "per_app_adaptive"]
PLACEMENTS = ["random", "randy", "lru_direct"]


def build_cache(
    placement: str = "randy",
    trigger: str = "global_adaptive",
    multiplier: int = 1,
    shared: bool = False,
) -> MolecularCache:
    config = MolecularCacheConfig(
        molecule_bytes=1024,
        molecules_per_tile=8,
        tiles_per_cluster=2,
        clusters=1,
        strict=False,
    )
    cache = MolecularCache(
        config,
        resize_policy=ResizePolicy(
            period=200, trigger=trigger, min_window_refs=16, period_floor=50
        ),
        placement=placement,
        rng=XorShift64(11),
    )
    cache.assign_application(
        0, goal=0.3, initial_molecules=3, tile_id=0, line_multiplier=multiplier
    )
    cache.assign_application(1, goal=0.3, initial_molecules=3, tile_id=1)
    if shared:
        cache.create_shared_region(tile_id=0, molecules=2)
        cache.assign_shared_application(7, tile_id=0)
    return cache


def assert_equivalent(reference, candidate):
    assert reference.stats == candidate.stats
    assert reference.stats.as_dict() == candidate.stats.as_dict()
    assert reference.occupancy_report() == candidate.occupancy_report()
    assert reference.resizer.log == candidate.resizer.log


def replay_scalar(cache, stream):
    for block, asid, write in stream:
        cache.access_block(block, asid, write)


def columns(stream):
    blocks = np.array([b for b, _a, _w in stream], dtype=np.int64)
    asids = np.array([a for _b, a, _w in stream], dtype=np.int32)
    writes = np.array([w for _b, _a, w in stream], dtype=np.bool_)
    return blocks, asids, writes


def replay_columns(cache, stream):
    assert cache.access_many(*columns(stream)) == len(stream)
    # ndarray columns must not leak numpy scalars into presence maps.
    for region in cache.regions.values():
        assert all(type(block) is int for block in region.presence)


stream_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=400),
        st.integers(min_value=0, max_value=1),
        st.booleans(),
    ),
    min_size=30,
    max_size=400,
)


class TestKernelEquivalence:
    @pytest.mark.parametrize("trigger", TRIGGERS)
    @pytest.mark.parametrize("placement", PLACEMENTS)
    @settings(max_examples=15, deadline=None)
    @given(stream=stream_strategy)
    def test_matches_scalar(self, placement, trigger, stream):
        reference = build_cache(placement, trigger)
        replay_scalar(reference, stream)
        candidate = build_cache(placement, trigger)
        replay_columns(candidate, stream)
        assert_equivalent(reference, candidate)

    @pytest.mark.parametrize("multiplier", [2, 4])
    @settings(max_examples=10, deadline=None)
    @given(stream=stream_strategy)
    def test_line_multiplier_units(self, multiplier, stream):
        reference = build_cache(multiplier=multiplier)
        replay_scalar(reference, stream)
        candidate = build_cache(multiplier=multiplier)
        replay_columns(candidate, stream)
        assert_equivalent(reference, candidate)

    @settings(max_examples=10, deadline=None)
    @given(
        stream=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=400),
                st.sampled_from([0, 1, 7]),
                st.booleans(),
            ),
            min_size=30,
            max_size=400,
        )
    )
    def test_shared_region_hits(self, stream):
        reference = build_cache(shared=True)
        replay_scalar(reference, stream)
        candidate = build_cache(shared=True)
        replay_columns(candidate, stream)
        assert_equivalent(reference, candidate)


class TestFallbacksAndRouting:
    def test_routed_access_many_equivalence(self):
        # A miss-heavy prefix followed by a hot, write-mixed stream, given
        # as plain lists: both phases must match scalar.
        rng = XorShift64(41)
        stream = [(rng.randrange(5000), rng.randrange(2), False) for _ in range(1500)]
        stream += [(rng.randrange(90), rng.randrange(2), rng.randrange(3) == 0) for _ in range(3000)]
        reference = build_cache()
        replay_scalar(reference, stream)
        candidate = build_cache()
        candidate.access_many(
            [b for b, _a, _w in stream],
            [a for _b, a, _w in stream],
            [w for _b, _a, w in stream],
        )
        assert_equivalent(reference, candidate)


class TestProfilerContract:
    def test_disabled_profiler_restores_columnar_routing(self):
        # A disabled profiler leaves access_many on the plain session:
        # nothing is sampled and stats match an unprofiled run.
        from repro.prof import HotPathProfiler

        rng = XorShift64(19)
        stream = [
            (rng.randrange(400), (i // 250) % 2, rng.randrange(4) == 0)
            for i in range(500)
        ]
        reference = build_cache()
        replay_columns(reference, stream)

        cache = build_cache()
        profiler = HotPathProfiler(sample_every=5)
        profiler.enabled = False
        cache.attach_profiler(profiler)
        assert type(cache.access_session()) is AccessEngine
        replay_columns(cache, stream)
        assert profiler.refs == 0
        assert profiler.samples == 0
        assert_equivalent(reference, cache)
