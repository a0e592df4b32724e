"""Property tests: bulk access over ndarray reference columns follows the spec.

``MolecularCache.access_many`` takes its references as columns (lists or
1-D ndarrays of blocks, ASIDs and write flags) and streams them through
one access session in bounded slices. These tests give it ndarray
columns, one call per run of accesses between predicted resize rounds,
and hold every call to the stdlib spec (``repro.audit.spec``): counters,
draws, trigger countdowns, and every line of the cache after each call.
They sweep placements, resize triggers, line multipliers and shared
regions; ``test_prop_spec.py`` adds structural ops, faults and the other
entry points.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.oracle import AppSpec, Lockstep, Scenario
from repro.common.rng import XorShift64

TRIGGERS = ["constant", "global_adaptive", "per_app_adaptive"]
PLACEMENTS = ["random", "randy", "lru_direct"]


def scenario(
    placement: str = "randy",
    trigger: str = "global_adaptive",
    multiplier: int = 1,
    shared: bool = False,
) -> Scenario:
    apps = [
        AppSpec(asid=0, goal=0.3, tile_id=0, line_multiplier=multiplier,
                initial_molecules=3),
        AppSpec(asid=1, goal=0.3, tile_id=1, initial_molecules=3),
    ]
    if shared:
        apps.append(AppSpec(asid=7, tile_id=0, shared=True))
    return Scenario(
        apps=tuple(apps),
        shared_tiles=((0, 2),) if shared else (),
        molecule_bytes=1024,
        molecules_per_tile=8,
        tiles_per_cluster=2,
        placement=placement,
        trigger=trigger,
        period=200,
        period_floor=50,
        min_window_refs=16,
        telemetry=False,
    )


def ndarray_columns(blocks, asids, writes):
    return (
        np.array(blocks, dtype=np.int64),
        np.array(asids, dtype=np.int32),
        np.array(writes, dtype=np.bool_),
    )


def replay_columns(scenario: Scenario, stream) -> Lockstep:
    lockstep = Lockstep(scenario, "access_many", columns=ndarray_columns)
    lockstep.run([("access", asid, block, write) for block, asid, write in stream])
    # ndarray columns must not leak numpy scalars into presence maps.
    for region in lockstep.cache.regions.values():
        assert all(type(block) is int for block in region.presence)
    return lockstep


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
        replay_columns(scenario(placement, trigger), stream)

    @pytest.mark.parametrize("multiplier", [2, 4])
    @settings(max_examples=10, deadline=None)
    @given(stream=stream_strategy)
    def test_line_multiplier_units(self, multiplier, stream):
        replay_columns(scenario(multiplier=multiplier), stream)

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
        replay_columns(scenario(shared=True), stream)


class TestFallbacksAndRouting:
    def test_routed_access_many_equivalence(self):
        # A miss-heavy prefix followed by a hot, write-mixed stream.
        rng = XorShift64(41)
        stream = [(rng.randrange(5000), rng.randrange(2), False) for _ in range(1500)]
        stream += [(rng.randrange(90), rng.randrange(2), rng.randrange(3) == 0) for _ in range(3000)]
        lockstep = replay_columns(scenario(), stream)
        assert lockstep.cache.stats.resize_events > 10
