"""Scalar/bulk/session equivalence property tests.

The molecular access session (``repro.molecular.engine``) and the
set-associative session, and the bulk ``access_many`` loops over them,
promise byte-identical observable state to replaying the same
references through the scalar ``access_block`` reference
implementations: stats dicts, window counters, telemetry event streams,
occupancy reports and resize logs. These tests drive randomized traces —
across placements, line multipliers, resize triggers, shared regions,
mid-trace migrations, resizes and faults, ndarray and list columns, and
mid-stream errors — through every path and hold them to it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches.setassoc import SetAssociativeCache
from repro.common.errors import ConfigError, SimulationError, UnknownASIDError
from repro.common.refs import SLICE_REFS
from repro.common.rng import XorShift64
from repro.common.types import AccessResult
from repro.faults import FaultSpec, apply_fault
from repro.molecular.cache import MolecularCache
from repro.molecular.config import MolecularCacheConfig, ResizePolicy
from repro.molecular.latency import LatencyModel
from repro.sim.driver import run_trace
from repro.telemetry.bus import EventBus
from repro.telemetry.sinks import RingBufferSink
from repro.trace.container import Trace


def build_cache(placement: str, trigger: str) -> MolecularCache:
    config = MolecularCacheConfig(
        molecule_bytes=1024,
        molecules_per_tile=8,
        tiles_per_cluster=2,
        clusters=1,
        strict=False,
    )
    return MolecularCache(
        config,
        resize_policy=ResizePolicy(
            period=200,
            trigger=trigger,
            min_window_refs=16,
            period_floor=50,
        ),
        placement=placement,
        rng=XorShift64(11),
    )


def attach_bus(cache) -> RingBufferSink:
    sink = RingBufferSink(capacity=1_000_000)
    cache.attach_telemetry(
        EventBus([sink], epoch_refs=100, sample_interval=7, remote_search_sample=2)
    )
    return sink


def replay_scalar(cache, stream) -> None:
    for block, asid, write in stream:
        cache.access_block(block, asid, write)


def assert_equivalent(reference, candidate, ref_sink=None, cand_sink=None):
    assert reference.stats == candidate.stats
    assert reference.stats.as_dict() == candidate.stats.as_dict()
    assert reference.occupancy_report() == candidate.occupancy_report()
    assert reference.resizer.log == candidate.resizer.log
    if ref_sink is not None:
        assert ref_sink.events() == cand_sink.events()


references = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=400),
        st.integers(min_value=0, max_value=1),
        st.booleans(),
    ),
    min_size=30,
    max_size=400,
)


class TestMolecularBatchedEquivalence:
    @given(
        stream=references,
        placement=st.sampled_from(["random", "randy", "lru_direct"]),
        trigger=st.sampled_from(["constant", "global_adaptive", "per_app_adaptive"]),
        multiplier=st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=30, deadline=None)
    def test_stream_matches_scalar(self, stream, placement, trigger, multiplier):
        def setup():
            cache = build_cache(placement, trigger)
            cache.assign_application(
                0, goal=0.3, initial_molecules=3, tile_id=0,
                line_multiplier=multiplier,
            )
            cache.assign_application(1, goal=0.3, initial_molecules=3, tile_id=1)
            return cache, attach_bus(cache)

        blocks = [b for b, _a, _w in stream]
        asids = [a for _b, a, _w in stream]
        writes = [w for _b, _a, w in stream]

        scalar, scalar_sink = setup()
        replay_scalar(scalar, stream)

        batched, batched_sink = setup()
        assert batched.access_many(blocks, asids, writes) == len(stream)

        session_cache, session_sink = setup()
        access = session_cache.access_session().access
        for block, asid, write in stream:
            access(block, asid, write)

        assert_equivalent(scalar, batched, scalar_sink, batched_sink)
        assert_equivalent(scalar, session_cache, scalar_sink, session_sink)

    @given(
        stream=references,
        placement=st.sampled_from(["random", "randy"]),
        cut=st.integers(min_value=1, max_value=29),
    )
    @settings(max_examples=15, deadline=None)
    def test_migration_mid_trace(self, stream, placement, cut):
        def setup():
            cache = build_cache(placement, "global_adaptive")
            cache.assign_application(0, goal=0.3, initial_molecules=3, tile_id=0)
            cache.assign_application(1, goal=0.3, initial_molecules=3, tile_id=1)
            return cache, attach_bus(cache)

        scalar, scalar_sink = setup()
        replay_scalar(scalar, stream[:cut])
        scalar.migrate_application(0, 1)
        replay_scalar(scalar, stream[cut:])

        batched, batched_sink = setup()
        head, tail = stream[:cut], stream[cut:]
        batched.access_many(*zip(*head))
        batched.migrate_application(0, 1)
        if tail:
            batched.access_many(
                [b for b, _a, _w in tail],
                [a for _b, a, _w in tail],
                [w for _b, _a, w in tail],
            )

        # The session path must pick the migration up mid-stream via the
        # context epoch, with no explicit invalidation call.
        session_cache, session_sink = setup()
        access = session_cache.access_session().access
        for block, asid, write in stream[:cut]:
            access(block, asid, write)
        session_cache.migrate_application(0, 1)
        for block, asid, write in stream[cut:]:
            access(block, asid, write)

        assert_equivalent(scalar, batched, scalar_sink, batched_sink)
        assert_equivalent(scalar, session_cache, scalar_sink, session_sink)

    @given(stream=references)
    @settings(max_examples=15, deadline=None)
    def test_shared_region_fallback(self, stream):
        def setup():
            cache = build_cache("randy", "global_adaptive")
            cache.create_shared_region(tile_id=0, molecules=4)
            cache.assign_shared_application(0, tile_id=0)
            cache.assign_application(1, goal=0.3, initial_molecules=3, tile_id=0)
            return cache, attach_bus(cache)

        scalar, scalar_sink = setup()
        replay_scalar(scalar, stream)

        batched, batched_sink = setup()
        batched.access_many(
            [b for b, _a, _w in stream],
            [a for _b, a, _w in stream],
            [w for _b, _a, w in stream],
        )
        assert_equivalent(scalar, batched, scalar_sink, batched_sink)

    @given(stream=references)
    @settings(max_examples=10, deadline=None)
    def test_custom_latency_model_takes_scalar_path(self, stream):
        class DoubledLatency(LatencyModel):
            def cycles(self, result: AccessResult) -> int:
                return 2 * LatencyModel.cycles(self, result)

        def setup():
            cache = build_cache("randy", "global_adaptive")
            cache.latency_model = DoubledLatency()
            cache.assign_application(0, goal=0.3, initial_molecules=3)
            cache.assign_application(1, goal=0.3, initial_molecules=3)
            return cache

        scalar = setup()
        replay_scalar(scalar, stream)

        batched = setup()
        batched.access_many(
            [b for b, _a, _w in stream],
            [a for _b, a, _w in stream],
            [w for _b, _a, w in stream],
        )
        assert_equivalent(scalar, batched)


class TestSetAssocBatchedEquivalence:
    @given(
        stream=references,
        policy=st.sampled_from(["lru", "fifo", "random"]),
        associativity=st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=20, deadline=None)
    def test_stream_matches_scalar(self, stream, policy, associativity):
        def setup():
            return SetAssociativeCache(
                1 << 13, associativity, policy=policy, rng=XorShift64(3)
            )

        scalar = setup()
        for block, asid, write in stream:
            scalar.access_block(block, asid, write)

        batched = setup()
        assert batched.access_many(
            [b for b, _a, _w in stream],
            [a for _b, a, _w in stream],
            [w for _b, _a, w in stream],
        ) == len(stream)

        session_cache = setup()
        access = session_cache.access_session().access
        hits = [access(block, asid, write) for block, asid, write in stream]

        assert scalar.stats == batched.stats == session_cache.stats
        assert (
            sorted(scalar.resident_blocks())
            == sorted(batched.resident_blocks())
            == sorted(session_cache.resident_blocks())
        )
        assert hits.count(True) == scalar.stats.total.hits


class TestRunTraceBatched:
    @given(stream=references, warmup=st.integers(min_value=0, max_value=29))
    @settings(max_examples=10, deadline=None)
    def test_run_trace_warmup_split_matches_scalar_loop(self, stream, warmup):
        addresses = [b * 64 for b, _a, _w in stream]
        trace = Trace(
            addresses,
            [a for _b, a, _w in stream],
            [w for _b, _a, w in stream],
        )

        def setup():
            cache = build_cache("randy", "global_adaptive")
            cache.assign_application(0, goal=0.3, initial_molecules=3, tile_id=0)
            cache.assign_application(1, goal=0.3, initial_molecules=3, tile_id=1)
            return cache

        scalar = setup()
        for index, (block, asid, write) in enumerate(stream):
            if index == warmup and warmup:
                scalar.stats.reset()
            scalar.access_block(block, asid, write)

        driven = setup()
        run_trace(driven, trace, warmup_refs=warmup)
        assert_equivalent(scalar, driven)


def two_app_cache(placement: str = "randy", trigger: str = "global_adaptive"):
    cache = build_cache(placement, trigger)
    cache.assign_application(0, goal=0.3, initial_molecules=3, tile_id=0)
    cache.assign_application(1, goal=0.3, initial_molecules=3, tile_id=1)
    return cache


def columns(stream, as_arrays: bool = False):
    blocks = [b for b, _a, _w in stream]
    asids = [a for _b, a, _w in stream]
    writes = [w for _b, _a, w in stream]
    if as_arrays:
        return (
            np.array(blocks, dtype=np.int64),
            np.array(asids, dtype=np.int32),
            np.array(writes, dtype=np.bool_),
        )
    return blocks, asids, writes


def random_stream(seed: int, n: int, blocks: int, write_every: int = 4):
    rng = XorShift64(seed)
    return [
        (rng.randrange(blocks), rng.randrange(2), rng.randrange(write_every) == 0)
        for _ in range(n)
    ]


class TestStructuralInterleaving:
    """Structural events between ``access_many`` segments."""

    def run_both(self, ops):
        reference = two_app_cache()
        candidate = two_app_cache()
        for op in ops:
            if isinstance(op, list):
                replay_scalar(reference, op)
                assert candidate.access_many(*columns(op)) == len(op)
            else:
                op(reference)
                op(candidate)
        assert_equivalent(reference, candidate)

    def segments(self, seed: int, count: int = 4):
        return [random_stream(seed + i, 300, 300) for i in range(count)]

    def test_migration_between_segments(self):
        segments = self.segments(9)
        self.run_both(
            [
                segments[0],
                lambda cache: cache.migrate_application(0, 1),
                segments[1],
                lambda cache: cache.migrate_application(0, 0),
                segments[2],
            ]
        )

    def test_force_resize_between_segments(self):
        segments = self.segments(17)
        self.run_both(
            [segments[0], lambda cache: cache.resizer.force_resize(), segments[1]]
        )

    @pytest.mark.parametrize("kind", ["hard", "transient", "degraded"])
    def test_faults_between_segments(self, kind):
        # Hard faults change membership, transient ones drop one line,
        # degraded ones change latency only.
        segments = self.segments(23)

        def fault(cache):
            region = cache.regions[0]
            if kind == "degraded":
                spec = FaultSpec(kind=kind, at=0, target=0, extra_cycles=4)
            else:
                target = next(
                    (m for m in region.molecules() if m.resident_blocks()), None
                )
                if target is None:
                    return
                spec = FaultSpec(kind=kind, at=0, target=target.molecule_id)
            apply_fault(cache, spec)

        self.run_both([segments[0], fault, segments[1], fault, segments[2]])

    def test_scalar_accesses_between_segments(self):
        # access_block mutates presence maps and counters behind any
        # session; the next access_many must see all of it.
        segments = self.segments(31, count=2)
        extra = [(900 + i, 0, False) for i in range(40)]
        self.run_both(
            [segments[0], lambda cache: replay_scalar(cache, extra), segments[1]]
        )


class TestBulkAccessEdges:
    def test_long_ndarray_stream_crosses_many_resizes(self):
        # Dozens of global-trigger fires inside one access_many call, on
        # ndarray columns longer than one conversion slice.
        stream = random_stream(3, 6000, 120, write_every=8)
        assert len(stream) > SLICE_REFS
        reference = two_app_cache()
        replay_scalar(reference, stream)
        candidate = two_app_cache()
        assert candidate.access_many(*columns(stream, as_arrays=True)) == len(stream)
        assert_equivalent(reference, candidate)
        assert candidate.stats.resize_events >= 20

    def test_scalar_writes_broadcast(self):
        blocks = [b for b, _a, _w in random_stream(5, 500, 200)]
        reference = two_app_cache()
        for block in blocks:
            reference.access_block(block, 0, True)
        candidate = two_app_cache()
        candidate.access_many(blocks, 0, True)
        assert_equivalent(reference, candidate)

    def test_telemetry_stream_matches_on_ndarray_columns(self):
        stream = random_stream(43, 800, 200)
        reference = two_app_cache()
        ref_sink = attach_bus(reference)
        replay_scalar(reference, stream)
        candidate = two_app_cache()
        cand_sink = attach_bus(candidate)
        candidate.access_many(*columns(stream, as_arrays=True))
        assert_equivalent(reference, candidate, ref_sink, cand_sink)

    def test_ndarray_columns_leave_int_keys(self):
        cache = two_app_cache()
        cache.access_many(*columns(random_stream(19, 2000, 400), as_arrays=True))
        for region in cache.regions.values():
            assert region.presence
            assert all(type(block) is int for block in region.presence)

    def test_unknown_asid_matches_scalar_position(self):
        stream = [(i % 60, 0, False) for i in range(200)]
        bad = stream + [(3, 9, False)] + [(4, 0, False)] * 50
        reference = two_app_cache()
        with pytest.raises(UnknownASIDError):
            replay_scalar(reference, bad)
        candidate = two_app_cache()
        with pytest.raises(UnknownASIDError):
            candidate.access_many(*columns(bad))
        assert_equivalent(reference, candidate)

    @pytest.mark.parametrize("fuse", [0, 3, 25])
    def test_mid_stream_error_leaves_identical_state(self, fuse):
        # A placement that blows up on its (fuse+1)-th miss: the error
        # surfaces at the same reference with identical partial state.
        stream = random_stream(47, 400, 150, write_every=3)

        def arm(cache):
            real = cache.placement.choose
            misses = []

            def choose(region, block, lines_per_molecule, rng):
                misses.append(block)
                if len(misses) > fuse:
                    raise SimulationError("placement bomb")
                return real(region, block, lines_per_molecule, rng)

            cache.placement.choose = choose

        reference = two_app_cache(trigger="constant")
        arm(reference)
        with pytest.raises(SimulationError):
            replay_scalar(reference, stream)
        candidate = two_app_cache(trigger="constant")
        arm(candidate)
        with pytest.raises(SimulationError):
            candidate.access_many(*columns(stream))
        assert_equivalent(reference, candidate)

    @pytest.mark.parametrize("cache_kind", ["molecular", "setassoc"])
    def test_bad_columns_raise_config_error(self, cache_kind):
        def build():
            if cache_kind == "setassoc":
                return SetAssociativeCache(1 << 13, 2)
            return two_app_cache()

        cache = build()
        with pytest.raises(ConfigError, match="asids length 2 != 5"):
            cache.access_many([1, 2, 3, 4, 5], [0, 0])
        with pytest.raises(ConfigError, match="writes length"):
            cache.access_many([1, 2, 3], 0, np.zeros(4, dtype=np.bool_))
        with pytest.raises(ConfigError, match="one-dimensional"):
            cache.access_many(np.zeros((2, 3), dtype=np.int64))
        with pytest.raises(ConfigError, match="one-dimensional"):
            cache.access_many([1, 2], np.zeros((2, 1), dtype=np.int32))
        with pytest.raises(ConfigError, match="sequence of block numbers"):
            cache.access_many(5)
        # Shape errors surface before any reference is simulated.
        assert cache.stats.total.accesses == 0

    def test_setassoc_ndarray_and_iterable_columns(self):
        stream = random_stream(29, SLICE_REFS + 500, 3000)

        def build():
            return SetAssociativeCache(1 << 13, 2, policy="lru")

        scalar = build()
        for block, asid, write in stream:
            scalar.access_block(block, asid, write)
        from_arrays = build()
        from_arrays.access_many(*columns(stream, as_arrays=True))
        from_iterables = build()
        blocks, asids, writes = columns(stream)
        from_iterables.run(iter(blocks), iter(asids), iter(writes))
        assert scalar.stats == from_arrays.stats == from_iterables.stats
        assert scalar.resident_blocks() == from_arrays.resident_blocks()


class TestProfiledBulkAccess:
    """``access_many`` with an enabled profiler runs the same session loop."""

    def test_profiled_run_matches_unprofiled(self):
        from repro.prof import HotPathProfiler

        arrays = columns(random_stream(19, 2000, 400), as_arrays=True)
        reference = two_app_cache()
        assert reference.access_many(*arrays) == 2000

        profiled = two_app_cache()
        profiler = HotPathProfiler(sample_every=5)
        profiled.attach_profiler(profiler)
        assert profiled.access_many(*arrays) == 2000

        assert_equivalent(reference, profiled)
        assert profiler.refs == 2000
        assert profiler.samples == 2000 // 5
        for region in profiled.regions.values():
            assert all(type(block) is int for block in region.presence)

    def test_stages_sum_to_wall_on_ndarray_columns(self):
        from repro.prof import PROFILE_STAGES, HotPathProfiler

        cache = two_app_cache()
        profiler = HotPathProfiler(sample_every=4)
        cache.attach_profiler(profiler)
        cache.access_many(*columns(random_stream(19, 2000, 400), as_arrays=True))

        report = profiler.report()
        assert report["refs"] == 2000
        assert report["samples"] > 0
        assert set(report["stages"]) == set(PROFILE_STAGES)
        stage_total = sum(info["time_s"] for info in report["stages"].values())
        attributed = stage_total + report["resize"]["time_s"]
        assert attributed == pytest.approx(report["wall_s"], rel=1e-9)

    def test_sampling_spans_short_streams(self):
        # The countdown lives on the profiler, so a driver issuing many
        # streams shorter than sample_every still gets sampled.
        from repro.prof import HotPathProfiler

        cache = two_app_cache()
        profiler = HotPathProfiler(sample_every=64)
        cache.attach_profiler(profiler)
        stream = random_stream(31, 640, 200)
        for lo in range(0, len(stream), 16):
            cache.access_many(*columns(stream[lo : lo + 16]))
        assert profiler.streams == 40
        assert profiler.samples == 10
