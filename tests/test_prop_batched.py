"""Entry-point property tests: every way into the access rule agrees.

The molecular cache's access rule has one body, the access engine; the
set-associative cache's has one, its session. These tests drive
randomized traces through the entry points (``access_block``,
``access_many`` over lists and ndarrays, a held session, ``run_trace``)
across placements, line multipliers, resize triggers, shared regions,
mid-trace migrations, resizes and faults, and mid-stream errors. The
molecular runs are held to the stdlib spec (``repro.audit.spec``) in
lockstep, and the entry points must leave identical stats, occupancy
reports, resize logs and telemetry streams; the set-associative runs are
held to ``test_setassoc_model.py``'s list model.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.oracle import (
    ENTRIES,
    AppSpec,
    Lockstep,
    Scenario,
    end_state as arm_end_state,
    diff_results,
)
from repro.caches.setassoc import SetAssociativeCache
from repro.common.errors import ConfigError, SimulationError, UnknownASIDError
from repro.common.refs import SLICE_REFS
from repro.common.rng import XorShift64
from repro.sim.driver import run_trace
from repro.trace.container import Trace
from tests.test_setassoc_model import ListModel


def scenario(placement: str = "randy", trigger: str = "global_adaptive",
             multiplier: int = 1, telemetry: bool = False, shared: bool = False,
             **overrides) -> Scenario:
    apps = (
        AppSpec(asid=0, goal=0.3, tile_id=0, line_multiplier=multiplier,
                initial_molecules=3),
        AppSpec(asid=1, goal=0.3, tile_id=1, initial_molecules=3),
    )
    if shared:
        apps = (AppSpec(asid=0, tile_id=0, shared=True),
                AppSpec(asid=1, goal=0.3, tile_id=0, initial_molecules=3))
    params = dict(
        apps=apps,
        shared_tiles=((0, 4),) if shared else (),
        molecule_bytes=1024,
        molecules_per_tile=8,
        tiles_per_cluster=2,
        placement=placement,
        trigger=trigger,
        period=200,
        period_floor=50,
        min_window_refs=16,
        telemetry=telemetry,
    )
    params.update(overrides)
    return Scenario(**params)


def as_ops(stream) -> list:
    return [("access", asid, block, write) for block, asid, write in stream]


def lockstep(scenario: Scenario, ops, entry: str = "access_block", **kwargs) -> Lockstep:
    """Run ``ops`` through one entry point, checked against the spec."""
    checked = Lockstep(scenario, entry, **kwargs)
    checked.run(ops)
    return checked


def end_state(cache, sink=None):
    return arm_end_state("", cache, sink)


def assert_same_end(reference: Lockstep, cache, sink=None) -> None:
    """``cache`` ended where the spec-checked ``reference`` did."""
    assert diff_results(end_state(reference.cache, reference.sink),
                        end_state(cache, sink)) == []


def assert_entries_agree(scenario: Scenario, ops) -> None:
    runs = [lockstep(scenario, ops, entry) for entry in ENTRIES]
    for other in runs[1:]:
        assert_same_end(runs[0], other.cache, other.sink)


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
        assert_entries_agree(
            scenario(placement, trigger, multiplier, telemetry=True), as_ops(stream)
        )

    @given(
        stream=references,
        placement=st.sampled_from(["random", "randy"]),
        cut=st.integers(min_value=1, max_value=29),
    )
    @settings(max_examples=15, deadline=None)
    def test_migration_mid_trace(self, stream, placement, cut):
        # Each entry picks the migration up mid-stream via the context
        # epoch, with no explicit invalidation call.
        ops = as_ops(stream)
        ops.insert(cut, ("migrate", 0, 1))
        assert_entries_agree(scenario(placement, telemetry=True), ops)

    @given(stream=references)
    @settings(max_examples=15, deadline=None)
    def test_shared_region_fallback(self, stream):
        assert_entries_agree(scenario(shared=True, telemetry=True), as_ops(stream))


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

        rng = XorShift64(3)
        script = [rng.next_u64() for _ in range(len(stream))]
        model = ListModel(setup().num_sets, associativity, policy, script)
        for block, asid, write in stream:
            model.access(block, asid, write)

        single = setup()
        results = [single.access_block(block, asid, write) for block, asid, write in stream]

        batched = setup()
        assert batched.access_many(*columns(stream)) == len(stream)

        session_cache = setup()
        access = session_cache.access_session().access
        hits = [access(block, asid, write) for block, asid, write in stream]

        for cache in (single, batched, session_cache):
            counts = {
                asid: [c.accesses, c.hits, c.evictions, c.writebacks]
                for asid, c in cache.stats.lifetime.items()
            }
            assert counts == model.counts
        assert single.stats == batched.stats == session_cache.stats
        assert (
            sorted(single.resident_blocks())
            == sorted(batched.resident_blocks())
            == sorted(session_cache.resident_blocks())
        )
        assert hits == [result.hit for result in results]


class TestRunTraceBatched:
    @given(stream=references, warmup=st.integers(min_value=0, max_value=29))
    @settings(max_examples=10, deadline=None)
    def test_run_trace_warmup_split_matches_scalar_loop(self, stream, warmup):
        # run_trace streams the warm-up prefix, resets, then streams the
        # rest; a per-reference loop over the session resets in between.
        addresses = [b * 64 for b, _a, _w in stream]
        trace = Trace(
            addresses,
            [a for _b, a, _w in stream],
            [w for _b, _a, w in stream],
        )

        looped, _ = scenario().build()
        access = looped.access_session().access
        for index, (block, asid, write) in enumerate(stream):
            if index == warmup and warmup:
                looped.stats.reset()
            access(block, asid, write)

        driven, _ = scenario().build()
        run_trace(driven, trace, warmup_refs=warmup)
        assert diff_results(end_state(looped), end_state(driven)) == []


def columns(stream, as_arrays: bool = False):
    blocks = [b for b, _a, _w in stream]
    asids = [a for _b, a, _w in stream]
    writes = [w for _b, _a, w in stream]
    if as_arrays:
        return ndarray_columns(blocks, asids, writes)
    return blocks, asids, writes


def ndarray_columns(blocks, asids, writes):
    return (
        np.array(blocks, dtype=np.int64),
        np.array(asids, dtype=np.int32),
        np.array(writes, dtype=np.bool_),
    )


def random_stream(seed: int, n: int, blocks: int, write_every: int = 4):
    rng = XorShift64(seed)
    return [
        (rng.randrange(blocks), rng.randrange(2), rng.randrange(write_every) == 0)
        for _ in range(n)
    ]


class TestStructuralInterleaving:
    """Structural events between ``access_many`` calls, against the spec."""

    def run_spec(self, steps, entries=("access_many",)):
        """``steps``: reference segments and functions of the cache that
        return one structural op (or None to skip)."""
        checked = Lockstep(scenario(), entries[0])
        for index, step in enumerate(steps):
            if isinstance(step, list):
                checked.flush()
                checked.entry = entries[index // 2 % len(entries)]
                for block, asid, write in step:
                    checked.access(asid, block, write)
            else:
                op = step(checked.cache)
                if op is not None:
                    checked.structural(op)
        checked.flush()
        checked.check_state("end of stream")

    def segments(self, seed: int, count: int = 4):
        return [random_stream(seed + i, 300, 300) for i in range(count)]

    def test_migration_between_segments(self):
        segments = self.segments(9)
        self.run_spec(
            [
                segments[0],
                lambda cache: ("migrate", 0, 1),
                segments[1],
                lambda cache: ("migrate", 0, 0),
                segments[2],
            ]
        )

    def test_force_resize_between_segments(self):
        segments = self.segments(17)
        self.run_spec([segments[0], lambda cache: ("force_resize",), segments[1]])

    @pytest.mark.parametrize("kind", ["hard", "transient", "degraded"])
    def test_faults_between_segments(self, kind):
        # Hard faults change membership, transient ones drop one line,
        # degraded ones change latency only.
        segments = self.segments(23)

        def fault(cache):
            if kind == "degraded":
                return ("fault", kind, 0, 4)
            target = next(
                (m for m in cache.regions[0].molecules() if m.resident_blocks()),
                None,
            )
            return None if target is None else ("fault", kind, target.molecule_id)

        self.run_spec([segments[0], fault, segments[1], fault, segments[2]])

    def test_scalar_accesses_between_segments(self):
        # access_block mutates lines and counters behind any session; the
        # next access_many must see all of it.
        segments = self.segments(31, count=2)
        extra = [(900 + i, 0, False) for i in range(40)]
        self.run_spec(
            [segments[0], lambda cache: None, extra, lambda cache: None, segments[1]],
            entries=("access_many", "access_block"),
        )


class TestBulkAccessEdges:
    def test_long_ndarray_stream_crosses_many_resizes(self):
        # Dozens of global-trigger fires inside one access_many call, on
        # ndarray columns longer than one conversion slice.
        stream = random_stream(3, 6000, 120, write_every=8)
        assert len(stream) > SLICE_REFS
        reference = lockstep(scenario(), as_ops(stream))
        candidate, _ = scenario().build()
        assert candidate.access_many(*columns(stream, as_arrays=True)) == len(stream)
        assert_same_end(reference, candidate)
        assert candidate.stats.resize_events >= 20

    def test_scalar_writes_broadcast(self):
        blocks = [b for b, _a, _w in random_stream(5, 500, 200)]
        reference = lockstep(scenario(), [("access", 0, b, True) for b in blocks])
        candidate, _ = scenario().build()
        candidate.access_many(blocks, 0, True)
        assert_same_end(reference, candidate)

    def test_telemetry_stream_matches_on_ndarray_columns(self):
        stream = random_stream(43, 800, 200)
        reference = lockstep(scenario(telemetry=True), as_ops(stream))
        candidate, sink = scenario(telemetry=True).build()
        candidate.access_many(*columns(stream, as_arrays=True))
        assert_same_end(reference, candidate, sink)

    def test_ndarray_columns_leave_int_keys(self):
        cache, _ = scenario().build()
        cache.access_many(*columns(random_stream(19, 2000, 400), as_arrays=True))
        for region in cache.regions.values():
            assert region.presence
            assert all(type(block) is int for block in region.presence)

    def test_unknown_asid_matches_scalar_position(self):
        # The refused reference leaves the spec's state before it; the
        # ndarray call refuses it at the same position.
        stream = [(i % 60, 0, False) for i in range(200)]
        bad = stream + [(3, 9, False)] + [(4, 0, False)] * 50
        for entry in ENTRIES:
            with pytest.raises(UnknownASIDError):
                lockstep(scenario(), as_ops(bad), entry, columns=ndarray_columns)

    @pytest.mark.parametrize("fuse", [0, 3, 25])
    def test_mid_stream_error_leaves_identical_state(self, fuse):
        # A placement that blows up on its (fuse+1)-th miss: the error
        # surfaces with the spec's state before that reference.
        stream = random_stream(47, 400, 150, write_every=3)
        for entry in ENTRIES:
            checked = Lockstep(scenario(trigger="constant"), entry)
            real = checked.cache.placement.choose
            misses = []

            def choose(region, block, lines_per_molecule, rng):
                misses.append(block)
                if len(misses) > fuse:
                    raise SimulationError("placement bomb")
                return real(region, block, lines_per_molecule, rng)

            checked.cache.placement.choose = choose
            with pytest.raises(SimulationError, match="placement bomb"):
                checked.run(as_ops(stream))

    @pytest.mark.parametrize("cache_kind", ["molecular", "setassoc"])
    def test_bad_columns_raise_config_error(self, cache_kind):
        def build():
            if cache_kind == "setassoc":
                return SetAssociativeCache(1 << 13, 2)
            return scenario().build()[0]

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

        single = build()
        for block, asid, write in stream:
            single.access_block(block, asid, write)
        from_arrays = build()
        from_arrays.access_many(*columns(stream, as_arrays=True))
        from_iterables = build()
        blocks, asids, writes = columns(stream)
        from_iterables.run(iter(blocks), iter(asids), iter(writes))
        assert single.stats == from_arrays.stats == from_iterables.stats
        assert single.resident_blocks() == from_arrays.resident_blocks()


class TestProfiledBulkAccess:
    """``access_many`` with an enabled profiler runs the same session loop."""

    def test_profiled_run_matches_unprofiled(self):
        from repro.prof import HotPathProfiler

        arrays = columns(random_stream(19, 2000, 400), as_arrays=True)
        reference, _ = scenario().build()
        assert reference.access_many(*arrays) == 2000

        profiled, _ = scenario().build()
        profiler = HotPathProfiler(sample_every=5)
        profiled.attach_profiler(profiler)
        assert profiled.access_many(*arrays) == 2000

        assert diff_results(end_state(reference), end_state(profiled)) == []
        assert profiler.refs == 2000
        assert profiler.samples == 2000 // 5
        for region in profiled.regions.values():
            assert all(type(block) is int for block in region.presence)

    def test_stages_sum_to_wall_on_ndarray_columns(self):
        from repro.prof import PROFILE_STAGES, HotPathProfiler

        cache, _ = scenario().build()
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

        cache, _ = scenario().build()
        profiler = HotPathProfiler(sample_every=64)
        cache.attach_profiler(profiler)
        stream = random_stream(31, 640, 200)
        for lo in range(0, len(stream), 16):
            cache.access_many(*columns(stream[lo : lo + 16]))
        assert profiler.streams == 40
        assert profiler.samples == 10
