"""Hot-path profiler: equivalence, outcome classes, attribution, report.

The profiled access paths promise the engine's own equivalence contract:
byte-identical stats, resize logs, occupancy and telemetry streams to an
unprofiled run of the same references. Every sampled access must land in
the outcome class the scalar ``AccessResult`` of the same reference
names. On top of that the report must attribute the measured wall
clock: outcome times sum to the wall by construction, resize fires are
timed exactly, and per-region shares cover every sampled access.
"""

import pytest

from repro.common.errors import ConfigError
from repro.common.rng import XorShift64
from repro.molecular.cache import MolecularCache
from repro.molecular.config import MolecularCacheConfig, ResizePolicy
from repro.prof import PROFILE_STAGES, HotPathProfiler
from repro.telemetry.bus import EventBus
from repro.telemetry.sinks import RingBufferSink


def build_cache(placement: str = "randy") -> MolecularCache:
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
            period=200,
            trigger="global_adaptive",
            min_window_refs=16,
            period_floor=50,
        ),
        placement=placement,
        rng=XorShift64(11),
    )
    cache.assign_application(0, goal=0.3, initial_molecules=3, tile_id=0)
    cache.assign_application(1, goal=0.3, initial_molecules=3, tile_id=1)
    return cache


def make_stream(n: int = 600):
    rng = XorShift64(7)
    return [
        (rng.randrange(400), rng.randrange(2), rng.randrange(4) == 0)
        for _ in range(n)
    ]


def attach_bus(cache) -> RingBufferSink:
    sink = RingBufferSink(capacity=1_000_000)
    cache.attach_telemetry(
        EventBus([sink], epoch_refs=100, sample_interval=7, remote_search_sample=2)
    )
    return sink


def assert_equivalent(reference, candidate, ref_sink=None, cand_sink=None):
    assert reference.stats == candidate.stats
    assert reference.stats.as_dict() == candidate.stats.as_dict()
    assert reference.occupancy_report() == candidate.occupancy_report()
    assert reference.resizer.log == candidate.resizer.log
    if ref_sink is not None:
        assert ref_sink.events() == cand_sink.events()


class TestProfiledEquivalence:
    @pytest.mark.parametrize("sample_every", [1, 7, 512])
    def test_profiled_stream_matches_plain(self, sample_every):
        stream = make_stream()
        blocks = [b for b, _a, _w in stream]
        asids = [a for _b, a, _w in stream]
        writes = [w for _b, _a, w in stream]

        plain = build_cache()
        plain_sink = attach_bus(plain)
        plain.access_many(blocks, asids, writes)

        profiled = build_cache()
        profiled_sink = attach_bus(profiled)
        profiler = HotPathProfiler(sample_every=sample_every)
        profiled.attach_profiler(profiler)
        assert profiled.access_many(blocks, asids, writes) == len(stream)

        assert_equivalent(plain, profiled, plain_sink, profiled_sink)
        assert profiler.refs == len(stream)
        # One reference in every sample_every is sampled, on the same
        # countdown the per-access session uses.
        assert profiler.samples == len(stream) // sample_every
        assert profiler.streams == 1
        assert profiler.wall_s > 0

    def test_profiled_session_matches_plain(self):
        stream = make_stream()
        plain = build_cache()
        plain_sink = attach_bus(plain)
        access = plain.access_session().access
        for block, asid, write in stream:
            access(block, asid, write)

        profiled = build_cache()
        profiled_sink = attach_bus(profiled)
        profiler = HotPathProfiler(sample_every=5)
        profiled.attach_profiler(profiler)
        access = profiled.access_session().access
        for block, asid, write in stream:
            access(block, asid, write)

        assert_equivalent(plain, profiled, plain_sink, profiled_sink)
        assert profiler.refs == len(stream)
        assert profiler.samples == len(stream) // 5

    def test_disabled_profiler_is_ignored(self):
        stream = make_stream(200)
        cache = build_cache()
        profiler = HotPathProfiler()
        profiler.enabled = False
        cache.attach_profiler(profiler)
        cache.access_many(*zip(*stream))
        assert profiler.refs == 0
        assert profiler.samples == 0

    def test_detach_profiler(self):
        cache = build_cache()
        profiler = HotPathProfiler()
        cache.attach_profiler(profiler)
        assert cache.profiler is profiler
        cache.detach_profiler()
        assert cache.profiler is None

    def test_scalar_asid_and_write_args(self):
        # The profiled stream path must handle scalar asids/writes the
        # way the plain engine does.
        blocks = [b for b, _a, _w in make_stream(300)]
        plain = build_cache()
        plain.access_many(blocks, 0, False)
        profiled = build_cache()
        profiled.attach_profiler(HotPathProfiler(sample_every=3))
        profiled.access_many(blocks, 0, False)
        assert_equivalent(plain, profiled)


class TestReport:
    def test_stages_sum_to_wall(self):
        cache = build_cache()
        profiler = HotPathProfiler(sample_every=4)
        cache.attach_profiler(profiler)
        stream = make_stream(2000)
        cache.access_many(*zip(*stream))

        report = profiler.report()
        assert report["refs"] == len(stream)
        assert report["samples"] > 0
        stage_total = sum(
            info["time_s"] for info in report["stages"].values()
        )
        attributed = stage_total + report["resize"]["time_s"]
        assert attributed == pytest.approx(report["wall_s"], rel=1e-9)
        assert set(report["stages"]) == set(PROFILE_STAGES)
        shares = [info["share"] for info in report["stages"].values()]
        assert sum(shares) == pytest.approx(1.0)
        assert all(share >= 0 for share in shares)

    def test_resize_fires_timed_exactly(self):
        cache = build_cache()
        profiler = HotPathProfiler(sample_every=64)
        cache.attach_profiler(profiler)
        cache.access_many(*zip(*make_stream(2000)))
        # The resizer logs one entry per *decision*; fires are rounds.
        assert profiler.resize_fires > 0
        assert len(cache.resizer.log) > 0
        assert profiler.resize_s > 0

    def test_region_attribution_covers_samples(self):
        cache = build_cache()
        profiler = HotPathProfiler(sample_every=3)
        cache.attach_profiler(profiler)
        cache.access_many(*zip(*make_stream(900)))
        report = profiler.report()
        assert set(report["regions"]) == {0, 1}
        assert (
            sum(info["samples"] for info in report["regions"].values())
            == profiler.samples
        )

    def test_wall_override_for_sessions(self):
        profiler = HotPathProfiler()
        profiler.add_sample(0, "local_hit", 0.1)
        profiler.add_sample(0, "dirty_miss", 0.3)
        profiler.refs = 100
        report = profiler.report(wall_s=2.0)
        assert report["wall_s"] == 2.0
        assert report["refs_per_sec"] == pytest.approx(50.0)
        stage_total = sum(info["time_s"] for info in report["stages"].values())
        assert stage_total == pytest.approx(2.0)

    def test_format_report_renders(self):
        cache = build_cache()
        profiler = HotPathProfiler(sample_every=8)
        cache.attach_profiler(profiler)
        cache.access_many(*zip(*make_stream(800)))
        text = profiler.format_report()
        assert "hot-path profile" in text
        for outcome in ("local-hit", "remote-hit", "clean-miss", "dirty-miss"):
            assert outcome in text
        assert "us/access" in text
        assert "resize" in text
        assert "per-region sampled share:" in text

    def test_reset(self):
        profiler = HotPathProfiler()
        profiler.add_sample(0, "clean_miss", 1.0)
        profiler.refs = 10
        profiler.countdown = 1
        profiler.add_stream(0.5)
        profiler.add_resize(0.1)
        profiler.reset()
        assert profiler.samples == 0
        assert profiler.countdown == profiler.sample_every
        assert profiler.refs == 0
        assert profiler.wall_s == 0.0
        assert profiler.resize_fires == 0

    def test_bad_sample_every(self):
        with pytest.raises(ConfigError):
            HotPathProfiler(sample_every=0)

    def test_empty_report(self):
        report = HotPathProfiler().report()
        assert report["refs"] == 0
        assert report["refs_per_sec"] == 0.0
        assert all(
            info["share"] == 0.0 for info in report["stages"].values()
        )


class TestOutcomeClasses:
    """Every sampled access is classed as ``access_block``'s result reports it."""

    @pytest.mark.parametrize(
        "trigger", ["constant", "global_adaptive", "per_app_adaptive"]
    )
    def test_every_sample_matches_the_scalar_result(self, trigger):
        def build():
            # Four tiles, so growing regions spill past their home tile
            # and some hits are remote.
            config = MolecularCacheConfig(
                molecule_bytes=1024, molecules_per_tile=8,
                tiles_per_cluster=4, clusters=1, strict=False,
            )
            cache = MolecularCache(
                config,
                resize_policy=ResizePolicy(
                    period=100, trigger=trigger, min_window_refs=8,
                    period_floor=20,
                ),
                rng=XorShift64(5),
            )
            cache.assign_application(0, goal=0.05, initial_molecules=2, tile_id=0)
            cache.assign_application(1, goal=0.4, initial_molecules=2, tile_id=1)
            attach_bus(cache)
            return cache

        stream = make_stream(6_000)
        scalar = build()
        expected = []
        for block, asid, write in stream:
            result = scalar.access_block(block, asid, write)
            if result.hit:
                remote = "remote_tiles_searched" in result.extra
                expected.append("remote_hit" if remote else "local_hit")
            else:
                expected.append("dirty_miss" if result.writeback else "clean_miss")

        seen = []

        class Recording(HotPathProfiler):
            def add_sample(self, asid, outcome, seconds):
                seen.append(outcome)
                super().add_sample(asid, outcome, seconds)

        profiled = build()
        profiler = Recording(sample_every=1)
        profiled.attach_profiler(profiler)
        profiled.access_many(*zip(*stream))

        assert_equivalent(scalar, profiled)
        assert profiler.resize_fires > 0
        assert set(expected) == set(PROFILE_STAGES)  # every class occurs
        mismatches = [
            (i, want, got)
            for i, (want, got) in enumerate(zip(expected, seen))
            if want != got
        ]
        assert len(seen) == len(stream) and not mismatches, mismatches[:5]
