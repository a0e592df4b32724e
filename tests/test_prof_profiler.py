"""The run schedule's access sampler: equivalence, outcome classes, report.

A driver given a bus samples every ``SAMPLE_EVERY``-th issued reference
(:mod:`repro.sim.schedule`). Sampling must observe, never perturb: stats,
resize logs, occupancy and every event other than the samples are
byte-identical to an unsampled run, through ``run_trace`` and
``CMPRunner``, for both cache families. Every sample must land in the
class an independent reading of the same reference gives: the scalar
``AccessResult`` for the molecular cache, the list model of
``test_setassoc_model.py`` for the set-associative cache. ``repro
inspect`` tabulates the samples per class.
"""

import pytest

import repro.sim.schedule as schedule_module
from repro.audit.invariants import audit_and_emit
from repro.caches.setassoc import SetAssociativeCache
from repro.common.rng import XorShift64
from repro.faults.injector import FaultInjector
from repro.faults.spec import FaultPlan
from repro.molecular.cache import MolecularCache
from repro.molecular.config import MolecularCacheConfig, ResizePolicy
from repro.sim.cmp import CMPRunConfig, CMPRunner
from repro.sim.driver import run_trace
from repro.sim.schedule import SAMPLE_EVERY
from repro.telemetry import AccessSampled, replay_events
from repro.telemetry.bus import EventBus
from repro.telemetry.events import SAMPLE_OUTCOMES
from repro.telemetry.sinks import RingBufferSink
from repro.trace.container import Trace
from tests.test_setassoc_model import ListModel


def build_cache() -> MolecularCache:
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
            period=200, trigger="global_adaptive", min_window_refs=16,
            period_floor=50,
        ),
        rng=XorShift64(11),
    )
    cache.assign_application(0, goal=0.3, initial_molecules=3, tile_id=0)
    cache.assign_application(1, goal=0.3, initial_molecules=3, tile_id=1)
    return cache


def spilling_cache(trigger: str) -> MolecularCache:
    """Four tiles, so growing regions spill past their home tile and
    some hits are remote."""
    config = MolecularCacheConfig(
        molecule_bytes=1024, molecules_per_tile=8,
        tiles_per_cluster=4, clusters=1, strict=False,
    )
    cache = MolecularCache(
        config,
        resize_policy=ResizePolicy(
            period=100, trigger=trigger, min_window_refs=8, period_floor=20,
        ),
        rng=XorShift64(5),
    )
    cache.assign_application(0, goal=0.05, initial_molecules=2, tile_id=0)
    cache.assign_application(1, goal=0.4, initial_molecules=2, tile_id=1)
    return cache


def make_stream(n: int = 600, blocks: int = 400):
    rng = XorShift64(7)
    return [
        (rng.randrange(blocks), rng.randrange(2), rng.randrange(4) == 0)
        for _ in range(n)
    ]


def as_trace(stream) -> Trace:
    return Trace(
        [block * 64 for block, _a, _w in stream],
        [asid for _b, asid, _w in stream],
        [write for _b, _a, write in stream],
    )


def recording_bus(epoch_refs: int = 100):
    sink = RingBufferSink(capacity=1_000_000)
    return EventBus([sink], epoch_refs=epoch_refs), sink


def split(sink):
    """(samples, every other event) of a recorded run."""
    samples = [e for e in sink if isinstance(e, AccessSampled)]
    others = [e for e in sink if not isinstance(e, AccessSampled)]
    return samples, others


def assert_equivalent(reference, candidate):
    assert reference.stats == candidate.stats
    assert reference.stats.as_dict() == candidate.stats.as_dict()
    assert reference.occupancy_report() == candidate.occupancy_report()
    assert reference.resizer.log == candidate.resizer.log


def scripted(cache, stream, bus, warmup=0, audit_every=0, plan=None):
    """``run_trace``'s between-reference work written out by hand: per
    issued count, the rollover, the audit, the warm-up reset, then the
    due faults; at the end the tail epoch, then a last audit."""
    cache.attach_telemetry(bus)
    injector = FaultInjector(cache, plan) if plan else None
    access = cache.access_session().access
    for issued, (block, asid, write) in enumerate(stream):
        if issued:
            if bus.epoch_refs and issued % bus.epoch_refs == 0:
                bus.rollover(issued)
            if audit_every and issued % audit_every == 0:
                audit_and_emit(cache)
            if issued == warmup:
                cache.stats.reset()
        if injector is not None:
            injector.fire_due(issued)
        access(block, asid, write)
    bus.flush_epoch(len(stream))
    if audit_every:
        audit_and_emit(cache)


class TestProfiledEquivalence:
    @pytest.mark.parametrize("audit_every", [1, 7, 512])
    def test_profiled_stream_matches_plain(self, audit_every):
        # Audits, the warm-up and faults split run_trace's access_many
        # calls at their counts; the samples fall between them.
        stream = make_stream(2_000)
        plan = FaultPlan.parse("hard@300:m1,degraded@701:t1+4,transient@1024:m9")

        plain = build_cache()
        plain_bus, plain_sink = recording_bus()
        scripted(plain, stream, plain_bus, 250, audit_every, plan)

        sampled = build_cache()
        bus, sink = recording_bus()
        run_trace(sampled, as_trace(stream), warmup_refs=250, telemetry=bus,
                  audit_every=audit_every, faults=plan)

        assert_equivalent(plain, sampled)
        samples, others = split(sink)
        assert others == plain_sink.events()
        assert [s.seq for s in samples] == list(
            range(SAMPLE_EVERY, len(stream) + 1, SAMPLE_EVERY)
        )

    def test_profiled_session_matches_plain(self, monkeypatch):
        # CMPRunner drives a held session; a bus adds the samples and
        # the epochs, and changes nothing else.
        rng = XorShift64(9)
        traces = {
            asid: Trace([rng.randrange(1 << 16) * 64 for _ in range(3_000)],
                        asids=asid, writes=asid == 1)
            for asid in (0, 1)
        }
        config = CMPRunConfig(warmup_refs=500, faults=FaultPlan.parse("hard@900:m2"))

        unrecorded = build_cache()
        expected = CMPRunner(unrecorded, config).run(traces)

        runs = {}
        for every in (SAMPLE_EVERY, 1 << 40):  # sampled, and never sampled
            monkeypatch.setattr(schedule_module, "SAMPLE_EVERY", every)
            cache = build_cache()
            bus, sink = recording_bus()
            result = CMPRunner(cache, config, telemetry=bus).run(traces)
            assert result.per_asid == expected.per_asid
            assert result.total_refs == expected.total_refs
            assert_equivalent(unrecorded, cache)
            runs[every] = split(sink)

        samples, others = runs[SAMPLE_EVERY]
        assert not runs[1 << 40][0]
        assert others == runs[1 << 40][1]
        assert len(samples) == expected.total_refs // SAMPLE_EVERY
        assert {s.asid for s in samples} == {0, 1}

    @pytest.mark.parametrize("driver", ["run_trace", "cmp"])
    def test_setassoc_samples_without_perturbing(self, driver):
        def run(bus):
            cache = SetAssociativeCache(1 << 13, 2, policy="random", rng=XorShift64(3))
            stream = make_stream(3_000, blocks=600)
            if driver == "run_trace":
                run_trace(cache, as_trace(stream), warmup_refs=100, telemetry=bus)
            else:
                traces = {asid: Trace([b * 64 for b, a, _w in stream if a == asid],
                                      asids=asid, writes=True)
                          for asid in (0, 1)}
                CMPRunner(cache, CMPRunConfig(warmup_refs=100), telemetry=bus).run(traces)
            return cache

        bus, sink = recording_bus()
        sampled, plain = run(bus), run(None)
        assert sampled.stats == plain.stats
        assert sampled.resident_blocks() == plain.resident_blocks()
        samples, others = split(sink)
        assert samples and not others  # no epochs: the cache takes no bus
        assert {s.outcome for s in samples} <= {"hit", "clean-miss", "dirty-miss"}

    def test_scalar_asid_and_write_args(self):
        # A trace with one ASID and one write flag stores them once
        # (zero-stride columns); the sampled reference is sliced from
        # them like any other chunk.
        blocks = [block for block, _a, _w in make_stream(1_100)]
        trace = Trace([block * 64 for block in blocks], asids=1, writes=True)
        plain = build_cache()
        run_trace(plain, trace)
        sampled = build_cache()
        bus, sink = recording_bus()
        run_trace(sampled, trace, telemetry=bus)
        assert_equivalent(plain, sampled)
        samples, _ = split(sink)
        assert [(s.asid, s.write, s.block) for s in samples] == [
            (1, True, blocks[SAMPLE_EVERY - 1]), (1, True, blocks[2 * SAMPLE_EVERY - 1])
        ]
        for region in sampled.regions.values():
            assert all(type(block) is int for block in region.presence)


def scalar_class(cache, block, asid, write) -> str:
    """A reference's class, read off ``access_block``'s result."""
    rounds = cache.stats.resize_events
    result = cache.access_block(block, asid, write)
    if cache.stats.resize_events != rounds:
        return "resize"
    if result.hit:
        return "remote-hit" if "remote_tiles_searched" in result.extra else "hit"
    return "dirty-miss" if result.writeback else "clean-miss"


def model_class(model: ListModel, block, asid, write) -> str:
    """A reference's class, read off the list model's counters."""
    hits = model.counts.get(asid, [0, 0, 0, 0])[1]
    writebacks = sum(counts[3] for counts in model.counts.values())
    model.access(block, asid, write)
    if model.counts[asid][1] != hits:
        return "hit"
    if sum(counts[3] for counts in model.counts.values()) != writebacks:
        return "dirty-miss"
    return "clean-miss"


class TestOutcomeClasses:
    """Every sampled access is classed as an independent reading of it is."""

    @pytest.mark.parametrize(
        "trigger", ["constant", "global_adaptive", "per_app_adaptive"]
    )
    def test_every_sample_matches_the_scalar_result(self, trigger, monkeypatch):
        monkeypatch.setattr(schedule_module, "SAMPLE_EVERY", 1)
        stream = make_stream(6_000)
        scalar = spilling_cache(trigger)
        expected = [scalar_class(scalar, *ref) for ref in stream]

        sampled = spilling_cache(trigger)
        bus, sink = recording_bus(epoch_refs=0)
        run_trace(sampled, as_trace(stream), telemetry=bus)

        assert_equivalent(scalar, sampled)
        seen = [s.outcome for s in split(sink)[0]]
        assert set(expected) == set(SAMPLE_OUTCOMES)  # every class occurs
        mismatches = [
            (i, want, got)
            for i, (want, got) in enumerate(zip(expected, seen))
            if want != got
        ]
        assert len(seen) == len(stream) and not mismatches, mismatches[:5]

    @pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
    def test_setassoc_samples_match_the_list_model(self, policy, monkeypatch):
        monkeypatch.setattr(schedule_module, "SAMPLE_EVERY", 1)
        stream = make_stream(3_000, blocks=96)
        rng = XorShift64(3)
        script = [rng.next_u64() for _ in range(len(stream))]
        cache = SetAssociativeCache(1 << 11, 2, policy=policy, rng=XorShift64(3))
        model = ListModel(cache.num_sets, 2, policy, script)
        expected = [model_class(model, *ref) for ref in stream]

        bus, sink = recording_bus(epoch_refs=0)
        run_trace(cache, as_trace(stream), telemetry=bus)
        seen = [s.outcome for s in split(sink)[0]]
        assert set(expected) == {"hit", "clean-miss", "dirty-miss"}
        assert seen == expected


class TestReport:
    def every_reference_sampled(self, monkeypatch):
        monkeypatch.setattr(schedule_module, "SAMPLE_EVERY", 1)
        cache = build_cache()
        bus, sink = recording_bus(epoch_refs=0)
        run_trace(cache, as_trace(make_stream(2_000)), telemetry=bus)
        return cache, split(sink)[0]

    def test_resize_fires_timed_exactly(self, monkeypatch):
        # With every reference sampled, each resize round is timed once,
        # inside the access that fired it.
        cache, samples = self.every_reference_sampled(monkeypatch)
        fires = [s for s in samples if s.outcome == "resize"]
        assert len(fires) == cache.stats.resize_events > 0
        rounds = {entry[0] for entry in cache.resizer.log}
        assert {s.seq for s in fires} == rounds

    def test_region_attribution_covers_samples(self, monkeypatch):
        cache, samples = self.every_reference_sampled(monkeypatch)
        per_region = {asid: sum(s.asid == asid for s in samples)
                      for asid in cache.regions}
        assert sum(per_region.values()) == len(samples) == 2_000
        assert per_region == {
            asid: counters.accesses
            for asid, counters in cache.stats.lifetime.items()
        }

    def samples(self):
        return [
            AccessSampled(seq=512 * (i + 1), asid=i % 2, block=i, write=False,
                          outcome=outcome, duration_us=us)
            for i, (outcome, us) in enumerate([
                ("hit", 1.0), ("hit", 3.0), ("remote-hit", 2.0),
                ("clean-miss", 4.0), ("dirty-miss", 6.0), ("resize", 50.0),
            ])
        ]

    def test_format_report_renders(self):
        text = replay_events(self.samples()).format()
        assert "6 access samples)" in text
        table = text[text.index("Sampled access cost (1 in 512"):].splitlines()
        rows = {line.split()[0]: line.split()[1:] for line in table[4:]}
        assert list(rows) == [*SAMPLE_OUTCOMES, "total"]
        # samples, mean µs, and the time 512 references of the class take
        assert rows["hit"] == ["2", "2.00", f"{4.0 * 512 / 1e6:.3f}"]
        assert rows["resize"] == ["1", "50.00", f"{50.0 * 512 / 1e6:.3f}"]
        assert rows["total"] == ["6", "11.00", f"{66.0 * 512 / 1e6:.3f}"]
        # A sample-only stream (a set-associative run) is not an error.
        assert "no epoch rollovers" not in text

    def test_empty_report(self):
        text = replay_events([]).format()
        assert "0 access samples)" in text
        assert "Sampled access cost" not in text
