"""Tests for the telemetry subsystem (events, bus, sinks, replay, CLI)."""

import json

import pytest

from repro.cli import main
from repro.common.errors import ConfigError
from repro.common.rng import XorShift64
from repro.molecular import MolecularCache, MolecularCacheConfig, ResizePolicy
from repro.prof.spans import SpanRecorder, load_trace
from repro.sim.cmp import CMPRunConfig, CMPRunner
from repro.sim.driver import run_trace
from repro.sim.schedule import SAMPLE_EVERY
from repro.telemetry import (
    AccessSampled,
    EpochRollover,
    EventBus,
    MetricsTimeline,
    MoleculeGranted,
    MoleculeWithdrawn,
    ResizeDecision,
    RingBufferSink,
    RunMeta,
    event_from_dict,
    events_from_trace,
    load_report,
    replay_events,
)
from repro.trace.container import Trace
from tests.conftest import assert_chrome_trace


def make_cache(goal=0.1, period=2_000, seed=7):
    config = MolecularCacheConfig.for_total_size(
        1 << 20, clusters=1, tiles_per_cluster=4, strict=False
    )
    cache = MolecularCache(
        config,
        resize_policy=ResizePolicy(period=period),
        rng=XorShift64(seed),
    )
    cache.assign_application(0, goal=goal, tile_id=0)
    return cache


def drive(cache, n_refs, span=1 << 12, seed=3):
    rng = XorShift64(seed)
    for _ in range(n_refs):
        cache.access_block(rng.randrange(span), 0)


def blocks_trace(blocks) -> Trace:
    return Trace([block * 64 for block in blocks])


def random_trace(n_refs, span=1 << 12, seed=3) -> Trace:
    rng = XorShift64(seed)
    return blocks_trace([rng.randrange(span) for _ in range(n_refs)])


class TestDisabledPath:
    def test_telemetry_off_by_default(self):
        assert make_cache().telemetry is None

    def test_disabled_run_matches_recorded_run(self):
        """Telemetry must observe, never perturb, the simulation."""
        plain = make_cache()
        run_trace(plain, random_trace(5_000))

        recorded = make_cache()
        sink = RingBufferSink(capacity=100_000)
        run_trace(recorded, random_trace(5_000),
                  telemetry=EventBus([sink], epoch_refs=500))

        assert plain.stats.as_dict() == recorded.stats.as_dict()
        assert plain.partition_sizes() == recorded.partition_sizes()
        assert sum(isinstance(e, EpochRollover) for e in sink) == 10
        assert sum(isinstance(e, AccessSampled) for e in sink) == 5_000 // SAMPLE_EVERY

    def test_detach_stops_emission(self):
        cache = make_cache()
        sink = RingBufferSink()
        bus = EventBus([sink], epoch_refs=100)
        run_trace(cache, random_trace(150), telemetry=bus)
        emitted = bus.events_emitted
        assert emitted > 0
        assert cache.detach_telemetry() is bus
        run_trace(cache, random_trace(600, seed=4))
        assert bus.events_emitted == emitted
        assert cache.telemetry is None

    def test_reattach_same_bus_is_idempotent(self):
        cache = make_cache()
        bus = EventBus([RingBufferSink()])
        cache.attach_telemetry(bus)
        cache.attach_telemetry(bus)
        metas = [e for e in bus.sinks[0] if isinstance(e, RunMeta)]
        assert len(metas) == 1


class TestRingBuffer:
    def test_eviction_order(self):
        sink = RingBufferSink(capacity=3)
        events = [
            AccessSampled(seq=i, asid=0, block=i, write=False,
                          outcome="clean-miss", duration_us=1.0)
            for i in range(5)
        ]
        for event in events:
            sink.emit(event)
        assert sink.events() == events[2:]  # oldest evicted first
        assert sink.dropped == 2
        assert len(sink) == 3

    def test_clear(self):
        sink = RingBufferSink(capacity=2)
        sink.emit(AccessSampled(seq=1, asid=0, block=7, write=True,
                                outcome="remote-hit", duration_us=1.5))
        sink.clear()
        assert len(sink) == 0 and sink.dropped == 0

    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigError):
            RingBufferSink(capacity=0)


class TestEventSerialisation:
    EVENTS = [
        RunMeta(total_bytes=1 << 20, clusters=1, tiles=4,
                molecules_per_tile=32, lines_per_molecule=128,
                regions={0: {"goal": 0.1, "home_tile": 0,
                             "molecules": 16, "line_multiplier": 1}}),
        AccessSampled(seq=512, asid=0, block=99, write=False,
                      outcome="remote-hit", duration_us=1.25),
        ResizeDecision(accesses=25_000, asid=1, action="grow", amount=8,
                       window_miss_rate=0.42, molecules=24, period=25_000),
        MoleculeGranted(accesses=25_000, asid=1, count=8, tiles=[0, 1],
                        molecules=24),
        MoleculeWithdrawn(accesses=50_000, asid=1, count=3, writebacks=7,
                          molecules=21),
        EpochRollover(epoch=2, seq=20_000, mean_molecules_probed=17.5,
                      free_molecules=64,
                      regions={1: {"accesses": 9_000, "miss_rate": 0.2,
                                   "molecules": 24, "occupancy": 0.8,
                                   "goal": 0.1, "hpm": 0.033}}),
    ]

    @pytest.mark.parametrize("event", EVENTS, ids=lambda e: e.kind)
    def test_json_round_trip(self, event):
        payload = json.loads(json.dumps(event.as_dict()))
        assert event_from_dict(payload) == event

    def test_unknown_kind_skipped(self):
        assert event_from_dict({"kind": "from_the_future", "x": 1}) is None

    def test_int_region_keys_restored(self):
        payload = json.loads(json.dumps(self.EVENTS[-1].as_dict()))
        rebuilt = event_from_dict(payload)
        assert list(rebuilt.regions) == [1]


class TestEpochBoundaries:
    """The driver's run schedule owns the epoch clock."""

    def test_rollover_every_epoch_refs(self):
        cache = make_cache()
        timeline = MetricsTimeline()
        bus = EventBus([timeline], epoch_refs=100)
        run_trace(cache, random_trace(250), telemetry=bus)
        # Two full epochs, then the tail the driver flushed.
        assert [e.seq for e in timeline.epochs] == [100, 200, 250]
        bus.flush_epoch(250)  # nothing new to flush
        assert len(timeline) == 3
        assert [e.epoch for e in timeline.epochs] == [1, 2, 3]

    def test_epoch_metrics_are_epoch_local(self):
        cache = make_cache()
        timeline = MetricsTimeline()
        # One distinct block: 1 cold miss, then hits.
        run_trace(cache, blocks_trace([0] * 200),
                  telemetry=EventBus([timeline], epoch_refs=100))
        first, second = timeline.epochs
        assert first.regions[0]["accesses"] == 100
        assert first.regions[0]["miss_rate"] == pytest.approx(0.01)
        assert second.regions[0]["miss_rate"] == 0.0  # not cumulative
        assert second.regions[0]["molecules"] == cache.region_of(0).molecule_count
        assert 0.0 < second.regions[0]["occupancy"] <= 1.0
        assert second.regions[0]["hpm"] == pytest.approx(
            1.0 / second.regions[0]["molecules"]
        )

    def test_epoch_refs_zero_disables_rollover(self):
        cache = make_cache()
        timeline = MetricsTimeline()
        run_trace(cache, random_trace(500),
                  telemetry=EventBus([timeline], epoch_refs=0))
        assert len(timeline) == 0

    def test_access_sampling_interval(self):
        cache = make_cache()
        sink = RingBufferSink(capacity=10_000)
        run_trace(cache, random_trace(4 * SAMPLE_EVERY + 100), warmup_refs=300,
                  telemetry=EventBus([sink], epoch_refs=0))
        samples = [e for e in sink if isinstance(e, AccessSampled)]
        # Every SAMPLE_EVERY-th issued reference, warm-up included.
        assert [s.seq for s in samples] == [SAMPLE_EVERY * k for k in range(1, 5)]
        assert {s.outcome for s in samples} <= {"hit", "clean-miss"}
        assert all(s.duration_us > 0 for s in samples)


class TestResizeEvents:
    def test_decisions_and_grants_recorded(self):
        cache = make_cache(goal=0.05, period=1_000)
        sink = RingBufferSink(capacity=100_000)
        cache.attach_telemetry(EventBus([sink], epoch_refs=0))
        drive(cache, 20_000, span=1 << 14)
        decisions = [e for e in sink if isinstance(e, ResizeDecision)]
        grants = [e for e in sink if isinstance(e, MoleculeGranted)]
        assert decisions, "expected Algorithm 1 to run"
        assert {d.action for d in decisions} <= {
            "grow", "withdraw", "grow-denied", "hold"
        }
        grown = [d for d in decisions if d.action == "grow"]
        assert len(grown) == len(grants)
        granted_total = sum(g.count for g in grants)
        assert granted_total == cache.stats.molecules_granted

    def test_withdrawals_recorded(self):
        # A lenient goal with a small-but-nonzero miss rate drives the
        # withdraw-sqrt branch (a zero miss rate rounds the step to 0).
        cache = make_cache(goal=0.9, period=1_000)
        sink = RingBufferSink(capacity=100_000)
        cache.attach_telemetry(EventBus([sink], epoch_refs=0))
        drive(cache, 10_000, span=1 << 12)
        withdrawals = [e for e in sink if isinstance(e, MoleculeWithdrawn)]
        assert withdrawals
        assert sum(w.count for w in withdrawals) == cache.stats.molecules_withdrawn

    def test_remote_search_events(self, monkeypatch):
        # A region grown across tiles finds lines through Ulmo's remote
        # search; with every reference sampled, those accesses show up
        # as remote-hit samples (or as resize when they fired a round).
        import repro.sim.schedule as schedule

        monkeypatch.setattr(schedule, "SAMPLE_EVERY", 1)
        cache = make_cache(goal=0.05, period=1_000)
        sink = RingBufferSink(capacity=200_000)
        run_trace(cache, random_trace(20_000, span=1 << 14),
                  telemetry=EventBus([sink], epoch_refs=0))
        remote = [e for e in sink
                  if isinstance(e, AccessSampled) and e.outcome == "remote-hit"]
        assert remote, "a multi-tile region must search remotely"
        found = sum(c.ulmo.stats.remote_hits for c in cache.clusters)
        resized = sum(isinstance(e, AccessSampled) and e.outcome == "resize"
                      for e in sink)
        assert found - resized <= len(remote) <= found


class TestJsonlRoundTrip:
    """A recording's round trip: bus -> Chrome trace file -> replay."""

    def run_recorded(self, path):
        cache = make_cache(goal=0.05, period=1_000)
        timeline = MetricsTimeline()
        trace = SpanRecorder()
        bus = EventBus([trace, timeline], epoch_refs=1_000)
        run_trace(cache, random_trace(10_000, span=1 << 14), telemetry=bus)
        trace.export(path)
        return cache, timeline

    def test_replay_equals_live(self, tmp_path):
        path = tmp_path / "trace.json"
        _cache, live = self.run_recorded(path)
        replayed = replay_events(events_from_trace(load_trace(path)))
        assert replayed.timeline.epochs == live.epochs
        assert replayed.meta is not None
        assert replayed.meta.regions[0]["goal"] == pytest.approx(0.05)

    def test_broken_line_reported_with_number(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"traceEvents": [{"ph": "i", "ts": 0},\n{"ph": "tru')
        with pytest.raises(ConfigError, match=r"bad.json: broken trace .*line 2"):
            load_report(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigError, match="no trace at"):
            load_report(tmp_path / "absent.json")

    def test_unwritable_record_path_rejected(self, tmp_path, capsys):
        path = tmp_path / "missing-dir" / "trace.json"
        for command in (
            ["simulate", "--refs", "1000", "--workloads", "ammp"],
            ["sweep", "table1", "--out", str(tmp_path / "store")],
            ["worker", str(tmp_path / "store")],
        ):
            assert main([*command, "--trace", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot write trace to {path}")
        # Each failed before its run started: no store, no campaign.
        assert not (tmp_path / "store").exists()

    def test_inspect_cli_renders_report(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        self.run_recorded(path)
        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Resize timeline" in out
        assert "Per-region miss rate by epoch" in out
        assert "Per-region occupancy by epoch" in out
        assert "hits-per-molecule" in out
        assert "Per-region summary" in out

    def test_inspect_cli_missing_file_errors(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path / "none.json")]) == 2
        assert "error" in capsys.readouterr().err


class TestLeaseRendering:
    """``repro inspect`` on a distributed drain's lease events."""

    @staticmethod
    def _events():
        from repro.telemetry.events import (
            JobQuarantined,
            LeaseAcquired,
            LeaseExpired,
        )

        return [
            LeaseAcquired(campaign="t", job="a" * 64, owner="w0", token=1,
                          reclaimed=False, at=100.0),
            LeaseExpired(campaign="t", job="a" * 64, owner="w0", token=1,
                         age=12.5, by="w1", at=115.0),
            LeaseAcquired(campaign="t", job="a" * 64, owner="w1", token=2,
                          reclaimed=True, at=115.0),
            JobQuarantined(campaign="t", job="b" * 64, attempts=3,
                           owners=["w0", "w1", "w0"], at=120.0),
        ]

    def test_lease_timeline_sorted_and_labelled(self):
        report = replay_events(self._events())
        table = report.lease_table()
        lines = table.splitlines()
        assert "Lease timeline" in lines[0]
        body = [line for line in lines if "aaaaaaaa" in line]
        assert len(body) == 3
        # Relative wall-clock ordering: acquire at 0, expiry at +15.
        assert body[0].startswith("0.00") and "acquire" in body[0]
        assert body[1].startswith("15.00") and "expired" in body[1]
        assert "stale 12.5s, noticed by w1" in body[1]
        assert "reclaim" in body[2]

    def test_quarantine_section_names_the_crash_loop(self):
        report = replay_events(self._events())
        section = report.quarantine_section()
        assert "Quarantined jobs" in section
        assert "w0, w1, w0" in section
        assert "degraded" in section

    def test_format_includes_lease_sections(self):
        out = replay_events(self._events()).format()
        assert "leases: 2 acquisition(s), 1 expir(y/ies), 1 job(s)" in out
        assert "Lease timeline" in out
        assert "Quarantined jobs" in out
        # A lease-only stream must not trip the no-epochs warning.
        assert "no epoch rollovers" not in out

    def test_inspect_cli_on_distributed_stream(self, tmp_path, capsys):
        path = tmp_path / "lease-events.json"
        trace = SpanRecorder()
        for tid, event in enumerate(self._events()):
            trace.emit(event, tid)  # workers record on their own tracks
        trace.export(path)
        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Lease timeline (distributed drain)" in out


class TestReportAnalysis:
    def test_oscillation_count(self):
        decisions = [
            ResizeDecision(accesses=i * 1_000, asid=0, action=action,
                           amount=1, window_miss_rate=0.1, molecules=8,
                           period=1_000)
            for i, action in enumerate(
                ["grow", "hold", "withdraw", "grow", "grow", "withdraw"]
            )
        ]
        report = replay_events(decisions)
        assert report.oscillations(0) == 3  # g->w, w->g, g->w (holds skipped)

    def test_time_to_goal(self):
        epochs = [
            EpochRollover(epoch=n, seq=n * 100, mean_molecules_probed=1.0,
                          free_molecules=0,
                          regions={0: {"accesses": 100, "miss_rate": rate,
                                       "molecules": 4, "occupancy": 0.5,
                                       "goal": 0.1, "hpm": 0.2}})
            for n, rate in ((1, 0.5), (2, 0.2), (3, 0.08), (4, 0.3))
        ]
        report = replay_events(epochs)
        assert report.timeline.time_to_goal(0) == 3
        assert report.timeline.peak(0, "miss_rate") == pytest.approx(0.5)
        assert report.timeline.mean(0, "occupancy") == pytest.approx(0.5)

    def test_unmanaged_region_has_no_time_to_goal(self):
        epoch = EpochRollover(epoch=1, seq=100, mean_molecules_probed=1.0,
                              free_molecules=0,
                              regions={0: {"accesses": 100, "miss_rate": 0.0,
                                           "molecules": 4, "occupancy": 0.5,
                                           "goal": None, "hpm": 0.25}})
        assert replay_events([epoch]).timeline.time_to_goal(0) is None


class TestDriverAndRunnerWiring:
    def test_run_trace_attaches_and_flushes(self):
        cache = make_cache()
        timeline = MetricsTimeline()
        bus = EventBus([timeline], epoch_refs=1_000)
        rng = XorShift64(5)
        addresses = [rng.randrange(1 << 18) for _ in range(2_500)]
        run_trace(cache, Trace(addresses), telemetry=bus)
        assert cache.telemetry is bus
        assert len(timeline) == 3  # 2 full epochs + flushed tail
        assert timeline.epochs[-1].seq == 2_500

    def test_run_trace_ignores_bus_on_traditional_cache(self):
        from repro.caches.setassoc import SetAssociativeCache

        cache = SetAssociativeCache(4096, 2)
        stats = run_trace(cache, Trace([0, 64]), telemetry=EventBus())
        assert stats.total.accesses == 2

    def test_cmp_runner_records(self):
        cache = make_cache()
        cache.assign_application(1, goal=0.1, tile_id=1)
        timeline = MetricsTimeline()
        bus = EventBus([timeline], epoch_refs=1_000)
        runner = CMPRunner(
            cache, CMPRunConfig(warmup_refs=0), telemetry=bus
        )
        rng = XorShift64(9)
        traces = {
            asid: Trace([rng.randrange(1 << 18) for _ in range(3_000)],
                        asids=asid)
            for asid in (0, 1)
        }
        runner.run(traces)
        assert len(timeline) >= 3
        assert set(timeline.asids()) == {0, 1}

    def test_simulate_record_then_inspect(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        code = main([
            "simulate", "--size", "1MB", "--refs", "20000",
            "--workloads", "ammp,parser", "--tiles", "4",
            "--trace", str(path), "--trace-epoch", "2000",
        ])
        assert code == 0
        assert "trace:" in capsys.readouterr().err
        events = load_trace(path)
        assert_chrome_trace(events)
        # One "simulate" track; every epoch plots one counter per region.
        assert {e["args"]["name"] for e in events if e["ph"] == "M"} == {
            "simulate"
        }
        epochs = sum(e.get("name") == "epoch_rollover" for e in events)
        counters = [e for e in events if e["ph"] == "C"]
        assert epochs > 0 and len(counters) == 2 * epochs
        assert set(counters[0]["args"]) == {"miss_rate", "molecules"}
        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Resize timeline" in out
        assert "Per-region miss rate by epoch" in out
        assert "span trace" not in out  # a simulate trace has no spans

    def test_simulate_records_setassoc(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        code = main([
            "simulate", "--cache", "setassoc", "--size", "1MB",
            "--refs", "20000", "--workloads", "art,ammp,parser,mcf",
            "--trace", str(path),
        ])
        assert code == 0
        assert "trace:" in capsys.readouterr().err
        events = load_trace(path)
        assert_chrome_trace(events)
        samples = [e for e in events if e.get("name") == "access_sampled"]
        assert samples and all(e["ph"] == "i" for e in samples)
        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Sampled access cost" in out
        for outcome in ("hit", "clean-miss", "dirty-miss"):
            assert f"\n{outcome} " in out
        assert "no epoch rollovers" not in out


class TestMolecularStatsDict:
    def test_as_dict_includes_all_counted_fields(self):
        cache = make_cache()
        drive(cache, 3_000, span=1 << 16)
        snapshot = cache.stats.as_dict()
        for key in (
            "writebacks_to_memory",
            "resize_compute_cycles",
            "latency_cycles",
            "mean_latency_cycles",
        ):
            assert key in snapshot, key
        assert snapshot["latency_cycles"] == cache.stats.latency_cycles
        assert snapshot["latency_cycles"] > 0
