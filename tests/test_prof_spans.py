"""The trace recorder: spans, telemetry instants, export and analysis.

The recorder's output must be Chrome trace-event JSON (``traceEvents``
with ``ph: "X"`` complete spans in microseconds) so a recorded campaign
loads directly in Perfetto / ``chrome://tracing``. Every lease worker
must record queue/job/store spans on its own track — forked workers hand
theirs back through the store — the launcher the campaign span, and a
failed attempt a retry marker. As a telemetry sink the recorder writes
each event as an instant and each epoch as per-region counters.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import ResultStore, run_campaign
from repro.campaign.registry import get_experiment
from repro.common.errors import ConfigError
from repro.prof import SpanRecorder, load_trace, summarize_trace
from repro.prof.spans import LAUNCHER_TID
from repro.telemetry import EpochRollover, events_from_trace
from tests.campaign_support import (
    first_time,
    pin_cpus,
)

TINY_REFS = 20_000


@pytest.fixture(autouse=True)
def _tiny_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.02")
    pin_cpus(monkeypatch, 2)


def run_spanned(tmp_path, jobs: int) -> SpanRecorder:
    spans = SpanRecorder()
    specs = get_experiment("table1").jobs(refs=TINY_REFS)
    run_campaign(
        ResultStore(tmp_path / "store"), specs, campaign="table1",
        jobs=jobs, resume=False, spans=spans,
    )
    return spans


class TestSpanRecorder:
    def test_span_and_instant_shape(self):
        recorder = SpanRecorder()
        recorder.name_track(LAUNCHER_TID, "launcher")
        recorder.span("work", "job", 10.0, 10.5, tid=7, args={"k": 1})
        recorder.instant("retry", "retry", 10.25)
        events = recorder.trace_events()
        meta = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert meta[0]["args"]["name"] == "launcher"
        assert len(spans) == 1 and len(instants) == 1
        # Times are normalised to µs from the earliest event.
        assert spans[0]["ts"] == 0.0
        assert spans[0]["dur"] == pytest.approx(0.5e6)
        assert instants[0]["ts"] == pytest.approx(0.25e6)
        assert spans[0]["args"] == {"k": 1}

    def test_negative_duration_clamped(self):
        recorder = SpanRecorder()
        recorder.span("backwards", "job", 5.0, 4.0)
        assert recorder.trace_events()[0]["dur"] == 0.0

    def test_export_load_round_trip(self, tmp_path):
        recorder = SpanRecorder()
        recorder.span("a", "job", 0.0, 1.0)
        path = recorder.export(tmp_path / "trace.json")
        payload = json.loads(path.read_text())
        assert "traceEvents" in payload
        assert load_trace(path) == payload["traceEvents"]

    def test_load_bare_array_form(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text('[{"ph": "X", "cat": "job", "ts": 0, "dur": 1}]')
        assert len(load_trace(path)) == 1

    def test_load_rejects_garbage(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(ConfigError):
            load_trace(missing)
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        with pytest.raises(ConfigError):
            load_trace(broken)
        wrong_shape = tmp_path / "shape.json"
        wrong_shape.write_text('{"no_events": 1}')
        with pytest.raises(ConfigError):
            load_trace(wrong_shape)

    @pytest.mark.parametrize("events, problem", [
        ("[5]", "trace event 0 is not an object"),
        ('[{"ph": "X", "ts": 0, "dur": 1}, {"ph": "X", "dur": "abc"}]',
         "trace event 1 has a non-numeric 'dur'"),
        ('[{"ph": "i", "ts": null}]', "trace event 0 has a non-numeric 'ts'"),
        ('[{"ph": "X", "ts": true, "dur": 1}]',
         "trace event 0 has a non-numeric 'ts'"),
    ])
    def test_load_rejects_malformed_events(self, tmp_path, capsys, events,
                                           problem):
        from repro.cli import main

        path = tmp_path / "trace.json"
        path.write_text('{"traceEvents": %s}' % events)
        with pytest.raises(ConfigError, match=problem):
            load_trace(path)
        assert main(["inspect", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {problem}")
        assert "Traceback" not in err

    def test_emit_records_instants_and_counters(self):
        epoch = EpochRollover(
            epoch=1, seq=100, mean_molecules_probed=2.0, free_molecules=3,
            regions={
                asid: {"accesses": 50, "miss_rate": rate, "molecules": 4,
                       "occupancy": 0.5, "goal": 0.1, "hpm": 0.2}
                for asid, rate in ((0, 0.25), (1, 0.5))
            },
        )
        recorder = SpanRecorder()
        recorder.emit(epoch, 7)
        recorder.track(9).emit(epoch)
        events = recorder.trace_events()
        instants = [e for e in events if e["ph"] == "i"]
        counters = [e for e in events if e["ph"] == "C"]
        assert [e["tid"] for e in instants] == [7, 9]
        assert instants[0]["name"] == "epoch_rollover"
        assert "kind" not in instants[0]["args"]
        assert list(events_from_trace(events)) == [epoch, epoch]
        assert [(e["tid"], e["name"]) for e in counters] == [
            (7, "asid 0"), (7, "asid 1"), (9, "asid 0"), (9, "asid 1")
        ]
        assert counters[1]["args"] == {"miss_rate": 0.5, "molecules": 4}


class TestRunnerSpans:
    def test_serial_campaign_records_spans(self, tmp_path):
        spans = run_spanned(tmp_path, jobs=1)
        events = spans.trace_events()
        cats = {e.get("cat") for e in events if e.get("ph") == "X"}
        assert {"campaign", "job", "queue", "store"} <= cats
        jobs = [e for e in events if e.get("cat") == "job"]
        assert len(jobs) == 11  # table1's job count
        # Every span lands inside the campaign span.
        campaign = next(e for e in events if e.get("cat") == "campaign")
        end = campaign["ts"] + campaign["dur"]
        for e in events:
            if e.get("ph") == "X":
                assert e["ts"] >= campaign["ts"] - 1e-3
                assert e["ts"] + e["dur"] <= end + 1e-3

    def test_pool_campaign_records_queue_spans(self, tmp_path):
        """A forked fleet: each worker's spans come back on its own
        track, merged with the launcher's into one trace."""
        spans = run_spanned(tmp_path, jobs=2)
        events = spans.trace_events()
        cats = {e.get("cat") for e in events if e.get("ph") == "X"}
        assert {"campaign", "job", "queue", "store"} <= cats
        # Worker tracks are named after their pids.
        names = {
            e["args"]["name"] for e in events if e.get("ph") == "M"
        }
        assert "launcher" in names
        assert sum(name.startswith("worker ") for name in names) == 2
        job_tracks = {e["tid"] for e in events if e.get("cat") == "job"}
        assert len(job_tracks) == 2
        assert not list((tmp_path / "store").glob("spans*"))  # handed off

    def test_retry_marker_on_failure(self, tmp_path, patch_execute):
        calls = {"n": 0}

        def flaky(payload):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return {"result": calls["n"], "elapsed": 0.0}

        patch_execute(flaky)
        spans = SpanRecorder()
        specs = get_experiment("table1").jobs(refs=TINY_REFS)[:2]
        run_campaign(
            ResultStore(tmp_path / "store"), specs, campaign="table1",
            resume=False, spans=spans,
        )
        events = spans.trace_events()
        retries = [
            e for e in events
            if e.get("ph") == "i" and e.get("cat") == "retry"
        ]
        assert len(retries) == 1
        assert retries[0]["args"]["attempt"] == 2
        # The worker times every attempt itself, the failed one included;
        # only the two successes reach the store.
        assert sum(1 for e in events if e.get("cat") == "job") == 3
        assert sum(1 for e in events if e.get("cat") == "store") == 2

    def test_retry_marker_from_a_forked_worker(self, tmp_path, patch_execute):
        def flaky(payload):
            if first_time(tmp_path, "failed"):
                raise RuntimeError("transient")
            return {"result": 1, "elapsed": 0.0}

        patch_execute(flaky)
        spans = SpanRecorder()
        specs = get_experiment("table1").jobs(refs=TINY_REFS)[:4]
        run_campaign(
            ResultStore(tmp_path / "store"), specs, campaign="table1",
            jobs=2, resume=False, spans=spans,
        )
        events = spans.trace_events()
        retries = [e for e in events if e.get("cat") == "retry"]
        assert len(retries) == 1 and retries[0]["tid"] != LAUNCHER_TID

    def test_no_recorder_means_no_overhead_paths(self, tmp_path):
        # spans=None must leave the drain untouched (the default path).
        specs = get_experiment("table1").jobs(refs=TINY_REFS)[:1]
        result = run_campaign(
            ResultStore(tmp_path / "store"), specs, campaign="table1",
            resume=False,
        )
        assert result.executed == 1


class TestSummarize:
    def test_summary_reports_categories_and_markers(self):
        recorder = SpanRecorder()
        recorder.span("j1", "job", 0.0, 1.0, tid=5)
        recorder.span("j2", "job", 1.0, 3.0, tid=5)
        recorder.span("q", "queue", 0.0, 0.5)
        recorder.instant("retry", "retry", 2.0)
        text = summarize_trace(recorder.trace_events())
        assert "3 spans" in text
        assert "job" in text and "queue" in text
        assert "queue-wait / execute ratio" in text
        assert "retry:retry: 1" in text

    def test_campaign_trace_summarises(self, tmp_path):
        spans = run_spanned(tmp_path, jobs=2)
        path = spans.export(tmp_path / "trace.json")
        text = summarize_trace(load_trace(path))
        assert "span trace:" in text
        assert "campaign" in text
