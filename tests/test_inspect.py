"""Tests for the ``repro inspect`` reader."""

import json

import pytest

from repro.cli import main


class TestMalformedRecording:
    """A trace instant whose ``args`` do not fit its kind is a clean error
    naming the trace event, like a trace that does not parse at all; so
    is an old JSON Lines recording. Each ``line`` below is an event as
    JSON Lines wrote it, recorded as the ``kind``-named instant the trace
    holds instead."""

    @pytest.mark.parametrize("line", [
        '{"kind": "resize_decision"}',
        '[1, 2]',
        '{"kind": "epoch_rollover", "regions": [1]}',
        '{"kind": "run_meta", "regions": {"x": 1}}',
    ])
    def test_exits_2_naming_the_line(self, tmp_path, capsys, line):
        payload = json.loads(line)
        kind = payload.pop("kind") if isinstance(payload, dict) else "run_meta"
        events = [
            {"name": "future_kind", "cat": "telemetry", "ph": "i", "ts": 0,
             "args": {}},
            {"name": kind, "cat": "telemetry", "ph": "i", "ts": 1,
             "args": payload},
        ]
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"traceEvents": events}))
        assert main(["inspect", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: trace event 1 ")
        assert "Traceback" not in err

    def test_old_jsonl_recording_rejected(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        path.write_text('{"kind": "run_meta"}\n{"kind": "epoch_rollover"}\n')
        assert main(["inspect", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: broken trace")
        assert "record again with --trace" in err
