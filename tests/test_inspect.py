"""Tests for the internals inspectors and the ``repro inspect`` reader."""

import json

import pytest

from repro.cli import main
from repro.molecular.inspect import render_replacement_view, render_tile_map
from tests.conftest import make_cache


class TestReplacementView:
    def test_renders_rows_and_counters(self, tiny_config):
        cache = make_cache(tiny_config, placement="randy")
        region = cache.assign_application(0, goal=0.2, initial_molecules=3)
        cache.access_block(1, 0)
        text = render_replacement_view(region)
        assert "region asid=0" in text
        assert text.count("row ") == 3
        assert "misses" in text
        assert "m0[" in text

    def test_max_rows_truncation(self, tiny_config):
        cache = make_cache(tiny_config, placement="randy")
        region = cache.assign_application(0, initial_molecules=4)
        text = render_replacement_view(region, max_rows=2)
        assert text.count("row ") == 2
        assert "2 more rows" in text

    def test_occupancy_percentages(self, tiny_config):
        cache = make_cache(tiny_config, placement="randy")
        region = cache.assign_application(0, initial_molecules=1)
        molecule = region.rows[0][0]
        for block in range(molecule.n_lines // 2):
            molecule.fill(block)
        text = render_replacement_view(region)
        assert "[ 50%]" in text


class TestTileMap:
    def test_shows_ownership(self, tiny_config):
        cache = make_cache(tiny_config)
        cache.assign_application(0, tile_id=0, initial_molecules=2)
        cache.assign_application(1, tile_id=1, initial_molecules=1)
        text = render_tile_map(cache)
        assert "tile   0: 00.." in text
        assert "tile   1: 1..." in text

    def test_shows_shared_molecules(self, tiny_config):
        cache = make_cache(tiny_config)
        cache.create_shared_region(0, 2)
        text = render_tile_map(cache)
        assert "SS.." in text

    def test_free_count_in_header(self, tiny_config):
        cache = make_cache(tiny_config)
        cache.assign_application(0, initial_molecules=3)
        text = render_tile_map(cache)
        assert "free 5/8" in text


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
