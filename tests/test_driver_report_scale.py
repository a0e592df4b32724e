"""Tests for the single-stream driver, report formatting, and REPRO_SCALE."""

import tracemalloc

import numpy as np
import pytest

from repro.caches.setassoc import SetAssociativeCache
from repro.common.errors import ConfigError
from repro.sim.driver import run_trace
from repro.sim.report import format_series, format_table
from repro.sim.scale import scale_factor, scaled
from repro.trace.container import Trace


class TestDriver:
    def test_runs_trace(self):
        cache = SetAssociativeCache(4096, 2)
        stats = run_trace(cache, Trace([0, 0, 64]))
        assert stats.total.accesses == 3
        assert stats.total.hits == 1

    def test_warmup_reset(self):
        cache = SetAssociativeCache(4096, 2)
        stats = run_trace(cache, Trace([0, 0, 0, 0]), warmup_refs=2)
        assert stats.total.accesses == 2
        assert stats.total.hits == 2

    def test_warmup_longer_than_trace_rejected(self):
        cache = SetAssociativeCache(4096, 2)
        with pytest.raises(ConfigError):
            run_trace(cache, Trace([0, 64]), warmup_refs=5)

    def test_warmup_equal_to_trace_rejected(self):
        cache = SetAssociativeCache(4096, 2)
        with pytest.raises(ConfigError, match="smaller than the trace"):
            run_trace(cache, Trace([0, 64]), warmup_refs=2)

    def test_empty_trace_with_zero_warmup_ok(self):
        cache = SetAssociativeCache(4096, 2)
        stats = run_trace(cache, Trace([]), warmup_refs=0)
        assert stats.total.accesses == 0

    def test_bad_line_size_refused_before_any_access(self):
        cache = SetAssociativeCache(4096, 2)
        with pytest.raises(ConfigError, match="power of two"):
            run_trace(cache, Trace([0, 64]), line_bytes=48)
        assert cache.stats.total.accesses == 0

    def test_run_holds_no_block_column(self):
        """Blocks are shifted from the addresses a slice at a time: the
        run peaks far below its 3.2 MB block column."""
        addresses = np.random.default_rng(3).integers(0, 1 << 30, 400_000) * 64
        trace = Trace(addresses, asids=1)
        cache = SetAssociativeCache(64 * 1024, 4)
        tracemalloc.start()
        try:
            stats = run_trace(cache, trace, warmup_refs=1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.total.accesses == 399_000
        assert peak < 2 << 20, f"peak {peak / 2**20:.2f} MB"

    def test_negative_warmup_rejected(self):
        cache = SetAssociativeCache(4096, 2)
        with pytest.raises(ConfigError):
            run_trace(cache, Trace([0]), warmup_refs=-1)


class TestReport:
    def test_format_table_alignment_and_floats(self):
        text = format_table(["name", "value"], [["a", 0.5], ["longer", 1.25]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "0.500" in text and "1.250" in text
        # all rows equal width
        assert len({len(line) for line in lines if line.strip()}) <= 2

    def test_format_table_title(self):
        text = format_table(["h"], [["x"]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_format_series(self):
        text = format_series("size", ["1MB", "2MB"], {"lru": [0.1, 0.2]})
        assert "1MB" in text and "lru" in text and "0.200" in text


class TestScale:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert scale_factor() == 1.0
        assert scaled(100_000) == 100_000

    def test_scaling_applied(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert scaled(100_000) == 50_000

    def test_minimum_floor(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.0001")
        assert scaled(100_000) == 10_000

    def test_bad_value_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "fast")
        with pytest.raises(ConfigError):
            scale_factor()

    def test_nonpositive_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "-1")
        with pytest.raises(ConfigError):
            scale_factor()
