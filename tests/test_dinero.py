"""Unit tests for the Dinero din-format IO."""

import pytest

from repro.common.errors import ConfigError
from repro.trace.container import Trace
from repro.trace.dinero import read_dinero, write_dinero


class TestRoundTrip:
    def test_roundtrip_preserves_addresses_and_writes(self, tmp_path):
        trace = Trace([0x1000, 0x2040, 0x3080], writes=[False, True, False])
        path = tmp_path / "t.din"
        write_dinero(trace, path)
        loaded = read_dinero(path, asid=7)
        assert loaded.addresses.tolist() == trace.addresses.tolist()
        assert loaded.writes.tolist() == trace.writes.tolist()
        assert set(loaded.asids.tolist()) == {7}

    def test_file_format(self, tmp_path):
        trace = Trace([0x10], writes=[True])
        path = tmp_path / "t.din"
        write_dinero(trace, path)
        assert path.read_text() == "1 10\n"


class TestReader:
    def test_reads_ifetch_as_read(self, tmp_path):
        path = tmp_path / "t.din"
        path.write_text("2 400\n0 800\n")
        trace = read_dinero(path)
        assert trace.addresses.tolist() == [0x400, 0x800]
        assert trace.writes.tolist() == [False, False]

    def test_skips_blank_and_comment_lines(self, tmp_path):
        path = tmp_path / "t.din"
        path.write_text("# header\n\n0 40\n")
        assert len(read_dinero(path)) == 1

    def test_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "t.din"
        path.write_text("0\n")
        with pytest.raises(ConfigError):
            read_dinero(path)

    def test_rejects_bad_label(self, tmp_path):
        path = tmp_path / "t.din"
        path.write_text("7 40\n")
        with pytest.raises(ConfigError):
            read_dinero(path)

    def test_rejects_non_hex_address(self, tmp_path):
        path = tmp_path / "t.din"
        path.write_text("0 zz\n")
        with pytest.raises(ConfigError):
            read_dinero(path)

    @pytest.mark.parametrize("content, problem", [
        ("0 40\n0 8000000000000000\n", "t.din:2: address 8000000000000000"),
        ("0 40\n0 -10\n", "t.din:2: address -10"),
        (b"0 40\n0 4\xe90\n", "t.din:2: non-ASCII byte"),
    ])
    def test_rejects_out_of_range_and_non_ascii_naming_the_line(
        self, tmp_path, content, problem
    ):
        path = tmp_path / "t.din"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        with pytest.raises(ConfigError, match=problem):
            read_dinero(path)

    def test_largest_address_accepted(self, tmp_path):
        path = tmp_path / "t.din"
        path.write_text("1 7fffffffffffffff\n")
        assert read_dinero(path).addresses.tolist() == [(1 << 63) - 1]
