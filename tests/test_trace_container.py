"""Unit tests for the columnar Trace container."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import ConfigError
from repro.common.types import Access, AccessType
from repro.trace.container import Trace


class TestConstruction:
    def test_scalar_broadcast(self):
        trace = Trace([0, 64, 128], asids=5, writes=True)
        assert len(trace) == 3
        assert set(trace.asids.tolist()) == {5}
        assert all(trace.writes)

    def test_per_reference_columns(self):
        trace = Trace([0, 64], asids=[1, 2], writes=[False, True])
        assert trace.asids.tolist() == [1, 2]
        assert trace.writes.tolist() == [False, True]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            Trace([0, 64], asids=[1])

    def test_multidimensional_rejected(self):
        with pytest.raises(ConfigError):
            Trace(np.zeros((2, 2)))


class TestCompactColumns:
    def test_one_value_columns_are_stored_once(self):
        addresses = np.arange(1_000_000, dtype=np.int64) * 64
        tracemalloc.start()
        try:
            trace = Trace(addresses, asids=3, writes=True)
            allocated, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert allocated < 64 << 10, f"{allocated} B"
        assert (trace.asids == 3).all() and trace.writes.all()

    def test_one_value_columns_behave_as_full_ones(self, tmp_path):
        compact = Trace([0, 64, 128], asids=7, writes=True)
        full = Trace([0, 64, 128], asids=[7, 7, 7], writes=[True] * 3)
        assert compact == full
        assert compact[1:].asids.tolist() == [7, 7]
        assert Trace.concatenate([compact, full]).asids.tolist() == [7] * 6
        compact.save(tmp_path / "trace.npz")
        assert Trace.load(tmp_path / "trace.npz") == full
        for derived in (compact[::2], compact.offset(64), compact.with_asid(2)):
            assert derived.asids.strides == derived.writes.strides == (0,)

    def test_block_column_shifts_per_slice(self):
        trace = Trace([0, 63, 64, 129, 4096])
        column = trace.block_column(64)
        assert (column.ndim, len(column)) == (1, 5)
        assert column.tolist() == [0, 0, 1, 2, 64]
        assert column[1:4].tolist() == [0, 1, 2]
        with pytest.raises(ConfigError):
            trace.block_column(48)


class TestAccessors:
    def test_iteration_yields_accesses(self):
        trace = Trace([0, 64], asids=[1, 2], writes=[False, True])
        records = list(trace)
        assert records == [
            Access(0, 1, AccessType.READ),
            Access(64, 2, AccessType.WRITE),
        ]

    def test_blocks(self):
        trace = Trace([0, 63, 64, 129])
        assert trace.blocks(64).tolist() == [0, 0, 1, 2]

    def test_blocks_rejects_bad_line(self):
        with pytest.raises(ConfigError):
            Trace([0]).blocks(48)

    def test_slicing_returns_trace(self):
        trace = Trace([0, 64, 128], asids=[1, 2, 3])
        head = trace[:2]
        assert isinstance(head, Trace)
        assert head.addresses.tolist() == [0, 64]
        assert head.asids.tolist() == [1, 2]

    def test_integer_index_rejected(self):
        with pytest.raises(ConfigError):
            Trace([0, 64])[0]

    def test_unique_asids(self):
        trace = Trace([0, 64, 128], asids=[3, 1, 3])
        assert trace.unique_asids() == [1, 3]

    def test_footprint(self):
        trace = Trace([0, 8, 64, 64, 128])
        assert trace.footprint_blocks(64) == 3


class TestBlocksProperty:
    """Pin blocks() to integer division across every line size.

    The shift ``addresses >> (bit_length - 1)`` once read
    ``addresses >> bit_length - 1`` — correct only because Python parses
    shifts below subtraction. The property holds regardless of how the
    expression is grouped in future edits.
    """

    @given(
        addresses=st.lists(
            st.integers(min_value=0, max_value=(1 << 62) - 1),
            min_size=1,
            max_size=64,
        ),
        line_exp=st.integers(min_value=0, max_value=20),
    )
    def test_blocks_match_floor_division(self, addresses, line_exp):
        line_bytes = 1 << line_exp
        trace = Trace(addresses)
        expected = [address // line_bytes for address in addresses]
        assert trace.blocks(line_bytes).tolist() == expected

    def test_blocks_all_power_of_two_lines(self):
        addresses = [0, 1, 63, 64, 65, 4095, 4096, (1 << 40) + 17]
        trace = Trace(addresses)
        for exp in range(16):
            line_bytes = 1 << exp
            assert trace.blocks(line_bytes).tolist() == [
                address // line_bytes for address in addresses
            ]


class TestOffsetOverflow:
    def test_offset_overflow_raises(self):
        bounds = np.iinfo(np.int64)
        trace = Trace([0, bounds.max - 10])
        with pytest.raises(ConfigError):
            trace.offset(11)

    def test_offset_underflow_raises(self):
        bounds = np.iinfo(np.int64)
        trace = Trace([bounds.min + 5, 0])
        with pytest.raises(ConfigError):
            trace.offset(-6)

    def test_offset_base_beyond_int64_raises(self):
        trace = Trace([0, 64])
        with pytest.raises(ConfigError):
            trace.offset(1 << 64)
        with pytest.raises(ConfigError):
            trace.offset(-(1 << 64))

    def test_offset_at_the_boundary_is_exact(self):
        bounds = np.iinfo(np.int64)
        trace = Trace([0, 10])
        moved = trace.offset(bounds.max - 10)
        assert moved.addresses.tolist() == [bounds.max - 10, bounds.max]

    def test_offset_empty_trace_accepts_any_base(self):
        empty = Trace(np.empty(0, dtype=np.int64))
        bounds = np.iinfo(np.int64)
        assert len(empty.offset(bounds.max)) == 0


class TestTransforms:
    def test_with_asid(self):
        trace = Trace([0, 64], asids=[1, 2])
        relabelled = trace.with_asid(9)
        assert set(relabelled.asids.tolist()) == {9}
        assert trace.asids.tolist() == [1, 2]  # original untouched

    def test_offset(self):
        trace = Trace([0, 64])
        moved = trace.offset(1 << 20)
        assert moved.addresses.tolist() == [1 << 20, (1 << 20) + 64]

    def test_concatenate(self):
        a = Trace([0], asids=1)
        b = Trace([64], asids=2)
        merged = Trace.concatenate([a, b])
        assert merged.addresses.tolist() == [0, 64]
        assert merged.asids.tolist() == [1, 2]

    def test_concatenate_empty_list(self):
        assert len(Trace.concatenate([])) == 0

    def test_from_accesses_roundtrip(self):
        records = [Access(0, 1), Access(64, 2, AccessType.WRITE)]
        trace = Trace.from_accesses(records)
        assert list(trace) == records

    def test_equality(self):
        assert Trace([0, 64], asids=1) == Trace([0, 64], asids=1)
        assert Trace([0, 64]) != Trace([0, 128])


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        trace = Trace([0, 64, 128], asids=[1, 2, 3], writes=[True, False, True])
        path = tmp_path / "trace.npz"
        trace.save(path)
        assert Trace.load(path) == trace
