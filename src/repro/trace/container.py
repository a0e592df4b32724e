"""Columnar trace container.

A :class:`Trace` stores one column per attribute (addresses, ASIDs, write
flags) as numpy arrays. Columnar storage keeps multi-million-reference
traces compact and makes interleaving, slicing and block-number conversion
vectorised operations. A column that holds one value (a scalar ASID or
write flag) is stored once, as a read-only zero-stride view, and block
numbers are shifted from the addresses a slice at a time
(:class:`BlockColumn`), so a trace holds only the columns that vary.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from repro.common.errors import ConfigError
from repro.common.types import Access, AccessType


def _line_shift(line_bytes: int) -> int:
    if line_bytes <= 0 or line_bytes & (line_bytes - 1):
        raise ConfigError(f"line size must be a power of two, got {line_bytes}")
    return int(line_bytes).bit_length() - 1


def _copy(column: np.ndarray) -> np.ndarray:
    """A copy of a varying column; a one-value column is a read-only view,
    shared rather than copied out to full length."""
    return column if column.strides == (0,) else column.copy()


class BlockColumn:
    """The block numbers of an address column, shifted as they are read.

    It holds no block array: ``len`` answers from the addresses, a slice
    is another view, and :meth:`tolist` shifts only what the view covers.
    That is the 1-D column :func:`repro.common.refs.iter_refs` converts a
    slice at a time.
    """

    __slots__ = ("addresses", "shift")

    ndim = 1

    def __init__(self, addresses: np.ndarray, shift: int) -> None:
        self.addresses = addresses
        self.shift = shift

    def __len__(self) -> int:
        return len(self.addresses)

    def __getitem__(self, key: slice) -> "BlockColumn":
        return BlockColumn(self.addresses[key], self.shift)

    def tolist(self) -> list[int]:
        return (self.addresses >> self.shift).tolist()


class Trace:
    """An ordered sequence of memory references.

    Parameters
    ----------
    addresses:
        Byte addresses (array-like of ints).
    asids:
        Per-reference ASID array, or a scalar (int32) stored once for
        every reference.
    writes:
        Per-reference write flags, or a scalar stored once. Defaults to
        all-reads.
    """

    __slots__ = ("addresses", "asids", "writes")

    def __init__(self, addresses, asids=0, writes=False) -> None:
        self.addresses = np.asarray(addresses, dtype=np.int64)
        if self.addresses.ndim != 1:
            raise ConfigError("trace addresses must be one-dimensional")
        n = len(self.addresses)
        if np.isscalar(asids):
            bounds = np.iinfo(np.int32)
            if not bounds.min <= asids <= bounds.max:
                raise ConfigError(
                    f"ASID must be in [{bounds.min}, {bounds.max}] (int32), "
                    f"got {asids}"
                )
            self.asids = np.broadcast_to(np.int32(asids), (n,))
        else:
            self.asids = np.asarray(asids, dtype=np.int32)
        if np.isscalar(writes) or isinstance(writes, bool):
            self.writes = np.broadcast_to(np.bool_(writes), (n,))
        else:
            self.writes = np.asarray(writes, dtype=np.bool_)
        if len(self.asids) != n or len(self.writes) != n:
            raise ConfigError(
                f"column lengths differ: {n} addresses, {len(self.asids)} asids, "
                f"{len(self.writes)} writes"
            )

    # ------------------------------------------------------------ basic API

    def __len__(self) -> int:
        return len(self.addresses)

    def __iter__(self) -> Iterator[Access]:
        for address, asid, write in zip(
            self.addresses.tolist(), self.asids.tolist(), self.writes.tolist()
        ):
            yield Access(
                address, asid, AccessType.WRITE if write else AccessType.READ
            )

    def __getitem__(self, key) -> "Trace":
        if isinstance(key, int):
            raise ConfigError("use iteration for single records; slices return Traces")
        return Trace(self.addresses[key], self.asids[key], self.writes[key])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            np.array_equal(self.addresses, other.addresses)
            and np.array_equal(self.asids, other.asids)
            and np.array_equal(self.writes, other.writes)
        )

    def blocks(self, line_bytes: int = 64) -> np.ndarray:
        """Block numbers at the given line size, as a new array.

        Always equal to ``addresses // line_bytes`` for non-negative
        addresses.
        """
        return self.addresses >> _line_shift(line_bytes)

    def block_column(self, line_bytes: int = 64) -> BlockColumn:
        """Block-number column that shifts a slice at a time as it is read.

        Runs stream a trace through many cache configurations; a
        whole-trace block array would be one more int64 column per trace
        and line size. :func:`repro.common.refs.iter_refs` (``access_many``,
        ``CMPRunner``) converts this view like any array column. A bad
        line size is a :class:`ConfigError` here, before any access.
        """
        return BlockColumn(self.addresses, _line_shift(line_bytes))

    def block_list(self, line_bytes: int = 64) -> list[int]:
        """Block numbers as a plain-int list (converted per call).

        At ~40 B per reference the list is what ``CMPRunner`` and
        ``access_many`` avoid: they convert :meth:`block_column` a slice
        at a time.
        """
        return self.blocks(line_bytes).tolist()

    def asid_list(self) -> list[int]:
        """ASID column as a plain-int list (converted per call)."""
        return self.asids.tolist()

    def write_list(self) -> list[bool]:
        """Write-flag column as a plain-bool list (converted per call)."""
        return self.writes.tolist()

    def unique_asids(self) -> list[int]:
        return sorted(int(a) for a in np.unique(self.asids))

    def footprint_blocks(self, line_bytes: int = 64) -> int:
        """Number of distinct blocks touched."""
        return int(np.unique(self.blocks(line_bytes)).size)

    # --------------------------------------------------------- construction

    @classmethod
    def from_accesses(cls, accesses: Iterable[Access]) -> "Trace":
        records = list(accesses)
        return cls(
            [a.address for a in records],
            [a.asid for a in records],
            [a.is_write for a in records],
        )

    @classmethod
    def concatenate(cls, traces: Iterable["Trace"]) -> "Trace":
        traces = list(traces)
        if not traces:
            return cls(np.empty(0, dtype=np.int64))
        return cls(
            np.concatenate([t.addresses for t in traces]),
            np.concatenate([t.asids for t in traces]),
            np.concatenate([t.writes for t in traces]),
        )

    def with_asid(self, asid: int) -> "Trace":
        """Copy of the trace with every reference relabelled to ``asid``."""
        return Trace(self.addresses.copy(), asid, _copy(self.writes))

    def offset(self, base: int) -> "Trace":
        """Copy with ``base`` added to every address (address-space placement).

        Raises :class:`ConfigError` if the shift would overflow the int64
        address column — numpy would otherwise wrap the addresses silently
        and the trace would alias unrelated blocks.
        """
        bounds = np.iinfo(np.int64)
        if not bounds.min <= base <= bounds.max:
            raise ConfigError(
                f"trace offset {base} does not fit in the int64 address column"
            )
        if len(self.addresses):
            low = int(self.addresses.min())
            high = int(self.addresses.max())
            if high + base > bounds.max or low + base < bounds.min:
                raise ConfigError(
                    f"trace offset {base} overflows int64 addresses "
                    f"(range [{low}, {high}])"
                )
        return Trace(self.addresses + np.int64(base), _copy(self.asids), _copy(self.writes))

    # ----------------------------------------------------------- persistence

    def save(self, path: str | Path) -> None:
        """Save as a compressed ``.npz`` archive."""
        np.savez_compressed(
            Path(path), addresses=self.addresses, asids=self.asids, writes=self.writes
        )

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        with np.load(Path(path)) as data:
            return cls(data["addresses"], data["asids"], data["writes"])

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"Trace(n={len(self)}, asids={self.unique_asids()[:8]})"
