"""Columnar trace container.

A :class:`Trace` stores one column per attribute (addresses, ASIDs, write
flags) as numpy arrays. Columnar storage keeps multi-million-reference
traces compact and makes interleaving, slicing and block-number conversion
vectorised operations.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from repro.common.errors import ConfigError
from repro.common.types import Access, AccessType


class Trace:
    """An ordered sequence of memory references.

    Parameters
    ----------
    addresses:
        Byte addresses (array-like of ints).
    asids:
        Per-reference ASID array, or a scalar broadcast to every reference.
    writes:
        Per-reference write flags, or a scalar. Defaults to all-reads.
    """

    __slots__ = ("addresses", "asids", "writes", "_derived")

    def __init__(self, addresses, asids=0, writes=False) -> None:
        self._derived: dict = {}
        self.addresses = np.asarray(addresses, dtype=np.int64)
        if self.addresses.ndim != 1:
            raise ConfigError("trace addresses must be one-dimensional")
        n = len(self.addresses)
        if np.isscalar(asids):
            self.asids = np.full(n, asids, dtype=np.int32)
        else:
            self.asids = np.asarray(asids, dtype=np.int32)
        if np.isscalar(writes) or isinstance(writes, bool):
            self.writes = np.full(n, bool(writes), dtype=np.bool_)
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
        """Block numbers at the given line size (vectorised, uncached).

        Always equal to ``addresses // line_bytes`` for non-negative
        addresses — the shift amount is parenthesised so it cannot be
        re-associated with the shift by a careless edit (``a >> b - 1``
        only means ``a >> (b - 1)`` by precedence accident).
        """
        if line_bytes <= 0 or line_bytes & (line_bytes - 1):
            raise ConfigError(f"line size must be a power of two, got {line_bytes}")
        return self.addresses >> (int(line_bytes).bit_length() - 1)

    def block_column(self, line_bytes: int = 64) -> np.ndarray:
        """Block-number column, lazily materialised and cached per line size.

        Drivers stream the same trace through many cache configurations;
        the shift is paid once per line size and the column is then fed
        straight to the vector kernels (``access_many``) without any
        per-element conversion. The cache assumes the column arrays are
        not mutated in place — derived views (``with_asid``, slices,
        ``offset``) return fresh ``Trace`` objects and so get fresh
        caches.
        """
        key = ("blocks", line_bytes)
        cached = self._derived.get(key)
        if cached is None:
            cached = self.blocks(line_bytes)
            self._derived[key] = cached
        return cached

    def block_list(self, line_bytes: int = 64) -> list[int]:
        """Block numbers as a plain-int list (converted per call).

        Only the ndarray column (:meth:`block_column`) is cached; scalar
        consumers that want plain ints for a Python loop pay one
        ``.tolist()`` per call instead of keeping a duplicate list copy
        alive for the lifetime of the trace. At ~40 B per reference the
        list is what ``CMPRunner`` and ``access_many`` avoid: they convert
        the column a slice at a time (:func:`repro.common.refs.iter_refs`).
        """
        return self.block_column(line_bytes).tolist()

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
        return Trace(self.addresses.copy(), asid, self.writes.copy())

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
        return Trace(self.addresses + np.int64(base), self.asids.copy(), self.writes.copy())

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
