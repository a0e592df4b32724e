"""The molecule: a small direct-mapped caching unit with ASID gating.

Molecules are the paper's "low power building blocks": 8-32 KB
direct-mapped arrays with 64-byte lines. Each molecule carries a
*configured ASID* and a *shared bit* (Figure 3): an access proceeds past
the ASID-comparison stage only if the requestor's ASID matches, or if the
shared bit is set. The simulator models that gate at the
:class:`~repro.molecular.cache.MolecularCache` level (it decides which
molecules are probed and charges their energy); the molecule itself is a
plain direct-mapped tag/data array.
"""

from __future__ import annotations

from repro.common.errors import ConfigError, SimulationError

#: ASID value marking an unconfigured (free) molecule.
FREE = -1


class Molecule:
    """One direct-mapped caching unit.

    Lines are tracked by full block number (``lines[i]`` holds the block
    resident at index ``i``, or ``None``), which makes the direct-mapped
    tag check a single comparison: block ``b`` is present iff
    ``lines[b % n_lines] == b``.
    """

    __slots__ = (
        "molecule_id",
        "tile_id",
        "cluster_id",
        "n_lines",
        "index_mask",
        "lines",
        "dirty",
        "asid",
        "shared",
        "replacement_misses",
        "fills",
        "failed",
    )

    def __init__(
        self, molecule_id: int, tile_id: int, cluster_id: int, n_lines: int
    ) -> None:
        if n_lines < 2 or n_lines & (n_lines - 1):
            raise ConfigError(f"n_lines must be a power of two >= 2, got {n_lines}")
        self.molecule_id = molecule_id
        self.tile_id = tile_id
        self.cluster_id = cluster_id
        self.n_lines = n_lines
        #: ``n_lines`` is a power of two, so the direct-mapped index is a
        #: mask rather than a modulo — this is the hottest arithmetic in
        #: the scalar access path.
        self.index_mask = n_lines - 1
        self.lines: list[int | None] = [None] * n_lines
        #: One dirty byte per line (0/1). Reads that escape this class go
        #: through ``bool()`` so stats and reports only ever see bools.
        self.dirty = bytearray(n_lines)
        self.asid: int = FREE
        self.shared: bool = False
        #: Misses that caused a replacement in this molecule — the
        #: per-molecule counter Algorithm 1 uses with Random placement.
        self.replacement_misses: int = 0
        self.fills: int = 0
        #: Hard-fault flag: a failed molecule is permanently out of
        #: service — excluded from the free pool, never reconfigured,
        #: and its ASID comparator no longer fires.
        self.failed: bool = False

    # ------------------------------------------------------------ ownership

    @property
    def is_free(self) -> bool:
        return self.asid == FREE and not self.shared and not self.failed

    def configure(self, asid: int, shared: bool = False) -> None:
        """Claim a free molecule for an application (or the shared pool)."""
        if not self.is_free:
            raise SimulationError(
                f"molecule {self.molecule_id} already configured for asid {self.asid}"
            )
        if asid < 0 and not shared:
            raise ConfigError(f"invalid ASID {asid}")
        self.asid = asid
        self.shared = shared

    def release(self) -> list[tuple[int, bool]]:
        """Flush and unconfigure; returns the flushed ``(block, dirty)`` pairs."""
        flushed = self.flush()
        self.asid = FREE
        self.shared = False
        self.replacement_misses = 0
        return flushed

    # ----------------------------------------------------------- tag array

    def index_of(self, block: int) -> int:
        return block & self.index_mask

    def probe(self, block: int) -> bool:
        """Direct-mapped lookup: tag match at the block's index."""
        return self.lines[block & self.index_mask] == block

    def fill(self, block: int, dirty: bool = False) -> tuple[int, bool] | None:
        """Install ``block``; returns the evicted ``(block, dirty)`` or None."""
        index = block & self.index_mask
        previous = self.lines[index]
        evicted = None
        if previous is not None and previous != block:
            evicted = (previous, bool(self.dirty[index]))
        self.lines[index] = block
        # Any truthy flag (numpy scalars included) stores as one byte.
        self.dirty[index] = 1 if dirty else 0
        self.fills += 1
        return evicted

    def mark_dirty(self, block: int) -> None:
        index = block & self.index_mask
        if self.lines[index] != block:
            raise SimulationError(
                f"mark_dirty for block {block} not resident in molecule "
                f"{self.molecule_id}"
            )
        self.dirty[index] = True

    def invalidate(self, block: int) -> bool:
        """Drop one block if resident; returns its dirty bit (False if absent)."""
        index = block & self.index_mask
        if self.lines[index] != block:
            return False
        was_dirty = bool(self.dirty[index])
        self.lines[index] = None
        self.dirty[index] = False
        return was_dirty

    def flush(self) -> list[tuple[int, bool]]:
        """Drop every resident line; returns ``(block, dirty)`` pairs."""
        flushed = [
            (block, bool(self.dirty[index]))
            for index, block in enumerate(self.lines)
            if block is not None
        ]
        self.lines = [None] * self.n_lines
        self.dirty = bytearray(self.n_lines)
        return flushed

    def resident_blocks(self) -> list[int]:
        return [block for block in self.lines if block is not None]

    def occupancy(self) -> int:
        return sum(1 for block in self.lines if block is not None)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        if self.failed:
            owner = "failed"
        else:
            owner = "free" if self.is_free else ("shared" if self.shared else self.asid)
        return (
            f"Molecule(id={self.molecule_id}, tile={self.tile_id}, "
            f"owner={owner}, occ={self.occupancy()}/{self.n_lines})"
        )
