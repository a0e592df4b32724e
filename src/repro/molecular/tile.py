"""Tiles: the physical grouping of molecules behind one read/write port.

32-256 molecules form a tile (paper Figure 2). Every processor is
statically assigned a tile; its requests probe that tile first. The tile
tracks which of its molecules are free and hands them to regions on
allocation requests.
"""

from __future__ import annotations

from repro.common.errors import AllocationError, ConfigError
from repro.molecular.molecule import Molecule


class Tile:
    """A group of molecules sharing one port."""

    __slots__ = (
        "tile_id",
        "cluster_id",
        "molecules",
        "port_accesses",
        "shared_count",
        "failed_count",
        "extra_port_cycles",
    )

    def __init__(
        self,
        tile_id: int,
        cluster_id: int,
        molecule_count: int,
        lines_per_molecule: int,
        first_molecule_id: int = 0,
    ) -> None:
        if molecule_count < 1:
            raise ConfigError("a tile needs at least one molecule")
        self.tile_id = tile_id
        self.cluster_id = cluster_id
        self.molecules: list[Molecule] = [
            Molecule(first_molecule_id + i, tile_id, cluster_id, lines_per_molecule)
            for i in range(molecule_count)
        ]
        #: Accesses that arrived at this tile (port pressure diagnostic).
        self.port_accesses = 0
        #: Number of molecules with the shared bit set (probed by every
        #: request on this tile regardless of ASID).
        self.shared_count = 0
        #: Molecules retired by hard faults. Their ASID comparators are
        #: powered off, so searches compare against ``len(molecules) -
        #: failed_count`` comparators on this tile.
        self.failed_count = 0
        #: Extra cycles every access through this tile's port pays when
        #: the tile is degraded by a fault (0 for a healthy tile).
        self.extra_port_cycles = 0

    # ---------------------------------------------------------- free pool

    def free_molecules(self) -> list[Molecule]:
        return [m for m in self.molecules if m.is_free]

    @property
    def free_count(self) -> int:
        return sum(1 for m in self.molecules if m.is_free)

    def owned_count(self, asid: int) -> int:
        return sum(1 for m in self.molecules if m.asid == asid and not m.shared)

    def take_free(self, count: int, asid: int, shared: bool = False) -> list[Molecule]:
        """Configure up to ``count`` free molecules for ``asid``.

        Returns the molecules actually granted (possibly fewer than asked —
        running dry is a normal condition for the resize engine).
        """
        if count < 0:
            raise AllocationError(f"cannot allocate {count} molecules")
        granted: list[Molecule] = []
        for molecule in self.molecules:
            if len(granted) >= count:
                break
            if molecule.is_free:
                molecule.configure(asid, shared)
                if shared:
                    self.shared_count += 1
                granted.append(molecule)
        return granted

    def release(self, molecule: Molecule) -> list[tuple[int, bool]]:
        """Return a molecule to the free pool; returns flushed lines."""
        if molecule.tile_id != self.tile_id:
            raise AllocationError(
                f"molecule {molecule.molecule_id} belongs to tile "
                f"{molecule.tile_id}, not {self.tile_id}"
            )
        if molecule.shared:
            self.shared_count -= 1
        return molecule.release()

    def retire(self, molecule: Molecule) -> list[tuple[int, bool]]:
        """Permanently remove a molecule from service (hard fault).

        Flushes and unconfigures like :meth:`release`, then marks the
        molecule failed so it can never be reconfigured or counted free.
        Returns the flushed ``(block, dirty)`` pairs.
        """
        flushed = self.release(molecule)
        molecule.failed = True
        self.failed_count += 1
        return flushed

    @property
    def active_count(self) -> int:
        """Molecules still in service (configured or free, not failed)."""
        return len(self.molecules) - self.failed_count

    @property
    def comparator_count(self) -> int:
        """ASID comparators that fire for a request probing this tile.

        Failed molecules power their comparators off, so this is the
        per-tile comparison cost both the scalar and session access
        paths charge per probe of the tile.
        """
        return len(self.molecules) - self.failed_count

    def occupancy_by_asid(self) -> dict[int, int]:
        """Molecule counts per owning ASID (diagnostics)."""
        counts: dict[int, int] = {}
        for molecule in self.molecules:
            if not molecule.is_free:
                counts[molecule.asid] = counts.get(molecule.asid, 0) + 1
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"Tile(id={self.tile_id}, cluster={self.cluster_id}, "
            f"molecules={len(self.molecules)}, free={self.free_count})"
        )
