"""Tile clusters and the Ulmo tile controller.

4-8 tiles form a tile cluster; each cluster has one controller, *Ulmo*
("Unlimited Molecules"), which handles tile misses — searching the other
tiles of the cluster that contribute molecules to the requesting region —
plus molecule allocation across tiles and (in hardware) inter-cluster
coherence traffic. A region never spans clusters: when a cluster is out of
free molecules, growth simply stalls, which is the behaviour behind the
paper's "threshold size" observation in Figure 5.
"""

from __future__ import annotations

from repro.common.errors import ConfigError
from repro.molecular.molecule import Molecule
from repro.molecular.stats import settled
from repro.molecular.tile import Tile


class UlmoStats:
    """Activity counters of one Ulmo controller.

    The search counters are settled like the cache's probe charges:
    reading one first settles ``owner`` (the cache's
    :class:`~repro.molecular.stats.MolecularStats`).
    """

    __slots__ = ("_tile_misses", "_remote_hits", "_global_misses",
                 "allocations", "allocation_shortfalls", "owner")

    tile_misses = settled("_tile_misses")
    remote_hits = settled("_remote_hits")
    global_misses = settled("_global_misses")

    def __init__(self) -> None:
        self._tile_misses = self._remote_hits = self._global_misses = 0
        self.allocations = 0
        self.allocation_shortfalls = 0
        self.owner = None

    def settle(self) -> None:
        if self.owner is not None:
            self.owner.settle()

    def charge(self, tile_misses: int, remote_hits: int, global_misses: int) -> None:
        """Add one settlement's searches (without settling again)."""
        self._tile_misses += tile_misses
        self._remote_hits += remote_hits
        self._global_misses += global_misses


class Ulmo:
    """The per-cluster controller (global miss handler + allocator); the
    access engine charges its searches (:mod:`repro.molecular.engine`)."""

    __slots__ = ("cluster", "stats")

    def __init__(self, cluster: "TileCluster") -> None:
        self.cluster = cluster
        self.stats = UlmoStats()

    # ---------------------------------------------------------- allocation

    def allocate(
        self, asid: int, count: int, home_tile_id: int
    ) -> list[Molecule]:
        """Grant up to ``count`` free molecules, preferring the home tile.

        "The additional molecules required for increasing the size of the
        partition can be either obtained from the tile in which the cache
        region is being currently hosted or from other tiles in the
        tile-cluster."
        """
        granted: list[Molecule] = []
        ordered = sorted(
            self.cluster.tiles, key=lambda t: (t.tile_id != home_tile_id, t.tile_id)
        )
        for tile in ordered:
            if len(granted) >= count:
                break
            granted.extend(tile.take_free(count - len(granted), asid))
        self.stats.allocations += len(granted)
        if len(granted) < count:
            self.stats.allocation_shortfalls += 1
        return granted


class TileCluster:
    """A group of tiles managed by one Ulmo."""

    __slots__ = ("cluster_id", "tiles", "ulmo", "_tiles_by_id")

    def __init__(
        self,
        cluster_id: int,
        tile_count: int,
        molecules_per_tile: int,
        lines_per_molecule: int,
        first_tile_id: int = 0,
        first_molecule_id: int = 0,
    ) -> None:
        if tile_count < 1:
            raise ConfigError("a cluster needs at least one tile")
        self.cluster_id = cluster_id
        self.tiles: list[Tile] = []
        molecule_id = first_molecule_id
        for i in range(tile_count):
            tile = Tile(
                tile_id=first_tile_id + i,
                cluster_id=cluster_id,
                molecule_count=molecules_per_tile,
                lines_per_molecule=lines_per_molecule,
                first_molecule_id=molecule_id,
            )
            molecule_id += molecules_per_tile
            self.tiles.append(tile)
        self.ulmo = Ulmo(self)
        self._tiles_by_id = {tile.tile_id: tile for tile in self.tiles}

    def tile(self, tile_id: int) -> Tile:
        try:
            return self._tiles_by_id[tile_id]
        except KeyError:
            raise ConfigError(
                f"tile {tile_id} is not in cluster {self.cluster_id}"
            ) from None

    @property
    def free_count(self) -> int:
        return sum(tile.free_count for tile in self.tiles)

    @property
    def molecule_count(self) -> int:
        return sum(len(tile.molecules) for tile in self.tiles)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"TileCluster(id={self.cluster_id}, tiles={len(self.tiles)}, "
            f"free={self.free_count}/{self.molecule_count})"
        )
