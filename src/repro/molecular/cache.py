"""The molecular cache front end.

Ties the pieces together: tiles and clusters (physical organisation),
regions (partitions), placement policies (Random/Randy/LRU-Direct), the
resize engine (Algorithm 1), hierarchical lookup with probe-energy
accounting, and the shared-bit molecules of Figure 3.

Access path for a reference from application ``a`` (home tile ``T``):

1. every molecule of ``T`` runs the ASID comparison (one extra cycle, and
   comparator energy — counted in ``stats.asid_comparisons``);
2. the ASID-matching molecules of ``T`` (plus any shared-bit molecules)
   are probed — ``stats.molecules_probed_local``;
3. on a tile miss, the cluster's Ulmo probes the other tiles that
   contribute molecules to ``a``'s region, in order, until the line is
   found — ``stats.molecules_probed_remote``;
4. on a global miss, the placement policy picks a molecule from the
   replacement view and the line (or the region's replacement unit, for a
   larger configured line size) is installed.

The rule has one body, :meth:`repro.molecular.engine.AccessEngine.access`:
``access_block``, ``access_many`` and ``access_session`` all run it.
Functionally, steps 2-3 are served by the region's presence map; the
architectural probe counts are charged as if every search had happened,
which is what the power model integrates (DESIGN.md section 7).
"""

from __future__ import annotations

from repro.caches.stats import AsidCounters
from repro.common.errors import ConfigError, UnknownASIDError
from repro.common.rng import DeterministicRNG, XorShift64
from repro.common.types import Access, AccessResult
from repro.molecular.cluster import TileCluster
from repro.molecular.config import MolecularCacheConfig, ResizePolicy
from repro.molecular.engine import AccessEngine
from repro.molecular.latency import LatencyModel
from repro.molecular.placement import PlacementPolicy, make_placement_policy
from repro.molecular.region import CacheRegion
from repro.molecular.resize import Resizer
from repro.molecular.stats import MolecularStats
from repro.molecular.tile import Tile
from repro.telemetry.events import RunMeta

#: ASID sentinel owning shared-bit regions.
SHARED_ASID = -2

#: Profile-driven initial-allocation hints (paper section 3.4, "Ground
#: Zero": "User-driven/Profile-driven directives such as 'small',
#: 'typical' and 'large' cache usage patterns can be used to suitably
#: modify the initial allocation"), as fractions of a tile.
ALLOCATION_PROFILES = {
    "small": 0.125,
    "typical": 0.5,
    "large": 1.0,
}


class MolecularCache:
    """A cache built as an aggregation of molecules.

    Parameters
    ----------
    config:
        Physical geometry (molecules, tiles, clusters).
    resize_policy:
        Behaviour of the resize engine; defaults to the paper's adaptive
        scheme with a 25 000-reference initial period.
    placement:
        Placement policy instance or name; overrides ``config.placement``.
    rng:
        Deterministic RNG for the random molecule choices.
    latency_model:
        Cycle accounting for the access path; ``None`` keeps the default
        parameters (see :mod:`repro.molecular.latency`).
    """

    def __init__(
        self,
        config: MolecularCacheConfig | None = None,
        resize_policy: ResizePolicy | None = None,
        placement: PlacementPolicy | str | None = None,
        rng: DeterministicRNG | None = None,
        latency_model: LatencyModel | None = None,
    ) -> None:
        self.config = config or MolecularCacheConfig()
        self.resize_policy = resize_policy or ResizePolicy()
        if placement is None:
            placement = self.config.placement
        if isinstance(placement, str):
            placement = make_placement_policy(placement)
        self.placement = placement
        self.rng = rng if rng is not None else XorShift64(self.config.rng_seed)
        self.latency_model = latency_model or LatencyModel()

        self.stats = MolecularStats()
        self.clusters: list[TileCluster] = []
        self._tiles: dict[int, Tile] = {}
        tile_id = 0
        molecule_id = 0
        for cluster_id in range(self.config.clusters):
            cluster = TileCluster(
                cluster_id=cluster_id,
                tile_count=self.config.tiles_per_cluster,
                molecules_per_tile=self.config.molecules_per_tile,
                lines_per_molecule=self.config.lines_per_molecule,
                first_tile_id=tile_id,
                first_molecule_id=molecule_id,
            )
            tile_id += self.config.tiles_per_cluster
            molecule_id += (
                self.config.tiles_per_cluster * self.config.molecules_per_tile
            )
            cluster.ulmo.stats.owner = self.stats
            self.clusters.append(cluster)
            for tile in cluster.tiles:
                self._tiles[tile.tile_id] = tile

        self.regions: dict[int, CacheRegion] = {}
        self._shared_regions: dict[int, CacheRegion] = {}
        self._next_tile_assignment = 0
        self.resizer = Resizer(self, self.resize_policy)
        self._line_shift = (self.config.line_bytes - 1).bit_length()
        #: Attached telemetry bus, or None. Resize rounds, faults and
        #: audits emit to it; the access rule never reads it.
        self.telemetry = None
        #: Context epoch for the access engine's sessions: bumped by every
        #: cache-level event that can invalidate a cached per-region
        #: access context (region assignment, shared-region creation,
        #: migration, resize fires). Per-region membership changes are
        #: tracked separately by ``CacheRegion.version``.
        self._ctx_epoch = 0
        #: ``access_block``'s session, built on its first call.
        self._engine: AccessEngine | None = None

    # ----------------------------------------------------------- telemetry

    def attach_telemetry(self, bus):
        """Attach an event bus and emit the stream's ``RunMeta`` header.

        Re-attaching the same bus is a no-op, so drivers can wire
        telemetry without caring whether the caller already did.
        """
        if bus is self.telemetry:
            return bus
        self.telemetry = bus
        bus.bind_cache(self)
        bus.emit(
            RunMeta(
                total_bytes=self.config.total_bytes,
                clusters=len(self.clusters),
                tiles=len(self._tiles),
                molecules_per_tile=self.config.molecules_per_tile,
                lines_per_molecule=self.config.lines_per_molecule,
                regions={
                    asid: {
                        "goal": region.goal,
                        "home_tile": region.home_tile_id,
                        "molecules": region.molecule_count,
                        "line_multiplier": region.line_multiplier,
                    }
                    for asid, region in sorted(self.regions.items())
                },
            )
        )
        return bus

    def detach_telemetry(self):
        """Detach and return the current bus (None when not attached)."""
        bus, self.telemetry = self.telemetry, None
        if bus is not None:
            bus.bind_cache(None)
        return bus

    # ------------------------------------------------------------ topology

    def tile_of(self, tile_id: int) -> Tile:
        try:
            return self._tiles[tile_id]
        except KeyError:
            raise ConfigError(f"no tile {tile_id} in this cache") from None

    def cluster_of_tile(self, tile_id: int) -> TileCluster:
        return self.clusters[self.tile_of(tile_id).cluster_id]

    @property
    def size_bytes(self) -> int:
        return self.config.total_bytes

    # ------------------------------------------------------- applications

    def assign_application(
        self,
        asid: int,
        goal: float | None = None,
        tile_id: int | None = None,
        line_multiplier: int = 1,
        initial_molecules: int | None = None,
        profile: str | None = None,
    ) -> CacheRegion:
        """Create an exclusive cache region for an application.

        ``tile_id`` defaults to the next tile in round-robin order (the
        paper statically assigns each processor to a tile). The initial
        allocation defaults to ``initial_fraction_of_tile`` of a tile
        (paper: half); a ``profile`` hint (``"small"`` / ``"typical"`` /
        ``"large"``) overrides it with the corresponding tile fraction,
        and an explicit ``initial_molecules`` overrides both. The
        region's line size is fixed at creation (paper section 3.2).
        """
        if asid in self.regions:
            raise ConfigError(f"asid {asid} already has a region")
        if profile is not None:
            if profile not in ALLOCATION_PROFILES:
                raise ConfigError(
                    f"unknown allocation profile {profile!r}; expected one "
                    f"of {sorted(ALLOCATION_PROFILES)}"
                )
            if initial_molecules is None:
                initial_molecules = max(
                    1,
                    int(
                        self.config.molecules_per_tile
                        * ALLOCATION_PROFILES[profile]
                    ),
                )
        if asid < 0:
            raise ConfigError(f"application ASIDs must be >= 0, got {asid}")
        if tile_id is None:
            tile_id = self._next_tile_assignment % len(self._tiles)
            self._next_tile_assignment += 1
        elif tile_id not in self._tiles:
            raise ConfigError(f"no tile {tile_id} in this cache")
        if line_multiplier > self.config.lines_per_molecule:
            raise ConfigError(
                "line multiplier cannot exceed the lines per molecule"
            )

        region = CacheRegion(asid, goal, tile_id, line_multiplier)
        region.served.append(self._lifetime_counters(asid))
        if initial_molecules is None:
            initial_molecules = max(
                1,
                int(
                    self.config.molecules_per_tile
                    * self.resize_policy.initial_fraction_of_tile
                ),
            )
        cluster = self.cluster_of_tile(tile_id)
        granted = cluster.ulmo.allocate(asid, initial_molecules, tile_id)
        if not granted:
            # Fail at assignment time: a region with zero molecules would
            # only surface later, as an opaque SimulationError from the
            # placement policy on the application's first miss.
            raise ConfigError(
                f"cannot assign asid {asid}: an initial allocation of "
                f"{initial_molecules} molecule(s) got none (tile {tile_id} "
                f"has {self.tile_of(tile_id).free_count} free, its cluster "
                f"{cluster.free_count})"
            )
        for molecule in granted:
            region.add_molecule(molecule, self.placement.initial_row_index(region))
        self.regions[asid] = region
        self.resizer.register_region(region)
        self._ctx_epoch += 1
        return region

    def create_shared_region(self, tile_id: int, molecules: int) -> CacheRegion:
        """Configure ``molecules`` of a tile as shared-bit molecules.

        Shared molecules are probed by *every* request arriving at the
        tile, regardless of ASID (Figure 3's multiplexor). Applications
        registered with :meth:`assign_shared_application` place their data
        here.
        """
        if tile_id in self._shared_regions:
            raise ConfigError(f"tile {tile_id} already has a shared region")
        tile = self.tile_of(tile_id)
        granted = tile.take_free(molecules, SHARED_ASID, shared=True)
        if len(granted) < molecules:
            for molecule in granted:
                tile.release(molecule)
            # After the release loop the partial grant is already back in
            # the free pool, so free_count alone is the availability.
            raise ConfigError(
                f"tile {tile_id} has only {tile.free_count} free "
                f"molecules; cannot build a shared region of {molecules}"
            )
        region = CacheRegion(SHARED_ASID, None, tile_id)
        for molecule in granted:
            region.add_molecule(molecule, self.placement.initial_row_index(region))
        self._shared_regions[tile_id] = region
        self._ctx_epoch += 1
        return region

    def assign_shared_application(self, asid: int, tile_id: int) -> CacheRegion:
        """Attach an application to a tile's shared region (no exclusive
        molecules of its own)."""
        if asid in self.regions:
            raise ConfigError(f"asid {asid} already has a region")
        shared = self._shared_regions.get(tile_id)
        if shared is None:
            raise ConfigError(f"tile {tile_id} has no shared region")
        self.regions[asid] = shared
        shared.served.append(self._lifetime_counters(asid))
        self._ctx_epoch += 1
        return shared

    def _lifetime_counters(self, asid: int) -> AsidCounters:
        # Not ``stats.counters``: an assigned application that never
        # accesses stays out of the per-ASID views.
        return self.stats.lifetime.setdefault(asid, AsidCounters())

    def region_of(self, asid: int) -> CacheRegion:
        try:
            return self.regions[asid]
        except KeyError:
            raise UnknownASIDError(asid) from None

    def migrate_application(self, asid: int, new_tile_id: int) -> None:
        """Re-home an application to another tile (a context switch).

        The paper: "The processor-tile assignment can be made non-static
        by allowing the processor-tile mapping to be changed during a
        context-switch." Migration is lazy — the region keeps its
        molecules; lookups simply probe the new home tile first, so lines
        left on the old tile are found through Ulmo (at remote-search
        cost) until natural replacement migrates the working set. The new
        tile must be in the same cluster (regions never span clusters).
        """
        region = self.region_of(asid)
        if region.asid == SHARED_ASID:
            raise ConfigError("shared regions cannot be migrated")
        new_tile = self.tile_of(new_tile_id)
        old_cluster = self.tile_of(region.home_tile_id).cluster_id
        if new_tile.cluster_id != old_cluster:
            raise ConfigError(
                f"cannot migrate asid {asid} across clusters "
                f"({old_cluster} -> {new_tile.cluster_id})"
            )
        region.home_tile_id = new_tile_id
        region.invalidate_search_order()
        self._ctx_epoch += 1

    # -------------------------------------------------------------- access

    def access(self, access: Access) -> AccessResult:
        return self.access_block(
            access.address >> self._line_shift, access.asid, access.is_write
        )

    def access_many(self, blocks, asids=0, writes=False) -> int:
        """Bulk access: stream a whole reference column through a session.

        ``blocks`` is a block-number column (list, tuple, 1-D ndarray or
        iterable); ``asids``/``writes`` are parallel columns or scalars
        broadcast to every reference. Returns the number of accesses
        simulated; cumulative results live in :attr:`stats`, exactly as
        if each reference had gone through :meth:`access_block` (see
        :mod:`repro.molecular.engine`).
        """
        return self.access_session().stream(blocks, asids, writes)

    def access_session(self):
        """An allocation-free per-access session for feedback drivers.

        Returns an :class:`~repro.molecular.engine.AccessEngine` whose
        ``access(block, asid, write) -> bool`` runs the access rule
        without building an ``AccessResult``. Sessions stay valid across
        stats resets.
        """
        return AccessEngine(self)

    def access_block(self, block: int, asid: int = 0, write: bool = False) -> AccessResult:
        """Simulate one reference; returns hit/miss plus probe counts.

        One access through the cache's own session, which keeps the
        access's ``AccessResult``.
        """
        engine = self._engine
        if engine is None:
            engine = self._engine = AccessEngine(self)
            engine.keep_result = True
        engine.access(block, asid, write)
        return engine.result

    # ------------------------------------------------------------ reporting

    def partition_sizes(self) -> dict[int, int]:
        """Current molecule count per application."""
        return {
            asid: region.molecule_count
            for asid, region in sorted(self.regions.items())
        }

    def free_molecules(self) -> int:
        return sum(cluster.free_count for cluster in self.clusters)

    def occupancy_report(self) -> dict:
        """Structured snapshot for diagnostics and examples."""
        return {
            "config": self.config.table3_summary(),
            "partitions": {
                asid: {
                    "molecules": region.molecule_count,
                    "rows": region.row_max,
                    "goal": region.goal,
                    "miss_rate": region.miss_rate,
                    "mean_molecules": region.mean_molecules,
                    "home_tile": region.home_tile_id,
                    "tiles": dict(region.molecules_by_tile),
                }
                for asid, region in sorted(self.regions.items())
            },
            "free_molecules": self.free_molecules(),
            "resize_events": self.stats.resize_events,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"MolecularCache({self.config.total_bytes // (1 << 20)}MB, "
            f"{len(self.regions)} regions, placement={self.placement.name})"
        )
