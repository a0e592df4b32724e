"""Configuration objects for molecular caches.

:class:`MolecularCacheConfig` fixes the physical organisation (molecule,
tile and cluster geometry — Table 3 of the paper); :class:`ResizePolicy`
fixes the behaviour of the resizing engine (section 3.4 / Algorithm 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.bitops import is_power_of_two
from repro.common.errors import ConfigError

#: Molecule sizes the paper endorses (from Mamidipaka & Dutt's power data).
MOLECULE_SIZE_RANGE = (8 * 1024, 32 * 1024)
#: Molecules per tile the paper endorses.
MOLECULES_PER_TILE_RANGE = (32, 256)
#: Tiles per cluster the paper endorses.
TILES_PER_CLUSTER_RANGE = (4, 8)


@dataclass(frozen=True, slots=True)
class ResizePolicy:
    """Behaviour of the dynamic resizing engine (paper section 3.4).

    Parameters
    ----------
    period:
        Initial resize period, in addresses serviced by the cache. The
        paper determined ~25 000 references experimentally.
    trigger:
        ``"constant"`` — resize every ``period`` references;
        ``"global_adaptive"`` — the period doubles when the overall cache
        miss rate meets the (access-weighted) goal and shrinks to 10 % of
        itself when it does not;
        ``"per_app_adaptive"`` — like global, but each application keeps
        its own period driven by its own miss rate.
    max_allocation:
        The largest number of molecules granted in one resize step ("Do
        not allocate more than the maximum allowed in one chunk").
    min_molecules:
        A partition is never shrunk below this ("Ground Zero" floor).
    initial_fraction_of_tile:
        Default initial allocation: this fraction of a tile's molecules
        ("each partition is provided with half the number of molecules
        contained in a tile in the beginning").
    panic_miss_rate:
        Algorithm 1's first branch: above this windowed miss rate the
        partition immediately grows by ``max_allocation`` (which is first
        clamped down to the previous grant).
    grow_when_worsening:
        Algorithm 1 grows via the linear model only while the miss rate is
        *improving* (``miss rate < last miss rate``). Setting this flag
        relaxes that condition — an ablation the resize benches exercise.
    period_floor / period_cap:
        Clamp for the adaptive period.
    min_window_refs:
        A partition whose resize window saw fewer references than this is
        left untouched (its miss-rate estimate would be noise).
    withdraw_margin:
        Hysteresis on the withdraw branch: molecules are taken back only
        while ``miss rate < goal * withdraw_margin``. The paper withdraws
        whenever the miss rate is below goal, which ping-pongs partitions
        across the goal boundary (withdraw overshoots, and Algorithm 1 only
        re-grows while the miss rate is *improving*); a margin below 1.0
        keeps converged partitions stable. Set to 1.0 for the paper's
        literal rule.
    advisor:
        ``"linear"`` — Algorithm 1's linear size/miss model (the paper's
        scheme); ``"stack"`` — the future-work reuse-distance advisor
        with cold-miss compensation (:mod:`repro.molecular.advisor`).
    mechanism:
        How capacity changes are *applied* once Algorithm 1 has decided
        (DESIGN.md section 13). ``"flush"`` — the paper's behaviour:
        withdrawn molecules are flushed whole (dirty lines written back,
        clean lines dropped). ``"chash"`` — consistent-hashing remap
        (:mod:`repro.molecular.chash`): resident lines of a withdrawn
        molecule move onto the survivors' hash-ring slices, and grown
        molecules pull in only the resident blocks whose ring slice
        moved, so a resize transfers data instead of discarding it.
    """

    period: int = 25_000
    trigger: str = "global_adaptive"
    max_allocation: int = 16
    min_molecules: int = 2
    initial_fraction_of_tile: float = 0.5
    panic_miss_rate: float = 0.5
    grow_when_worsening: bool = False
    period_floor: int = 2_500
    period_cap: int = 400_000
    min_window_refs: int = 64
    withdraw_margin: float = 0.8
    advisor: str = "linear"
    mechanism: str = "flush"

    def __post_init__(self) -> None:
        if self.trigger not in ("constant", "global_adaptive", "per_app_adaptive"):
            raise ConfigError(
                f"unknown resize trigger {self.trigger!r}; expected constant, "
                "global_adaptive or per_app_adaptive"
            )
        if self.period < 1:
            raise ConfigError("resize period must be positive")
        if self.max_allocation < 1:
            raise ConfigError("max_allocation must be >= 1")
        if self.min_molecules < 1:
            raise ConfigError("min_molecules must be >= 1")
        if not 0.0 < self.initial_fraction_of_tile <= 1.0:
            raise ConfigError("initial_fraction_of_tile must be in (0, 1]")
        if not 0.0 < self.panic_miss_rate <= 1.0:
            raise ConfigError("panic_miss_rate must be in (0, 1]")
        if self.period_floor < 1 or self.period_cap < self.period_floor:
            raise ConfigError("need 1 <= period_floor <= period_cap")
        if not 0.0 < self.withdraw_margin <= 1.0:
            raise ConfigError("withdraw_margin must be in (0, 1]")
        if self.advisor not in ("linear", "stack"):
            raise ConfigError(
                f"unknown resize advisor {self.advisor!r}; expected "
                "'linear' or 'stack'"
            )
        if self.mechanism not in ("flush", "chash"):
            raise ConfigError(
                f"unknown resize mechanism {self.mechanism!r}; expected "
                "'flush' or 'chash'"
            )


@dataclass(frozen=True, slots=True)
class MolecularCacheConfig:
    """Physical organisation of a molecular cache.

    The defaults are the paper's Table 3 configuration: 8 KB molecules
    with 64 B lines, 64 molecules per 512 KB tile, 4 tiles per cluster,
    4 clusters — an 8 MB cache.

    Set ``strict=False`` to allow geometries outside the ranges the paper
    endorses (useful for small unit-test caches).
    """

    molecule_bytes: int = 8 * 1024
    line_bytes: int = 64
    molecules_per_tile: int = 64
    tiles_per_cluster: int = 4
    clusters: int = 4
    placement: str = "randy"
    rng_seed: int = 0xC0FFEE
    miss_penalty_cycles: int = 200
    strict: bool = True

    def __post_init__(self) -> None:
        if not is_power_of_two(self.molecule_bytes):
            raise ConfigError("molecule size must be a power of two")
        if not is_power_of_two(self.line_bytes):
            raise ConfigError("line size must be a power of two")
        if self.line_bytes >= self.molecule_bytes:
            raise ConfigError("molecule must hold more than one line")
        if self.molecules_per_tile < 1 or self.tiles_per_cluster < 1 or self.clusters < 1:
            raise ConfigError("tile/cluster geometry must be positive")
        if self.strict:
            lo, hi = MOLECULE_SIZE_RANGE
            if not lo <= self.molecule_bytes <= hi:
                raise ConfigError(
                    f"molecule size {self.molecule_bytes} outside the paper's "
                    f"{lo}-{hi} B range (pass strict=False to override)"
                )
            lo, hi = MOLECULES_PER_TILE_RANGE
            if not lo <= self.molecules_per_tile <= hi:
                raise ConfigError(
                    f"{self.molecules_per_tile} molecules/tile outside the "
                    f"paper's {lo}-{hi} range (pass strict=False to override)"
                )
            lo, hi = TILES_PER_CLUSTER_RANGE
            if not lo <= self.tiles_per_cluster <= hi:
                raise ConfigError(
                    f"{self.tiles_per_cluster} tiles/cluster outside the "
                    f"paper's {lo}-{hi} range (pass strict=False to override)"
                )

    # ------------------------------------------------------------ geometry

    @property
    def lines_per_molecule(self) -> int:
        return self.molecule_bytes // self.line_bytes

    @property
    def tile_bytes(self) -> int:
        return self.molecule_bytes * self.molecules_per_tile

    @property
    def cluster_bytes(self) -> int:
        return self.tile_bytes * self.tiles_per_cluster

    @property
    def total_bytes(self) -> int:
        return self.cluster_bytes * self.clusters

    @property
    def total_tiles(self) -> int:
        return self.tiles_per_cluster * self.clusters

    @property
    def total_molecules(self) -> int:
        return self.molecules_per_tile * self.total_tiles

    @classmethod
    def for_total_size(
        cls,
        total_bytes: int,
        clusters: int = 1,
        tiles_per_cluster: int = 4,
        molecule_bytes: int = 8 * 1024,
        **kwargs,
    ) -> "MolecularCacheConfig":
        """Build the geometry for a target total capacity.

        Used by the Figure 5 sweep: e.g. 1 MB with one 4-tile cluster
        gives 256 KB tiles of 32 molecules.
        """
        if clusters < 1 or tiles_per_cluster < 1:
            raise ConfigError(
                f"tile/cluster geometry must be positive, got {clusters} "
                f"cluster(s) of {tiles_per_cluster} tile(s)"
            )
        tile_bytes = total_bytes // (clusters * tiles_per_cluster)
        if tile_bytes * clusters * tiles_per_cluster != total_bytes:
            raise ConfigError(
                f"{total_bytes} B does not divide into {clusters} clusters "
                f"of {tiles_per_cluster} tiles"
            )
        if tile_bytes % molecule_bytes:
            raise ConfigError(
                f"tile size {tile_bytes} is not a multiple of the molecule "
                f"size {molecule_bytes}"
            )
        return cls(
            molecule_bytes=molecule_bytes,
            molecules_per_tile=tile_bytes // molecule_bytes,
            tiles_per_cluster=tiles_per_cluster,
            clusters=clusters,
            **kwargs,
        )

    def table3_summary(self) -> dict:
        """The Table 3 row for this configuration."""
        return {
            "total_cache_size": self.total_bytes,
            "molecule_size": self.molecule_bytes,
            "tile_size": self.tile_bytes,
            "tile_clusters": self.clusters,
            "tiles_per_cluster": self.tiles_per_cluster,
            "read_write_ports": f"1 per tile cluster ({self.clusters} total)",
            "associativity": "adaptive",
        }
