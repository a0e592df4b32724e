"""Access-latency accounting for molecular caches.

The paper notes two timing consequences of the design: the ASID
comparison "would increase the number of cycles consumed by an additional
cycle" (section 3.1), and the hierarchical lookup serialises — the home
tile is searched first, then Ulmo walks the other contributing tiles one
by one (section 3.3). This module holds the cycle cost of each stage; the
access engine folds them into per-region constants, so runs can report
mean hit/miss latency alongside miss rates.

Cycle parameters are deliberately coarse (the reproduction's timing claims
are relative, not absolute); defaults reflect a fast small direct-mapped
array under a ~200 MHz L2 clock domain.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError


@dataclass(frozen=True, slots=True)
class LatencyParameters:
    """Cycle costs of the access-path stages.

    asid_compare_cycles:
        The extra decode stage of Figure 3 (paper: one cycle).
    molecule_access_cycles:
        Parallel probe of a tile's ASID-matching molecules.
    ulmo_dispatch_cycles:
        Tile-miss handling overhead in the controller.
    tile_hop_cycles:
        Interconnect hop + probe of one remote tile (remote tiles are
        searched sequentially).
    memory_cycles:
        Fetch on a global miss.
    """

    asid_compare_cycles: int = 1
    molecule_access_cycles: int = 2
    ulmo_dispatch_cycles: int = 2
    tile_hop_cycles: int = 4
    memory_cycles: int = 200

    def __post_init__(self) -> None:
        for name in (
            "asid_compare_cycles",
            "molecule_access_cycles",
            "ulmo_dispatch_cycles",
            "tile_hop_cycles",
            "memory_cycles",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} cannot be negative")


class LatencyModel:
    """The access path's cycle costs, as the engine charges them."""

    __slots__ = ("params",)

    def __init__(self, params: LatencyParameters | None = None) -> None:
        self.params = params or LatencyParameters()

    def constants(self) -> tuple[int, int, int, int]:
        """``(local_hit, memory, ulmo_dispatch, per_remote_tile)`` cycles.

        An access costs ``local_hit`` (the ASID stage plus one molecule
        access), plus ``ulmo_dispatch + tiles * per_remote_tile`` when
        Ulmo searched ``tiles`` remote tiles, plus ``memory`` on a miss;
        a degraded tile adds its port penalty wherever the access reaches
        it. The access engine folds these into its per-region contexts.
        """
        p = self.params
        return (
            p.asid_compare_cycles + p.molecule_access_cycles,
            p.memory_cycles,
            p.ulmo_dispatch_cycles,
            p.tile_hop_cycles + p.molecule_access_cycles,
        )
