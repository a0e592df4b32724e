"""Molecule-selection (placement) policies: Random, Randy, LRU-Direct.

Replacement in a molecular cache happens in two steps: pick a *molecule*
from the region's replacement view, then install the line at its
direct-mapped index. The policies differ in the first step (paper section
3.3):

* **Random** — the region is a single row; any molecule may receive any
  line. Uses per-*molecule* miss counters for resize decisions.
* **Randy** — the region is a matrix; the row is a hash of the address
  (``(address / molecule_size) mod row_max``) and a random molecule within
  that row receives the line. Uses per-*row* miss counters, which lets the
  resize engine add associativity exactly where the misses are.
* **LRU-Direct** — the paper's future-work suggestion: like Randy, but the
  victim within the row is the molecule whose conflicting occupant was
  least recently touched, instead of a random one.

A policy also decides *where* new molecules are attached and *which*
molecule a withdrawal should take — both driven by the same counters.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.common.errors import ConfigError, SimulationError
from repro.common.rng import DeterministicRNG
from repro.molecular.molecule import Molecule
from repro.molecular.region import CacheRegion


class PlacementPolicy(ABC):
    """Strategy interface for molecule selection and resize placement."""

    name: str = "abstract"

    def choose(
        self,
        region: CacheRegion,
        block: int,
        lines_per_molecule: int,
        rng: DeterministicRNG,
    ) -> tuple[Molecule, int]:
        """Molecule (and its replacement-view row) to receive ``block``.

        Default: a uniformly random molecule of the row the address
        hashes to. That is Randy's rule, and Random's too: a Random
        region is one row, and every block hashes to row 0 of one.
        """
        row_index = region.row_of(block, lines_per_molecule)
        return rng.choice(region.rows[row_index]), row_index

    @abstractmethod
    def add_row_index(self, region: CacheRegion) -> int | None:
        """Row to attach a newly granted molecule to (None = new row)."""

    def initial_row_index(self, region: CacheRegion) -> int | None:
        """Row for molecules of the *initial* allocation.

        Default: every initial molecule opens its own row, giving Randy an
        ``M x 1`` replacement view (maximum row coverage, associativity 1)
        that later additions deepen where the misses are.
        """
        return None

    @abstractmethod
    def choose_withdrawal(self, region: CacheRegion) -> Molecule:
        """Molecule to give up when the region shrinks."""

    def on_hit(self, region: CacheRegion, block: int) -> None:
        """Hook called on every hit (LRU-Direct tracks recency here)."""

    def on_evict(self, region: CacheRegion, block: int) -> None:
        """Hook called when ``block`` leaves ``region`` (replacement
        eviction or withdrawal flush) — LRU-Direct prunes recency state
        here so its timestamp maps stay bounded by residency."""

    def on_remap(self, region: CacheRegion, block: int) -> None:
        """Hook called when ``block`` migrates between molecules during a
        consistent-hashing resize (:mod:`repro.molecular.chash`). The
        block stays resident, so recency state survives; policies that
        key state on the *molecule* rather than the block would resync
        here."""

    def reset_counters(self, region: CacheRegion) -> None:
        """Zero the miss counters after a resize decision."""
        for molecule in region.molecules():
            molecule.replacement_misses = 0
        region.row_misses = [0] * len(region.rows)


def _fewest_misses(region: CacheRegion, molecules: list[Molecule]) -> Molecule:
    """The molecule with the fewest replacement misses. Ties release
    remote molecules first — keeping the region on its home tile
    preserves the cheap local-lookup path."""
    return min(molecules, key=lambda m: (
        m.replacement_misses, m.tile_id == region.home_tile_id, m.molecule_id,
    ))


class RandomPlacement(PlacementPolicy):
    """Single-row region; a uniformly random molecule takes the line."""

    name = "random"

    def add_row_index(self, region: CacheRegion) -> int | None:
        # "All molecules can be visualized as placed one behind the other
        # (i.e. in a single row). Any new addition of molecules simply
        # increases the associativity of the arrangement."
        return 0 if region.rows else None

    # Random keeps the whole region in one row from the start.
    initial_row_index = add_row_index

    def choose_withdrawal(self, region: CacheRegion) -> Molecule:
        # Per-molecule counters: withdraw the molecule with the fewest
        # replacement misses ("it holds the least number of addresses").
        candidates = list(region.molecules())
        if not candidates:
            raise SimulationError(f"region asid={region.asid} has no molecules")
        return _fewest_misses(region, candidates)


class RandyPlacement(PlacementPolicy):
    """Row selected by address hash; random molecule within the row."""

    name = "randy"

    def add_row_index(self, region: CacheRegion) -> int | None:
        # "Molecules are added along the rows with the highest miss count"
        # (plural) — prioritise by *expected misses per molecule* so that a
        # multi-molecule grant spreads over the hot rows instead of piling
        # onto a single argmax row (adding to a row immediately lowers its
        # per-molecule pressure for the next pick within the same grant).
        if not region.rows:
            return None
        return max(
            range(len(region.rows)),
            key=lambda i: region.row_misses[i] / len(region.rows[i]),
        )

    def choose_withdrawal(self, region: CacheRegion) -> Molecule:
        # Per-row counters: shrink the row with the fewest misses. Rows
        # with spare associativity are preferred — taking the last molecule
        # of a row narrows the replacement view (row_max changes remap
        # every row), so that is a last resort.
        if not region.rows:
            raise SimulationError(f"region asid={region.asid} has no molecules")
        order = sorted(
            range(len(region.rows)),
            key=lambda i: (region.row_misses[i], -len(region.rows[i])),
        )
        chosen = next((i for i in order if len(region.rows[i]) > 1), order[0])
        return _fewest_misses(region, region.rows[chosen])


class LRUDirectPlacement(RandyPlacement):
    """Randy's row hash with LRU victim selection inside the row.

    The paper's future-work replacement scheme: track the last touch time
    of every resident block and evict the row member whose conflicting
    occupant is oldest (empty slots win immediately). The bookkeeping is a
    timestamp map per region, updated from the hit path. It is keyed by
    the region, not its ASID: every shared region has the same ASID.
    """

    name = "lru_direct"

    def __init__(self) -> None:
        self._touch: dict[CacheRegion, dict[int, int]] = {}
        self._clock = 0

    def _touches(self, region: CacheRegion) -> dict[int, int]:
        return self._touch.setdefault(region, {})

    def on_hit(self, region: CacheRegion, block: int) -> None:
        self._clock += 1
        self._touches(region)[block] = self._clock

    def on_evict(self, region: CacheRegion, block: int) -> None:
        # A superseded dirty copy appears in the eviction list but the
        # block is immediately re-fetched into the target molecule — it
        # is still resident, so its timestamp must survive.
        if block in region.presence:
            return
        touches = self._touch.get(region)
        if touches is not None:
            touches.pop(block, None)

    def choose(
        self,
        region: CacheRegion,
        block: int,
        lines_per_molecule: int,
        rng: DeterministicRNG,
    ) -> tuple[Molecule, int]:
        row_index = region.row_of(block, lines_per_molecule)
        row = region.rows[row_index]
        touches = self._touches(region)
        index = block % lines_per_molecule
        best: Molecule | None = None
        best_age = None
        for molecule in row:
            occupant = molecule.lines[index]
            if occupant is None:
                return molecule, row_index
            age = touches.get(occupant, 0)
            if best_age is None or age < best_age:
                best, best_age = molecule, age
        if best is None:  # pragma: no cover - row is never empty
            raise SimulationError("empty replacement-view row")
        return best, row_index


_POLICIES = {
    "random": RandomPlacement,
    "randy": RandyPlacement,
    "lru_direct": LRUDirectPlacement,
}


def make_placement_policy(name: str) -> PlacementPolicy:
    """Build a placement policy by name (``random``/``randy``/``lru_direct``)."""
    try:
        return _POLICIES[name.lower()]()
    except KeyError:
        raise ConfigError(
            f"unknown placement policy {name!r}; expected one of {sorted(_POLICIES)}"
        ) from None
