"""Consistent-hashing resize mechanism (DESIGN.md section 13).

The flush-based resizer empties withdrawn molecules whole: every dirty
line is written back and every clean line discarded, so at large region
sizes and high churn the writeback storm dominates resize cost — and the
misses to re-fetch the discarded lines dominate recovery time. The
DRAM-cache resizing literature (arXiv:1602.00722) instead places blocks
with a consistent hash so a capacity change remaps only the proportional
slice of blocks that changed owner.

This module is that mechanism for molecular caches, behind the
:class:`~repro.molecular.resize.ResizeMechanism` interface:

* Each managed region gets a **hash ring** over its molecules
  (:class:`MoleculeRing`): every molecule contributes :data:`VNODES`
  points at ``hash(molecule_id, replica)``, and a replacement unit's key
  (``block // line_multiplier``) is owned by the first point at or after
  its hash. The ring is rebuilt lazily whenever the region's membership
  :attr:`~repro.molecular.region.CacheRegion.version` moved (grants,
  withdrawals, fault retirements).
* **Growing** (and fault repair) attaches molecules exactly as the flush
  backend does, then *migrates* the resident blocks whose ring slice
  moved onto a new molecule — ring construction guarantees no key moves
  between two surviving molecules. A migration
  (:meth:`~repro.molecular.region.CacheRegion.move_block`) keeps the
  dirty bit and costs no memory traffic.
* **Shrinking** detaches the chosen molecule, then re-installs its lines
  onto their new ring owners (:meth:`~repro.molecular.region.
  CacheRegion.adopt_block`) wherever the direct-mapped slot is free;
  only lines that find no slot spill — dirty spills are written back
  (counted in both ``flush_writebacks`` and ``writebacks_to_memory``,
  preserving the auditor's stats-conservation law, plus
  ``resize_spill_writebacks``), clean spills are simply dropped.

Moves and spills go through the region primitives, which keep the
presence map exact, so every access path sees them the way it sees a
flush resize. Remap activity lands in
``resize_blocks_moved`` / ``resize_remap_work`` and is published as
:class:`~repro.telemetry.events.MoleculeRemapped` telemetry.

The hash is a splitmix64 finaliser — pure integer arithmetic, no RNG
state — so every access path (scalar, batched, session, brute)
replays a stream to the identical ring decisions.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.common.errors import SimulationError
from repro.molecular.molecule import Molecule
from repro.molecular.region import CacheRegion
from repro.molecular.resize import ResizeMechanism
from repro.telemetry.events import MoleculeRemapped

#: Virtual nodes per molecule. 32 points keeps the largest/smallest
#: slice ratio within ~2x for the region sizes the paper uses, at a
#: ring-build cost that is negligible next to the resize itself.
VNODES = 32

#: Distinct successor molecules tried for one displaced line before it
#: spills (CRUSH-style bounded probe down the ring). Direct-mapped
#: molecules share the index function, so the line's slot can be busy on
#: its ring owner yet free on the next few — probing a handful of
#: successors converts most would-be spills into on-chip adoptions while
#: keeping remap work bounded.
PROBE_LIMIT = 8

_MASK = (1 << 64) - 1


def mix64(value: int) -> int:
    """splitmix64 finaliser: a deterministic 64-bit integer hash."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK
    return (value ^ (value >> 31)) & _MASK


def ring_points(molecule_id: int, vnodes: int = VNODES) -> list[int]:
    """The ring positions one molecule contributes (``vnodes`` points)."""
    return [mix64((molecule_id << 16) | replica) for replica in range(vnodes)]


class MoleculeRing:
    """A consistent-hash ring over a set of molecules.

    Built from scratch each time membership changes — correctness needs
    only that two rings over the same molecule set are identical, which
    the deterministic point function guarantees.
    """

    __slots__ = ("points", "owners")

    def __init__(self, molecules) -> None:
        pairs: list[tuple[int, Molecule]] = []
        for molecule in molecules:
            for point in ring_points(molecule.molecule_id):
                pairs.append((point, molecule))
        # Point collisions across molecules are possible in principle;
        # the molecule id tiebreak keeps the ring deterministic anyway.
        pairs.sort(key=lambda pair: (pair[0], pair[1].molecule_id))
        self.points = [point for point, _ in pairs]
        self.owners = [molecule for _, molecule in pairs]

    def owner(self, key: int) -> Molecule:
        """The molecule owning ``key``: first point at or after its hash."""
        if not self.points:
            raise SimulationError("consistent-hash ring has no molecules")
        index = bisect_left(self.points, mix64(key))
        if index == len(self.points):
            index = 0
        return self.owners[index]

    def owners_from(self, key: int):
        """Distinct molecules in ring order starting at ``key``'s owner.

        The CRUSH-style candidate sequence: the owner first, then each
        later point's molecule the first time it appears, wrapping round
        the ring. Deterministic for a given membership set.
        """
        if not self.points:
            raise SimulationError("consistent-hash ring has no molecules")
        start = bisect_left(self.points, mix64(key))
        seen: set[int] = set()
        for offset in range(len(self.owners)):
            molecule = self.owners[(start + offset) % len(self.owners)]
            if molecule.molecule_id in seen:
                continue
            seen.add(molecule.molecule_id)
            yield molecule


class ConsistentHashMechanism(ResizeMechanism):
    """CRUSH-style resize backend: migrate remapped blocks, don't flush."""

    name = "chash"

    def __init__(self, resizer) -> None:
        super().__init__(resizer)
        #: asid -> (region membership version, ring) — rebuilt lazily.
        self._rings: dict[int, tuple[int, MoleculeRing]] = {}

    def _ring(self, region: CacheRegion) -> MoleculeRing:
        cached = self._rings.get(region.asid)
        if cached is not None and cached[0] == region.version:
            return cached[1]
        ring = MoleculeRing(region.molecules())
        self._rings[region.asid] = (region.version, ring)
        return ring

    @staticmethod
    def _key(region: CacheRegion, block: int) -> int:
        # Replacement-unit granularity: sibling lines of one unit share a
        # key, so they land on the same molecule (consecutive slots).
        return block // region.line_multiplier

    # -------------------------------------------------------------- hooks

    def _choose_victim(self, region: CacheRegion) -> Molecule:
        # Weighted-ring victim selection: vacate the molecule whose slice
        # holds the least data. Displacement cost is one transfer per
        # resident line plus one memory writeback per dirty line, so the
        # key weighs dirty lines double; the placement policy's
        # remote-first tie-break is preserved.
        def cost(molecule: Molecule) -> tuple:
            resident = 0
            dirty = 0
            for index, block in enumerate(molecule.lines):
                if block is None:
                    continue
                resident += 1
                if molecule.dirty[index]:
                    dirty += 1
            return (
                resident + dirty,
                resident,
                molecule.tile_id == region.home_tile_id,
                molecule.molecule_id,
            )

        candidates = list(region.molecules())
        if not candidates:
            raise SimulationError(f"region asid={region.asid} has no molecules")
        return min(candidates, key=cost)

    def _after_growth(
        self, region: CacheRegion, granted: list, total_accesses: int, action: str
    ) -> None:
        """Migrate resident blocks whose ring slice moved to new molecules."""
        ring = self._ring(region)  # membership version already bumped
        new_ids = {molecule.molecule_id for molecule in granted}
        placement = self.cache.placement
        moved = 0
        considered = 0
        for block, source in sorted(region.presence.items()):
            # Only dirty lines migrate eagerly: a clean line whose slice
            # moved costs nothing to refetch, so it rebalances lazily
            # through natural replacement instead of a resize-time copy.
            if not source.dirty[source.index_of(block)]:
                continue
            considered += 1
            target = ring.owner(self._key(region, block))
            if target.molecule_id not in new_ids:
                continue
            if region.move_block(block, target):
                placement.on_remap(region, block)
                moved += 1
        stats = self.cache.stats
        stats.resize_blocks_moved += moved
        stats.resize_remap_work += considered
        bus = getattr(self.cache, "telemetry", None)
        if bus is not None:
            bus.emit(
                MoleculeRemapped(
                    accesses=total_accesses,
                    asid=region.asid,
                    action=action,
                    count=len(granted),
                    moved=moved,
                    spilled=0,
                    molecules=region.molecule_count,
                )
            )

    def _reclaim(self, region: CacheRegion, molecule) -> tuple[int, int]:
        """Remap a withdrawn molecule's lines onto the survivors.

        Spills (no free slot on the new owner) follow the flush rules:
        dirty lines are written back, clean lines dropped, and the
        placement policy's eviction hook prunes their recency state.
        """
        flushed = region.detach_molecule(molecule)
        tile = self.cache.tile_of(molecule.tile_id)
        tile.release(molecule)
        ring = self._ring(region)  # survivors only: version bumped by detach
        placement = self.cache.placement
        moved = 0
        spilled = 0
        probes = 0
        for block, was_dirty in flushed:
            key = self._key(region, block)
            adopted = False
            for tried, target in enumerate(ring.owners_from(key), start=1):
                probes += 1
                if region.adopt_block(block, target, was_dirty):
                    placement.on_remap(region, block)
                    moved += 1
                    adopted = True
                    break
                if was_dirty:
                    # A dirty line is worth a slot: drop a clean occupant
                    # (writeback-free, like any replacement eviction) to
                    # keep the dirty data on-chip instead of spilling it.
                    dropped = region.drop_clean_line(
                        target, target.index_of(block)
                    )
                    if dropped is not None:
                        placement.on_evict(region, dropped)
                        if region.adopt_block(block, target, was_dirty):
                            placement.on_remap(region, block)
                            moved += 1
                            adopted = True
                            break
                if tried >= PROBE_LIMIT:
                    break
            if not adopted:
                if was_dirty:
                    spilled += 1
                placement.on_evict(region, block)
        stats = self.cache.stats
        stats.writebacks_to_memory += spilled
        stats.flush_writebacks += spilled
        stats.resize_spill_writebacks += spilled
        # All resident lines were displaced (adopted on-chip or spilled);
        # symmetric with the flush backend's accounting, so data-moved
        # comparisons subtract out to "dirty lines adopted instead of
        # written back" minus grow-side migration.
        stats.resize_blocks_moved += len(flushed)
        stats.resize_remap_work += probes
        return spilled, moved

    def _after_withdraw(
        self,
        region: CacheRegion,
        withdrawn: int,
        moved: int,
        writebacks: int,
        total_accesses: int,
    ) -> None:
        bus = getattr(self.cache, "telemetry", None)
        if bus is not None:
            bus.emit(
                MoleculeRemapped(
                    accesses=total_accesses,
                    asid=region.asid,
                    action="withdraw",
                    count=withdrawn,
                    moved=moved,
                    spilled=writebacks,
                    molecules=region.molecule_count,
                )
            )
