"""Applying faults to a live molecular cache.

:func:`apply_fault` is the single primitive — the differential oracle
calls it directly (a fault is a structural op, like ``force_resize``),
and :class:`FaultInjector` layers a schedule on top for the trace
drivers. Everything here mutates the cache through the same bookkeeping
paths the resize engine uses, so the full-state auditor can hold the
post-fault cache to the same invariants.

Fault semantics
---------------
``hard``
    The molecule is flushed (dirty lines written back and accounted like
    a withdrawal flush), detached from its owning region — exclusive,
    shared, or the free pool — and permanently retired: it leaves the
    free pool, its ASID comparator stops firing, and it can never be
    reconfigured. An exclusive region notes the loss in
    ``pending_repair``; the resizer re-grows it at its next epoch.
``transient``
    A detected-uncorrectable error in one line: the lowest-indexed
    resident line is dropped in place. Dirty data is *lost* (no
    writeback — there is nothing correct to write), and the next access
    to the block refetches from memory as an ordinary miss.
``degraded``
    The tile's port latency is inflated by ``extra_cycles`` on every
    access that touches the tile (home accesses and remote searches).

Each applied fault bumps the cache's ``_ctx_epoch`` where it can change
what a cached access context precomputed (retirement alters comparator
counts and membership; degradation alters latency constants).
"""

from __future__ import annotations

from repro.common.errors import ConfigError
from repro.faults.spec import FaultPlan, FaultSpec
from repro.telemetry.events import FaultInjected, MoleculeRetired

#: Shared-region owner sentinel (mirrors repro.molecular.cache.SHARED_ASID;
#: re-importing it here would be circular via the telemetry module chain).
_SHARED_ASID = -2


def _find_molecule(cache, molecule_id: int):
    """Resolve a global molecule id against the cache's geometry."""
    per_tile = cache.config.molecules_per_tile
    tile = cache._tiles.get(molecule_id // per_tile)
    if tile is not None:
        molecule = tile.molecules[molecule_id % per_tile]
        if molecule.molecule_id == molecule_id:
            return molecule
    for tile in cache._tiles.values():  # pragma: no cover - non-uniform ids
        for molecule in tile.molecules:
            if molecule.molecule_id == molecule_id:
                return molecule
    raise ConfigError(f"no molecule {molecule_id} in this cache")


def _owner_region(cache, molecule):
    """The region a molecule belongs to (None for the free pool)."""
    if molecule.shared:
        return cache._shared_regions.get(molecule.tile_id)
    if molecule.asid >= 0:
        return cache.regions.get(molecule.asid)
    return None


def _apply_hard(cache, spec: FaultSpec) -> tuple[bool, str]:
    molecule = _find_molecule(cache, spec.target)
    if molecule.failed:
        return False, "already retired"
    tile = cache._tiles[molecule.tile_id]
    owner = _owner_region(cache, molecule)
    if owner is not None and owner.molecule_count <= 1:
        # A region must keep at least one molecule (the same floor the
        # resizer's withdrawals respect): a zero-molecule region cannot
        # serve its application at all. The defective molecule stays in
        # service — degradation is graceful, not total.
        return False, "owning region is at its minimum size"
    owner_asid = _SHARED_ASID if molecule.shared else molecule.asid
    was_shared = molecule.shared
    if owner is not None:
        flushed = owner.detach_molecule(molecule)
    else:
        flushed = molecule.flush()
    tile.retire(molecule)
    dirty = 0
    for block, was_dirty in flushed:
        if was_dirty:
            dirty += 1
        if owner is not None:
            cache.placement.on_evict(owner, block)
    stats = cache.stats
    stats.writebacks_to_memory += dirty
    stats.flush_writebacks += dirty
    stats.molecules_retired += 1
    if owner is not None and not was_shared:
        # Exclusive regions get their lost capacity back from the resizer
        # at its next epoch; shared regions and the free pool do not.
        owner.pending_repair += 1
    cache._ctx_epoch += 1
    bus = cache.telemetry
    if bus is not None:
        bus.emit(
            MoleculeRetired(
                accesses=stats.total.accesses,
                molecule=spec.target,
                tile=tile.tile_id,
                asid=owner_asid,
                shared=was_shared,
                writebacks=dirty,
                molecules=owner.molecule_count if owner is not None else 0,
            )
        )
    if owner is None:
        return True, "retired from the free pool"
    owner_name = "shared region" if was_shared else f"asid {owner_asid}"
    return True, f"retired from {owner_name} ({dirty} writeback(s))"


def _apply_transient(cache, spec: FaultSpec) -> tuple[bool, str]:
    molecule = _find_molecule(cache, spec.target)
    if molecule.failed:
        return False, "molecule already retired"
    blocks = molecule.resident_blocks()
    if not blocks:
        return False, "no resident lines"
    block = blocks[0]  # deterministic victim: lowest line index
    was_dirty = molecule.invalidate(block)
    owner = _owner_region(cache, molecule)
    if owner is not None:
        owner.presence.pop(block, None)
        cache.placement.on_evict(owner, block)
    cache.stats.lines_invalidated += 1
    note = " (dirty data lost)" if was_dirty else ""
    return True, f"block {block} dropped{note}"


def _apply_degraded(cache, spec: FaultSpec) -> tuple[bool, str]:
    tile = cache.tile_of(spec.target)
    if tile.extra_port_cycles == spec.extra_cycles:
        return False, f"port already at +{spec.extra_cycles} cycles"
    tile.extra_port_cycles = spec.extra_cycles
    cache._ctx_epoch += 1
    return True, f"port latency +{spec.extra_cycles} cycles"


_APPLIERS = {
    "hard": _apply_hard,
    "transient": _apply_transient,
    "degraded": _apply_degraded,
}


def apply_fault(cache, spec: FaultSpec) -> bool:
    """Apply one fault now; returns whether it had any effect.

    Counts the injection, mutates the cache, and emits the
    :class:`~repro.telemetry.events.FaultInjected` (and, for an effective
    hard fault, :class:`~repro.telemetry.events.MoleculeRetired`) events
    when a bus is attached.
    """
    applied, detail = _APPLIERS[spec.kind](cache, spec)
    stats = cache.stats
    stats.faults_injected += 1
    bus = cache.telemetry
    if bus is not None:
        bus.emit(
            FaultInjected(
                accesses=stats.total.accesses,
                fault=spec.kind,
                target=spec.target,
                applied=applied,
                detail=detail,
            )
        )
    return applied


class FaultInjector:
    """Fires a :class:`FaultPlan` against a cache as references elapse.

    ``fire_due(issued)`` applies every spec whose ``at`` is <= the number
    of references already issued; drivers call it *before* issuing the
    next reference, so ``at=N`` means "after N references, before the
    N+1st". Specs fire exactly once, in schedule order.
    """

    __slots__ = ("cache", "specs", "_index")

    def __init__(self, cache, plan: FaultPlan) -> None:
        self.cache = cache
        self.specs = plan.specs
        self._index = 0

    @property
    def next_at(self) -> int | None:
        """Firing time of the next pending spec (None when exhausted)."""
        if self._index >= len(self.specs):
            return None
        return self.specs[self._index].at

    @property
    def exhausted(self) -> bool:
        return self._index >= len(self.specs)

    def fire_due(self, issued: int) -> int:
        """Apply every spec due at ``issued`` references; returns the count."""
        fired = 0
        while self._index < len(self.specs) and self.specs[self._index].at <= issued:
            apply_fault(self.cache, self.specs[self._index])
            self._index += 1
            fired += 1
        return fired
