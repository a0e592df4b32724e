"""Full-state invariant auditor for the cache simulators.

Every redundant structure the simulator maintains for speed is a
conservation law this module checks. The invariants are named, so a
failure pinpoints *which* bookkeeping drifted, and the mutation self-tests
(``tests/test_audit.py``) prove each corruption class is detected by the
invariant that owns it:

========================  ====================================================
slug                      law
========================  ====================================================
``presence-map``          presence map ≡ union of molecule ``lines`` (both
                          directions: every mapped block is resident in its
                          molecule, every resident line is mapped back)
``probe-equivalence``     ``lookup(b) is lookup_by_probe(b)`` on a sample of
                          resident and absent blocks
``replacement-view``      rows are non-empty and no molecule appears twice
``tile-index``            ``molecules_by_tile`` / ``_molecule_count`` match
                          the replacement view (absorbs the old
                          ``Resizer.check_consistency``)
``row-misses``            ``len(row_misses) == len(rows)`` and entries >= 0
``asid-gating``           every region molecule is owned by the region's ASID
                          (exclusive) or carries the shared bit (shared)
``free-list``             tile free lists are disjoint from all regions, free
                          molecules hold no lines, configured molecules
                          belong to exactly one region
``shared-bookkeeping``    ``tile.shared_count`` matches the shared-bit
                          molecules, which all live in the tile's shared
                          region
``fault-retirement``      retired molecules hold no lines, belong to no
                          region, are unconfigured, and
                          ``tile.failed_count`` / ``molecules_retired``
                          match the failed molecules
``region-counters``       window counts never exceed cumulative ones, and
                          molecule integrals are non-negative
``placement-recency``     LRU-Direct touch maps only reference resident
                          blocks (so they cannot grow without bound)
``placement-rows``        a Random region holds at most one row (Random
                          shares Randy's ``choose``, which draws from the
                          row the block hashes to: row 0 of one)
``stats-conservation``    over each ASID's lifetime counters: hits <=
                          accesses; ``lines_fetched`` == Σ region misses ×
                          line multiplier; ``writebacks_to_memory`` == dirty
                          evictions + withdrawal flushes; (set-associative)
                          writebacks <= evictions <= misses, and each ASID
                          owns at most as many resident lines as its
                          misses filled
``set-structure``         (set-associative) set sizes <= associativity, every
                          block sits in the set its index selects
========================  ====================================================

Totals, windows, post-warm-up counts and region counts are views over
one raw counter set per ASID (:mod:`repro.caches.stats`), so no check
compares a view with the counters it is computed from. The physical laws
are checked on the lifetime counters, which no reset touches, so every
check holds across a warm-up ``stats.reset()``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import islice

from repro.caches.setassoc import line_owner
from repro.caches.stats import summed
from repro.common.errors import ConfigError, SimulationError

#: Environment variable carrying the audit cadence to drivers (including
#: campaign worker processes, which inherit it): accesses between audits,
#: 0/empty = disabled.
AUDIT_ENV = "REPRO_AUDIT"

#: Cadence used by ``--audit`` when no value is given.
DEFAULT_CADENCE = 100_000

#: Blocks sampled per region for the explicit probe-equivalence check.
_PROBE_SAMPLE = 32


@dataclass(frozen=True, slots=True)
class AuditViolation:
    """One broken invariant: the law's slug and a human-readable account."""

    invariant: str
    message: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.message}"


@dataclass(slots=True)
class AuditOutcome:
    """Result of one full-state audit."""

    accesses: int
    checks: int
    violations: list[AuditViolation]

    @property
    def ok(self) -> bool:
        return not self.violations


class AuditError(SimulationError):
    """Raised when :func:`assert_invariants` finds violations.

    Subclasses :class:`~repro.common.errors.SimulationError` so existing
    callers of ``Resizer.check_consistency`` (which now delegates here)
    keep working unchanged.
    """

    def __init__(self, outcome: AuditOutcome) -> None:
        self.outcome = outcome
        shown = "; ".join(str(v) for v in outcome.violations[:6])
        more = len(outcome.violations) - 6
        if more > 0:
            shown += f"; ... {more} more"
        super().__init__(
            f"{len(outcome.violations)} invariant violation(s) at "
            f"{outcome.accesses} accesses: {shown}"
        )


class _Audit:
    """Violation accumulator shared by the per-cache auditors."""

    __slots__ = ("checks", "violations")

    def __init__(self) -> None:
        self.checks = 0
        self.violations: list[AuditViolation] = []

    def check(self, slug: str, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.violations.append(AuditViolation(slug, message))

    def fail(self, slug: str, message: str) -> None:
        self.violations.append(AuditViolation(slug, message))


# ------------------------------------------------------------- molecular


def _unique_regions(cache) -> list[tuple[object, list[int]]]:
    """(region, serving asids) per distinct region object.

    Shared regions appear once here even though several ASIDs (and the
    ``_shared_regions`` table) alias them; a shared region configured but
    not yet serving any application is included with no ASIDs.
    """
    seen: dict[int, tuple[object, list[int]]] = {}
    for asid, region in cache.regions.items():
        entry = seen.get(id(region))
        if entry is None:
            seen[id(region)] = (region, [asid])
        else:
            entry[1].append(asid)
    for region in cache._shared_regions.values():
        seen.setdefault(id(region), (region, []))
    return list(seen.values())


def _audit_region(audit: _Audit, region, owner: dict[int, object],
                  shared_asid: int) -> None:
    label = f"region asid={region.asid}"

    # Replacement view: non-empty rows, no duplicate molecules.
    in_rows: dict[int, object] = {}
    by_tile: dict[int, int] = {}
    view_ok = True
    for row_index, row in enumerate(region.rows):
        if not row:
            audit.fail("replacement-view", f"{label}: row {row_index} is empty")
            view_ok = False
        for molecule in row:
            if id(molecule) in in_rows:
                audit.fail(
                    "replacement-view",
                    f"{label}: molecule {molecule.molecule_id} appears "
                    f"twice in the replacement view",
                )
                view_ok = False
            in_rows[id(molecule)] = molecule
            by_tile[molecule.tile_id] = by_tile.get(molecule.tile_id, 0) + 1
    audit.check("replacement-view", view_ok, f"{label}: replacement view")

    # Tile index and molecule count agree with the replacement view.
    audit.check(
        "tile-index",
        region.molecules_by_tile == by_tile,
        f"{label}: molecules_by_tile {dict(region.molecules_by_tile)} != "
        f"replacement view {by_tile}",
    )
    audit.check(
        "tile-index",
        region.molecule_count == len(in_rows),
        f"{label}: molecule_count {region.molecule_count} != "
        f"{len(in_rows)} molecules in view",
    )
    if region._tile_order is not None:
        tiles = sorted(by_tile)
        if region.home_tile_id in by_tile:
            tiles.remove(region.home_tile_id)
            tiles.insert(0, region.home_tile_id)
        audit.check(
            "tile-index",
            region._tile_order == tiles,
            f"{label}: cached tile order {region._tile_order} != {tiles}",
        )

    # Row-miss counters parallel the rows.
    audit.check(
        "row-misses",
        len(region.row_misses) == len(region.rows)
        and all(count >= 0 for count in region.row_misses),
        f"{label}: row_misses length {len(region.row_misses)} != "
        f"{len(region.rows)} rows (or negative entry)",
    )

    # ASID gating: exclusive molecules match the region's ASID; shared
    # regions hold shared-bit molecules configured for the sentinel.
    for molecule in in_rows.values():
        if region.asid == shared_asid:
            audit.check(
                "asid-gating",
                molecule.shared and molecule.asid == shared_asid,
                f"{label}: molecule {molecule.molecule_id} "
                f"(asid={molecule.asid}, shared={molecule.shared}) in a "
                f"shared region",
            )
        else:
            audit.check(
                "asid-gating",
                molecule.asid == region.asid and not molecule.shared,
                f"{label}: molecule {molecule.molecule_id} "
                f"(asid={molecule.asid}, shared={molecule.shared}) does "
                f"not match the region ASID",
            )
        previous = owner.setdefault(id(molecule), region)
        if previous is not region:
            audit.fail(
                "free-list",
                f"molecule {molecule.molecule_id} belongs to both region "
                f"asid={previous.asid} and {label}",
            )

    # Presence map ≡ union of molecule lines, both directions.
    presence_ok = True
    for block, molecule in region.presence.items():
        if id(molecule) not in in_rows:
            audit.fail(
                "presence-map",
                f"{label}: presence maps block {block} to molecule "
                f"{molecule.molecule_id} outside the region",
            )
            presence_ok = False
        elif not molecule.probe(block):
            audit.fail(
                "presence-map",
                f"{label}: presence maps block {block} to molecule "
                f"{molecule.molecule_id} which does not hold it",
            )
            presence_ok = False
    for molecule in in_rows.values():
        for block in molecule.resident_blocks():
            if region.presence.get(block) is not molecule:
                audit.fail(
                    "presence-map",
                    f"{label}: block {block} resident in molecule "
                    f"{molecule.molecule_id} is missing from the presence "
                    f"map (or mapped elsewhere)",
                )
                presence_ok = False
    audit.check("presence-map", presence_ok, f"{label}: presence map")

    # Explicit lookup ≡ lookup_by_probe on a bounded sample (the full
    # equivalence already follows from the presence-map check; this pins
    # the public API surface itself, absent blocks included).
    sample = list(islice(region.presence, _PROBE_SAMPLE))
    absent = max(region.presence, default=0) + 1
    sample.append(absent)
    probe_ok = True
    for block in sample:
        if region.lookup(block) is not region.lookup_by_probe(block):
            audit.fail(
                "probe-equivalence",
                f"{label}: lookup({block}) disagrees with lookup_by_probe",
            )
            probe_ok = False
    audit.check("probe-equivalence", probe_ok, f"{label}: probe equivalence")

    # Window counters are a sub-interval of the cumulative ones.
    audit.check(
        "region-counters",
        0 <= region.window_accesses <= region.total_accesses
        and 0 <= region.window_misses <= region.total_misses
        and region.window_misses <= region.window_accesses
        and region.total_misses <= region.total_accesses,
        f"{label}: window counters ({region.window_accesses}/"
        f"{region.window_misses}) exceed totals ({region.total_accesses}/"
        f"{region.total_misses})",
    )


def _audit_tiles(audit: _Audit, cache, owner: dict[int, object]) -> None:
    from repro.molecular.molecule import FREE

    for tile in cache._tiles.values():
        shared_seen = 0
        failed_seen = 0
        shared_region = cache._shared_regions.get(tile.tile_id)
        for molecule in tile.molecules:
            owned = owner.get(id(molecule))
            if molecule.failed:
                # Retired molecules are out of service: no region may hold
                # them, they hold no data, and they are unconfigured (so
                # the probe-equivalence and replacement-view checks above
                # never see them — they appear in no region's views).
                failed_seen += 1
                if owned is not None:
                    audit.fail(
                        "fault-retirement",
                        f"tile {tile.tile_id}: retired molecule "
                        f"{molecule.molecule_id} is attached to region "
                        f"asid={owned.asid}",
                    )
                if molecule.occupancy():
                    audit.fail(
                        "fault-retirement",
                        f"tile {tile.tile_id}: retired molecule "
                        f"{molecule.molecule_id} still holds "
                        f"{molecule.occupancy()} line(s)",
                    )
                if molecule.asid != FREE or molecule.shared:
                    audit.fail(
                        "fault-retirement",
                        f"tile {tile.tile_id}: retired molecule "
                        f"{molecule.molecule_id} is still configured "
                        f"(asid={molecule.asid}, shared={molecule.shared})",
                    )
                continue
            if molecule.is_free:
                if owned is not None:
                    audit.fail(
                        "free-list",
                        f"tile {tile.tile_id}: free molecule "
                        f"{molecule.molecule_id} is attached to region "
                        f"asid={owned.asid}",
                    )
                if molecule.occupancy():
                    audit.fail(
                        "free-list",
                        f"tile {tile.tile_id}: free molecule "
                        f"{molecule.molecule_id} still holds "
                        f"{molecule.occupancy()} line(s)",
                    )
            elif owned is None:
                audit.fail(
                    "free-list",
                    f"tile {tile.tile_id}: configured molecule "
                    f"{molecule.molecule_id} (asid={molecule.asid}) is "
                    f"attached to no region",
                )
            if molecule.shared:
                shared_seen += 1
                if shared_region is None or owned is not shared_region:
                    audit.fail(
                        "shared-bookkeeping",
                        f"tile {tile.tile_id}: shared molecule "
                        f"{molecule.molecule_id} is not in the tile's "
                        f"shared region",
                    )
        audit.check("free-list", True, f"tile {tile.tile_id}: free list")
        audit.check(
            "shared-bookkeeping",
            tile.shared_count == shared_seen,
            f"tile {tile.tile_id}: shared_count {tile.shared_count} != "
            f"{shared_seen} shared molecules",
        )
        audit.check(
            "fault-retirement",
            tile.failed_count == failed_seen,
            f"tile {tile.tile_id}: failed_count {tile.failed_count} != "
            f"{failed_seen} failed molecules",
        )


def _audit_placement(audit: _Audit, cache,
                     regions: list[tuple[object, list[int]]]) -> None:
    from repro.molecular.placement import LRUDirectPlacement, RandomPlacement

    placement = cache.placement
    if isinstance(placement, RandomPlacement):
        for region, _asids in regions:
            audit.check("placement-rows", len(region.rows) <= 1,
                        f"Random region asid={region.asid} holds "
                        f"{len(region.rows)} rows")
    if not isinstance(placement, LRUDirectPlacement):
        return
    for region, touches in placement._touch.items():
        stale = [block for block in touches if block not in region.presence]
        audit.check(
            "placement-recency",
            not stale,
            f"LRU-Direct touch map for asid={region.asid} references "
            f"{len(stale)} non-resident block(s) (e.g. {stale[:4]}) — "
            f"the map is leaking across evictions",
        )


def _audit_molecular_stats(
    audit: _Audit, cache, regions: list[tuple[object, list[int]]]
) -> None:
    stats = cache.stats
    lifetime = stats.lifetime.values()
    audit.check(
        "stats-conservation",
        all(0 <= c.hits <= c.accesses for c in lifetime),
        "a counter has more hits than accesses",
    )
    expected_fetches = sum(
        r.total_misses * r.line_multiplier for r, _ in regions
    )
    audit.check(
        "stats-conservation",
        stats.lines_fetched == expected_fetches,
        f"lines_fetched {stats.lines_fetched} != Σ region misses × line "
        f"multiplier {expected_fetches}",
    )
    dirty = sum(c.writebacks for c in lifetime)
    audit.check(
        "stats-conservation",
        stats.writebacks_to_memory == dirty + stats.flush_writebacks,
        f"writebacks_to_memory {stats.writebacks_to_memory} != dirty "
        f"evictions {dirty} + withdrawal flushes {stats.flush_writebacks}",
    )
    audit.check(
        "region-counters",
        all(r.molecule_integral >= 0 for r, _ in regions),
        "a region's molecule integral went negative",
    )

    # Retirement accounting: the cumulative retired counter is never
    # reset, and neither is a failed flag.
    failed_total = sum(t.failed_count for t in cache._tiles.values())
    audit.check(
        "fault-retirement",
        stats.molecules_retired == failed_total,
        f"molecules_retired {stats.molecules_retired} != {failed_total} "
        f"failed molecules across tiles",
    )
    audit.check(
        "fault-retirement",
        all(r.pending_repair >= 0 for r, _ in regions),
        "a region's pending_repair went negative",
    )


def _audit_molecular(cache) -> AuditOutcome:
    from repro.molecular.cache import SHARED_ASID

    audit = _Audit()
    regions = _unique_regions(cache)
    owner: dict[int, object] = {}
    for region, _asids in regions:
        _audit_region(audit, region, owner, SHARED_ASID)
    _audit_tiles(audit, cache, owner)
    _audit_placement(audit, cache, regions)
    _audit_molecular_stats(audit, cache, regions)
    return AuditOutcome(
        accesses=cache.stats.total.accesses,
        checks=audit.checks,
        violations=audit.violations,
    )


# -------------------------------------------------------- set-associative


def _audit_setassoc(cache) -> AuditOutcome:
    audit = _Audit()
    stats = cache.stats
    mask = cache.num_sets - 1
    resident = 0
    owned: dict[int, int] = {}
    structure_ok = True
    for index, cache_set in enumerate(cache.iter_sets()):
        if len(cache_set) > cache.associativity:
            audit.fail(
                "set-structure",
                f"set {index} holds {len(cache_set)} lines > "
                f"{cache.associativity}-way",
            )
            structure_ok = False
        for block, state in cache_set.items():
            resident += 1
            owner = line_owner(state)
            owned[owner] = owned.get(owner, 0) + 1
            if block & mask != index:
                audit.fail(
                    "set-structure",
                    f"block {block} indexed into set {index}, expected "
                    f"{block & mask}",
                )
                structure_ok = False
    audit.check("set-structure", structure_ok, "set structure")
    audit.check(
        "set-structure",
        resident <= cache.num_sets * cache.associativity,
        f"{resident} resident lines exceed capacity",
    )

    # Every resident line was filled by a miss of its owner, which is
    # also the ASID each eviction and writeback is charged to.
    lifetime = summed(stats.lifetime)
    audit.check(
        "stats-conservation",
        lifetime.hits <= lifetime.accesses
        and lifetime.writebacks <= lifetime.evictions <= lifetime.misses,
        f"lifetime totals out of order: hits={lifetime.hits} "
        f"accesses={lifetime.accesses} evictions={lifetime.evictions} "
        f"writebacks={lifetime.writebacks} misses={lifetime.misses}",
    )
    for owner, lines in sorted(owned.items()):
        counters = stats.lifetime.get(owner)
        filled = 0 if counters is None else counters.misses
        audit.check(
            "stats-conservation",
            lines <= filled,
            f"asid {owner} owns {lines} resident lines but only {filled} "
            f"of its misses ever filled a line",
        )
    return AuditOutcome(
        accesses=stats.total.accesses,
        checks=audit.checks,
        violations=audit.violations,
    )


# --------------------------------------------------------------- public


def audit_cache(cache) -> AuditOutcome:
    """Run every applicable invariant; returns the outcome (never raises)."""
    if hasattr(cache, "regions") and hasattr(cache, "clusters"):
        return _audit_molecular(cache)
    if hasattr(cache, "iter_sets"):
        return _audit_setassoc(cache)
    raise ConfigError(
        f"cannot audit a {type(cache).__name__}: expected a molecular or "
        f"set-associative cache"
    )


def assert_invariants(cache) -> AuditOutcome:
    """:func:`audit_cache`, raising :class:`AuditError` on any violation."""
    outcome = audit_cache(cache)
    if not outcome.ok:
        raise AuditError(outcome)
    return outcome


def audit_and_emit(cache) -> AuditOutcome:
    """Audit, publish an ``AuditReport`` telemetry event, then raise on
    violations (drivers call this at their audit cadence)."""
    outcome = audit_cache(cache)
    bus = getattr(cache, "telemetry", None)
    if bus is not None:
        from repro.telemetry.events import AuditReport

        bus.emit(
            AuditReport(
                accesses=outcome.accesses,
                checks=outcome.checks,
                ok=outcome.ok,
                violations=[str(v) for v in outcome.violations],
            )
        )
    if not outcome.ok:
        raise AuditError(outcome)
    return outcome


def resolve_cadence(audit_every: int | None) -> int:
    """Normalise a driver's audit cadence; ``None`` consults ``$REPRO_AUDIT``.

    Returns accesses-between-audits, 0 meaning disabled. The environment
    fallback is what lets ``repro sweep --audit`` reach campaign worker
    processes without widening every job payload.
    """
    if audit_every is not None:
        if audit_every < 0:
            raise ConfigError(
                f"audit cadence cannot be negative, got {audit_every}"
            )
        return audit_every
    raw = os.environ.get(AUDIT_ENV, "").strip()
    if not raw:
        return 0
    try:
        cadence = int(raw)
    except ValueError:
        raise ConfigError(
            f"{AUDIT_ENV} must be an integer cadence, got {raw!r}"
        ) from None
    return max(cadence, 0)
