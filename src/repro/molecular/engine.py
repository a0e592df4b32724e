"""The access engine: the molecular cache's one body of the access rule.

Most of what an access needs is per-*region* state that only changes at
resize, migration or shared-region events: the region/tile/shared
dictionary lookups, the probe counts, the remote-search costs and the
latency constants. This module hoists that into an
:class:`AccessContext`, so :meth:`AccessEngine.access` serves one
reference with a presence-map lookup and a few counter bumps.

:meth:`AccessEngine.access` is the only body of the rule. Bulk access
(:meth:`AccessEngine.stream`, behind ``MolecularCache.access_many``) is
a loop over it; ``MolecularCache.access_block`` is one call to it on an
engine whose ``keep_result`` flag has it keep the ``AccessResult`` that
:func:`build_result` assembles; a driver's run schedule
(:mod:`repro.sim.schedule`) times whole calls to it. The rule makes no
telemetry call. It is checked against a stdlib spec that shares no code
with it (:mod:`repro.audit.spec`).

One counter per fact; every read settles (DESIGN.md section 7.1): an
access bumps the accessing ASID's raw (accesses, hits) pair, evictions
and writebacks on dirty victims, and one resize-trigger countdown (a
local hit makes three counter stores). Probes,
ASID comparisons, latency, Ulmo searches and fetched lines are constant
per context: a context counts outcomes (remote hits per stop tile; local
hits and misses follow from the raw pair) and
:meth:`AccessContext.settle` charges them in bulk when it is replaced
and before any reader looks (:func:`~repro.molecular.stats.settled`).
Only ``access_block`` constructs an ``AccessResult``.

Contexts live in ``stats.contexts``, one per ASID, shared by every
session of the cache, and are valid while ``region.version`` (bumped on
every molecule grant/withdrawal and home-tile migration) and the cache's
``_ctx_epoch`` (bumped by region assignment, shared-region creation,
migration, faults and every resize round) are unchanged. Every access
checks both, so a session stays correct across structural events made
between (or, through resize fires, during) its calls. A stale context
still settles at its own constants: it served exactly the accesses
counted since its last settle.
"""

from __future__ import annotations

from repro.common.errors import UnknownASIDError
from repro.common.refs import iter_refs
from repro.common.types import AccessResult
from repro.molecular.placement import PlacementPolicy


class AccessContext:
    """Per-(ASID, region state) constants plus outcome counts.

    Built on an ASID's first access and rebuilt after a resize,
    migration, fault or shared-region event. All fields are plain
    attributes so the hot loop reads them without method calls.
    """

    __slots__ = (
        "region",
        "region_version",
        "cache_epoch",
        "stats",
        "counters",
        "seen_accesses",
        "seen_hits",
        "home_tile_id",
        "region_lookup",
        "shared_lookup",
        "shared_region",
        "remote_stop",
        "remote_hits",
        "remote_full",
        "ulmo_stats",
        "managed",
        "local_probes",
        "home_comparisons",
        "hit_cycles",
        "dispatch_cycles",
        "per_tile_cycles",
        "miss_probes_remote",
        "miss_comparisons",
        "miss_cycles",
        "line_multiplier",
    )

    def settle(self) -> None:
        """Charge the accesses counted since the last settle."""
        counters = self.counters
        accesses = counters.accesses - self.seen_accesses
        if not accesses:
            return
        hits = counters.hits - self.seen_hits
        misses = accesses - hits
        self.seen_accesses = counters.accesses
        self.seen_hits = counters.hits
        remote = probes = comparisons = cycles = 0
        remote_hits = self.remote_hits
        for tile_id, count in remote_hits.items():
            if count:
                remote_hits[tile_id] = 0
                tiles, tile_probes, tile_comparisons, extra = self.remote_stop[tile_id]
                remote += count
                probes += count * tile_probes
                comparisons += count * tile_comparisons
                cycles += count * (
                    self.dispatch_cycles + tiles * self.per_tile_cycles + extra
                )
        self.stats.charge(
            probed_local=accesses * self.local_probes,
            probed_remote=probes + misses * self.miss_probes_remote,
            comparisons=comparisons
            + hits * self.home_comparisons
            + misses * self.miss_comparisons,
            fetched=misses * self.line_multiplier,
            cycles=cycles + hits * self.hit_cycles + misses * self.miss_cycles,
        )
        self.ulmo_stats.charge(
            tile_misses=remote + (misses if self.remote_full[0] else 0),
            remote_hits=remote,
            global_misses=misses,
        )


class AccessEngine:
    """Serves references through a molecular cache via cached contexts.

    Build one per :meth:`~repro.molecular.cache.MolecularCache.
    access_many` call, or hold one for a whole run as a per-access
    *session* (:class:`~repro.sim.cmp.CMPRunner` interleaves applications
    one reference at a time through it). Contexts live on the cache's
    stats, so any number of sessions may be live at once.
    """

    __slots__ = ("cache", "stats", "placement", "rng", "resizer",
                 "advisor", "per_app", "on_hit_live", "on_evict_live",
                 "lines_per_molecule", "contexts", "keep_result", "result")

    def __init__(self, cache) -> None:
        self.cache = cache
        self.stats = cache.stats
        self.placement = cache.placement
        self.rng = cache.rng
        self.resizer = cache.resizer
        self.advisor = cache.resizer.advisor
        self.per_app = cache.resizer.policy.trigger == "per_app_adaptive"
        self.on_hit_live = (
            type(cache.placement).on_hit is not PlacementPolicy.on_hit
        )
        self.on_evict_live = (
            type(cache.placement).on_evict is not PlacementPolicy.on_evict
        )
        self.lines_per_molecule = cache.config.lines_per_molecule
        self.contexts: dict[int, AccessContext] = cache.stats.contexts
        #: Set on ``access_block``'s engine: each access then leaves its
        #: ``AccessResult`` in :attr:`result`.
        self.keep_result = False
        self.result: AccessResult | None = None

    # ------------------------------------------------------------- contexts

    def _build_context(self, asid: int) -> AccessContext:
        cache = self.cache
        region = cache.regions.get(asid)
        if region is None:
            raise UnknownASIDError(asid)
        ctx = AccessContext()
        ctx.region = region
        ctx.region_version = region.version
        ctx.cache_epoch = cache._ctx_epoch
        ctx.stats = self.stats
        counters = ctx.counters = self.stats.counters(asid)
        ctx.seen_accesses = counters.accesses
        ctx.seen_hits = counters.hits
        home_id = region.home_tile_id
        ctx.home_tile_id = home_id
        home_tile = cache._tiles[home_id]

        shared = cache._shared_regions.get(home_id)
        local_probes = region.molecules_by_tile.get(home_id, 0)
        if shared is not None and shared is not region:
            local_probes += home_tile.shared_count
            ctx.shared_lookup = shared.presence.get
            ctx.shared_region = shared
        else:
            ctx.shared_lookup = None
            ctx.shared_region = None
        ctx.local_probes = local_probes
        ctx.region_lookup = region.presence.get

        # Remote search tables: cumulative (tiles, probes, comparisons,
        # extra degraded-port cycles) along Ulmo's deterministic order,
        # keyed by the tile the search stops at; the final accumulation is
        # the global-miss full walk (all zero when nothing is remote).
        tiles = probes = comparisons = extra = 0
        stop: dict[int, tuple[int, int, int, int]] = {}
        for tile_id in region.contributing_tiles():
            if tile_id == home_id:
                continue
            tiles += 1
            probes += region.molecules_by_tile[tile_id]
            tile = cache._tiles[tile_id]
            comparisons += tile.comparator_count
            extra += tile.extra_port_cycles
            stop[tile_id] = (tiles, probes, comparisons, extra)
        ctx.remote_stop = stop
        ctx.remote_hits = dict.fromkeys(stop, 0)
        ctx.remote_full = (tiles, probes, comparisons, extra)

        ctx.ulmo_stats = cache.clusters[home_tile.cluster_id].ulmo.stats
        ctx.line_multiplier = region.line_multiplier
        ctx.managed = region.goal is not None

        hit_cycles, memory, dispatch, per_tile = cache.latency_model.constants()
        # A degraded home tile charges its port penalty on every access,
        # so it folds straight into the per-access constants.
        hit_cycles += home_tile.extra_port_cycles
        ctx.hit_cycles = hit_cycles
        ctx.dispatch_cycles = dispatch
        ctx.per_tile_cycles = per_tile
        ctx.home_comparisons = home_tile.comparator_count
        ctx.miss_probes_remote = probes
        ctx.miss_comparisons = comparisons + home_tile.comparator_count
        ctx.miss_cycles = hit_cycles + memory
        if tiles:
            ctx.miss_cycles += dispatch + tiles * per_tile + extra
        return ctx

    def _refresh(self, asid: int) -> AccessContext:
        """Replace the ASID's context, settling the one it supersedes."""
        ctx = self._build_context(asid)
        old = self.contexts.get(asid)
        if old is not None:
            old.settle()
        self.contexts[asid] = ctx
        return ctx

    # ------------------------------------------------------------ streaming

    def stream(self, blocks, asids=0, writes=False) -> int:
        """Simulate a whole reference stream; returns the access count.

        ``blocks`` is a block-number column (list, tuple, 1-D ndarray or
        iterable); ``asids``/``writes`` are parallel columns or scalars
        broadcast to every reference. Bulk access is just a loop over
        :meth:`access`, with array columns converted to plain ints a
        bounded slice at a time (:func:`repro.common.refs.iter_refs`).
        """
        n, refs = iter_refs(blocks, asids, writes)
        access = self.access
        for block, asid, write in refs:
            access(block, asid, write)
        return n

    # ------------------------------------------------------------- sessions

    def access(self, block: int, asid: int = 0, write: bool = False) -> bool:
        """One allocation-free access; returns the hit flag.

        The one body of the access rule: :meth:`stream` loops over it,
        ``access_block`` calls it once, and feedback drivers (schedulers
        interleaving applications reference by reference) call it
        directly. Contexts persist across calls and revalidate against
        the region version and cache epoch on every call.
        """
        ctx = self.contexts.get(asid)
        if (
            ctx is None
            or ctx.region_version != ctx.region.version
            or ctx.cache_epoch != self.cache._ctx_epoch
        ):
            ctx = self._refresh(asid)
        counters = ctx.counters
        region = ctx.region

        molecule = ctx.region_lookup(block)
        if molecule is None and ctx.shared_lookup is not None:
            molecule = ctx.shared_lookup(block)

        if molecule is not None:
            hit = True
            evicted = None
            counters.accesses += 1
            counters.hits += 1
            if molecule.tile_id != ctx.home_tile_id:
                ctx.remote_hits[molecule.tile_id] += 1
            if write:
                molecule.mark_dirty(block)
            if self.on_hit_live:
                # Recency belongs to the serving region (the hit may have
                # come from the tile's shared region).
                if ctx.shared_lookup is not None and ctx.region_lookup(block) is None:
                    self.placement.on_hit(ctx.shared_region, block)
                else:
                    self.placement.on_hit(region, block)
        else:
            hit = False
            # Nothing is counted before the install succeeds, so a
            # placement error leaves the state as it was.
            target, row_index = self.placement.choose(
                region, block, self.lines_per_molecule, self.rng
            )
            evicted = region.install(block, target, row_index, write)
            counters.accesses += 1
            if evicted:
                counters.evictions += len(evicted)
                dirty = 0
                for _b, was_dirty in evicted:
                    if was_dirty:
                        dirty += 1
                if dirty:
                    counters.writebacks += dirty
                    self.stats.writebacks_to_memory += dirty
                if self.on_evict_live:
                    for b, _was_dirty in evicted:
                        self.placement.on_evict(region, b)

        if self.advisor is not None:
            self.advisor.observe(region, block)
        if self.per_app:
            if ctx.managed:
                region.resize_countdown -= 1
                if region.resize_countdown <= 0:
                    self.resizer._resize_one(region, self.stats.total.accesses)
        else:
            resizer = self.resizer
            resizer.global_countdown -= 1
            if resizer.global_countdown <= 0:
                resizer.global_due()

        if self.keep_result:
            self.result = build_result(ctx, molecule, evicted)
        return hit


def build_result(ctx: AccessContext, molecule, evicted) -> AccessResult:
    """The ``AccessResult`` of an access that found ``molecule`` (or, on
    a miss, installed its line evicting ``evicted``)."""
    if molecule is not None:
        remote_tiles = remote_probes = 0
        if molecule.tile_id != ctx.home_tile_id:
            remote_tiles, remote_probes, _c, _e = ctx.remote_stop[molecule.tile_id]
        result = AccessResult(
            hit=True,
            molecules_probed_local=ctx.local_probes,
            molecules_probed_remote=remote_probes,
        )
    else:
        remote_tiles, remote_probes, _c, _e = ctx.remote_full
        result = AccessResult(
            hit=False,
            evicted_block=evicted[0][0] if evicted else None,
            writeback=any(was_dirty for _b, was_dirty in evicted),
            molecules_probed_local=ctx.local_probes,
            molecules_probed_remote=remote_probes,
            lines_filled=ctx.line_multiplier,
        )
    if remote_tiles:
        result.extra["remote_tiles_searched"] = remote_tiles
    return result

