"""The access engine: the molecular cache's one fast access rule.

Every paper artifact is millions of accesses, and the scalar
``access_block`` redoes invariant work on each one: the region/tile/shared
dictionary lookups, the probe-count recomputation, an
:class:`~repro.common.types.AccessResult` allocation (plus its ``extra``
dict), a latency-model call and a resizer hook call. All of that is
per-*region* state that only changes at resize, migration or
shared-region events — so this module hoists it into an
:class:`AccessContext`, and :meth:`AccessEngine.access` serves one
reference with a presence-map lookup and a few counter bumps.

There are exactly two bodies of the access rule: the scalar
``MolecularCache.access_block`` (the readable oracle reference) and
:meth:`AccessEngine.access` (the per-access session). Bulk access
(:meth:`AccessEngine.stream`, behind ``MolecularCache.access_many``) is a
loop over the session, and the sampling profiler (``repro.prof.engine``)
times whole calls to it, so no third copy exists.

Equivalence contract: one counter per fact; every read settles
-----------------------------------------------------------------
The engine is an *optimisation*, never a semantic fork: for any access
sequence the resulting stats dicts, telemetry event streams, resize
decisions and occupancy reports are byte-identical to replaying the same
sequence through the scalar ``MolecularCache.access_block``.
``tests/test_prop_batched.py`` asserts this property over randomized
traces. Concretely:

* each fact has one counter, bumped once per event: the accessing ASID's
  raw (accesses, hits) pair (:mod:`repro.caches.stats`), evictions and
  writebacks on dirty victims, and one resize-trigger countdown. With no
  telemetry bus a local hit makes three counter stores;
* every other statistic is a view over those counters (totals, windows,
  post-warm-up counts, the regions' counts and molecule integrals), or a
  charge that is constant for the access context: probes, ASID
  comparisons, latency, Ulmo searches and fetched lines. A context keeps
  outcome counts for those — remote hits per stop tile; local hits and
  misses follow from the raw pair — and :meth:`AccessContext.settle`
  charges them in bulk when the context is replaced and before any
  reader looks (:func:`~repro.molecular.stats.settled`);
* the resize triggers count down on every access and fire the same
  ``Resizer`` methods at the same access counts;
* when a telemetry bus is attached the engine builds the same
  ``AccessResult`` the scalar path would and feeds
  ``bus.record_access`` per access; with no bus attached no result
  object is ever constructed.

Context invalidation
--------------------
Contexts live in ``stats.contexts``, one per ASID, shared by every
session of the cache. A context is valid while both hold:

* ``region.version`` is unchanged — bumped by
  :meth:`~repro.molecular.region.CacheRegion.invalidate_search_order`
  on every molecule grant/withdrawal and home-tile migration;
* the cache's ``_ctx_epoch`` is unchanged — bumped by region
  assignment, shared-region creation, migration, faults, and by the
  resizer whenever a resize round fires.

Every access checks both, so a session stays correct across structural
events made between (or, through resize fires, during) its calls. A
stale context still settles at its own constants: it served exactly the
accesses counted since its last settle.

A custom :class:`~repro.molecular.latency.LatencyModel` subclass (one
that overrides ``cycles``) disables the precomputed cycle constants and
sends every access to the scalar reference path — correctness first.
"""

from __future__ import annotations

from repro.common.errors import UnknownASIDError
from repro.common.refs import iter_refs
from repro.common.types import AccessResult
from repro.molecular.latency import LatencyModel
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
                 "lines_per_molecule", "contexts", "fast_latency")

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
        self.fast_latency = type(cache.latency_model).cycles is LatencyModel.cycles

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

        The engine's single access body: :meth:`stream` loops over it,
        and feedback drivers (schedulers interleaving applications
        reference by reference) call it directly. Contexts persist
        across calls and revalidate against the region version and cache
        epoch on every call.
        """
        if not self.fast_latency:
            return self.cache.access_block(block, asid, write).hit
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
            # Nothing is counted before the install succeeds, like the
            # scalar reference: identical state if placement raises.
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

        bus = self.cache.telemetry
        if bus is not None:
            publish_access(bus, ctx, asid, block, write, molecule, evicted)
        return hit


def publish_access(bus, ctx: AccessContext, asid: int, block: int, write: bool,
             molecule, evicted) -> None:
    """Feed the bus the ``AccessResult`` the scalar path would have built."""
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
    bus.record_access(asid, block, write, result, remote_tiles)
