"""The access engine: the molecular cache's one fast access rule.

Every paper artifact is millions of accesses, and the scalar
``access_block`` redoes invariant work on each one: the region/tile/shared
dictionary lookups, the probe-count recomputation, an
:class:`~repro.common.types.AccessResult` allocation (plus its ``extra``
dict), a latency-model call and a resizer hook call. All of that is
per-*region* state that only changes at resize, migration or
shared-region events — so this module hoists it into an immutable
:class:`AccessContext`, and :meth:`AccessEngine.access` serves one
reference with local-variable arithmetic plus the presence-map lookup.

There are exactly two bodies of the access rule: the scalar
``MolecularCache.access_block`` (the readable oracle reference) and
:meth:`AccessEngine.access` (the per-access session). Bulk access
(:meth:`AccessEngine.stream`, behind ``MolecularCache.access_many``) is a
loop over the session; ``repro.prof.engine`` keeps a stage-timed copy of
the session body for sampled profiling.

Equivalence contract
--------------------
The engine is an *optimisation*, never a semantic fork: for any access
sequence the resulting stats dicts, telemetry event streams, resize
decisions and occupancy reports are byte-identical to replaying the same
sequence through the scalar ``MolecularCache.access_block``.
``tests/test_prop_batched.py`` asserts this property over randomized
traces. Concretely:

* every counter the scalar path touches is updated per access (through
  cached references, not method calls), so mid-stream observers — the
  resize trigger, telemetry epoch rollovers, warm-up snapshots — see
  exactly the values they would have seen;
* the resize trigger is inlined (two integer compares) and fires the
  same ``Resizer`` methods at the same access counts;
* when a telemetry bus is attached the engine builds the same
  ``AccessResult`` the scalar path would and feeds
  ``bus.record_access`` per access; with no bus attached no result
  object is ever constructed.

Context invalidation
--------------------
A context is valid while both hold:

* ``region.version`` is unchanged — bumped by
  :meth:`~repro.molecular.region.CacheRegion.invalidate_search_order`
  on every molecule grant/withdrawal and home-tile migration;
* the cache's ``_ctx_epoch`` is unchanged — bumped by region
  assignment, shared-region creation, migration, and by the resizer
  whenever a resize round fires (a global resize can reset stats
  windows of regions whose membership did not change, and an external
  ``force_resize`` must invalidate live sessions the same way).

Every access checks both, so a session stays correct across structural
events made between (or, through resize fires, during) its calls.

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
    """Immutable per-region snapshot of every invariant an access needs.

    Built once per (engine, asid) and reused until a resize, migration
    or shared-region event invalidates it. All fields are plain
    attributes so the hot loop reads them without method calls.
    """

    __slots__ = (
        "asid",
        "region",
        "region_version",
        "cache_epoch",
        "home_tile",
        "home_tile_id",
        "home_comparisons",
        "local_probes",
        "region_lookup",
        "shared_lookup",
        "shared_region",
        "remote_stop",
        "remote_full",
        "has_remote",
        "ulmo_stats",
        "molecule_count",
        "line_multiplier",
        "hit_cycles",
        "miss_cycles",
        "dispatch_cycles",
        "per_tile_cycles",
        "total_counters",
        "window_counters",
        "managed",
    )


class AccessEngine:
    """Serves references through a molecular cache via cached contexts.

    One engine is built per :meth:`~repro.molecular.cache.MolecularCache.
    access_many` call (contexts must not outlive external stats resets),
    or held for the duration of a run as a per-access *session* by
    drivers that interleave applications one reference at a time
    (:class:`~repro.sim.cmp.CMPRunner`). A session assumes the cache's
    stats are not reset behind its back; drivers that need a mid-run
    reset (warm-up) split the stream instead.
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
        self.contexts: dict[int, AccessContext] = {}
        self.fast_latency = type(cache.latency_model).cycles is LatencyModel.cycles

    # ------------------------------------------------------------- contexts

    def _build_context(self, asid: int) -> AccessContext:
        cache = self.cache
        region = cache.regions.get(asid)
        if region is None:
            raise UnknownASIDError(asid)
        ctx = AccessContext()
        ctx.asid = asid
        ctx.region = region
        ctx.region_version = region.version
        ctx.cache_epoch = cache._ctx_epoch
        home_id = region.home_tile_id
        ctx.home_tile_id = home_id
        home_tile = cache._tiles[home_id]
        ctx.home_tile = home_tile
        ctx.home_comparisons = home_tile.comparator_count

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
        # the global-miss full walk.
        tiles = probes = comparisons = extra = 0
        stop: dict[int, tuple[int, int, int, int]] = {}
        contributing = region.contributing_tiles()
        for tile_id in contributing:
            if tile_id == home_id:
                continue
            tiles += 1
            probes += region.molecules_by_tile[tile_id]
            tile = cache._tiles[tile_id]
            comparisons += tile.comparator_count
            extra += tile.extra_port_cycles
            stop[tile_id] = (tiles, probes, comparisons, extra)
        ctx.remote_stop = stop
        ctx.remote_full = (tiles, probes, comparisons, extra)
        ctx.has_remote = bool(contributing) and (
            contributing[0] != home_id or len(contributing) > 1
        )

        ctx.ulmo_stats = cache.clusters[home_tile.cluster_id].ulmo.stats
        ctx.molecule_count = region.molecule_count
        ctx.line_multiplier = region.line_multiplier

        hit_cycles, memory, dispatch, per_tile = cache.latency_model.constants()
        # A degraded home tile charges its port penalty on every access,
        # so it folds straight into the per-access constants.
        hit_cycles += home_tile.extra_port_cycles
        ctx.hit_cycles = hit_cycles
        ctx.miss_cycles = hit_cycles + memory
        ctx.dispatch_cycles = dispatch
        ctx.per_tile_cycles = per_tile

        total_counters, window_counters = self.stats.counters_for(asid)
        ctx.total_counters = total_counters
        ctx.window_counters = window_counters
        ctx.managed = region.goal is not None
        return ctx

    def _context(self, asid: int) -> AccessContext:
        ctx = self.contexts.get(asid)
        if (
            ctx is None
            or ctx.region_version != ctx.region.version
            or ctx.cache_epoch != self.cache._ctx_epoch
        ):
            ctx = self._build_context(asid)
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
            ctx = self._build_context(asid)
            self.contexts[asid] = ctx

        cache = self.cache
        stats = self.stats
        region = ctx.region
        tot = stats.total
        wtot = stats.window_total
        tc = ctx.total_counters
        wc = ctx.window_counters
        local_probes = ctx.local_probes
        bus = cache.telemetry
        ctx.home_tile.port_accesses += 1
        result = None
        remote_tiles = 0

        molecule = ctx.region_lookup(block)
        if molecule is None and ctx.shared_lookup is not None:
            molecule = ctx.shared_lookup(block)

        if molecule is not None:
            hit = True
            if molecule.tile_id != ctx.home_tile_id:
                ulmo_stats = ctx.ulmo_stats
                ulmo_stats.tile_misses += 1
                ulmo_stats.remote_hits += 1
                remote_tiles, remote_probes, comparisons, remote_extra = (
                    ctx.remote_stop[molecule.tile_id]
                )
                stats.molecules_probed_remote += remote_probes
                stats.asid_comparisons += comparisons + ctx.home_comparisons
                stats.latency_cycles += (
                    ctx.hit_cycles
                    + ctx.dispatch_cycles
                    + remote_tiles * ctx.per_tile_cycles
                    + remote_extra
                )
            else:
                remote_probes = 0
                stats.asid_comparisons += ctx.home_comparisons
                stats.latency_cycles += ctx.hit_cycles
            stats.molecules_probed_local += local_probes
            if write:
                molecule.mark_dirty(block)
            if self.on_hit_live:
                # Recency belongs to the serving region (the hit may have
                # come from the tile's shared region).
                if ctx.shared_lookup is not None and ctx.region_lookup(block) is None:
                    self.placement.on_hit(ctx.shared_region, block)
                else:
                    self.placement.on_hit(region, block)
            tot.accesses += 1
            tot.hits += 1
            wtot.accesses += 1
            wtot.hits += 1
            tc.accesses += 1
            tc.hits += 1
            wc.accesses += 1
            wc.hits += 1
            region.window_accesses += 1
            region.total_accesses += 1
            region.molecule_integral += ctx.molecule_count
            if bus is not None:
                result = AccessResult(
                    hit=True,
                    molecules_probed_local=local_probes,
                    molecules_probed_remote=remote_probes,
                )
        else:
            hit = False
            ulmo_stats = ctx.ulmo_stats
            if ctx.has_remote:
                ulmo_stats.tile_misses += 1
                remote_tiles, remote_probes, comparisons, remote_extra = (
                    ctx.remote_full
                )
                stats.molecules_probed_remote += remote_probes
                stats.asid_comparisons += comparisons + ctx.home_comparisons
            else:
                remote_probes = 0
                stats.asid_comparisons += ctx.home_comparisons
            ulmo_stats.global_misses += 1
            # Charged before the placement decision, like the scalar
            # reference — identical partial state if placement raises.
            stats.molecules_probed_local += local_probes
            target, row_index = self.placement.choose(
                region, block, self.lines_per_molecule, self.rng
            )
            evicted = region.install(block, target, row_index, write)
            dirty = 0
            for _b, was_dirty in evicted:
                if was_dirty:
                    dirty += 1
                stats.record_eviction(asid, was_dirty)
            if self.on_evict_live:
                for b, _was_dirty in evicted:
                    self.placement.on_evict(region, b)
            stats.writebacks_to_memory += dirty
            stats.lines_fetched += ctx.line_multiplier
            cycles = ctx.miss_cycles
            if remote_tiles:
                cycles += (
                    ctx.dispatch_cycles
                    + remote_tiles * ctx.per_tile_cycles
                    + remote_extra
                )
            stats.latency_cycles += cycles
            tot.accesses += 1
            wtot.accesses += 1
            tc.accesses += 1
            wc.accesses += 1
            region.window_accesses += 1
            region.window_misses += 1
            region.total_accesses += 1
            region.total_misses += 1
            region.molecule_integral += ctx.molecule_count
            if bus is not None:
                result = AccessResult(
                    hit=False,
                    evicted_block=evicted[0][0] if evicted else None,
                    writeback=dirty > 0,
                    molecules_probed_local=local_probes,
                    molecules_probed_remote=remote_probes,
                    lines_filled=ctx.line_multiplier,
                )

        if self.advisor is not None:
            self.advisor.observe(region, block)
        if self.per_app:
            if ctx.managed and region.total_accesses >= region.next_resize_at:
                self.resizer._resize_one(region, tot.accesses)
        elif tot.accesses >= self.resizer.next_global_at:
            self.resizer._resize_all(tot.accesses)

        if bus is not None:
            if remote_tiles:
                result.extra["remote_tiles_searched"] = remote_tiles
            bus.record_access(asid, block, write, result, remote_tiles)
        return hit
