"""The stage-instrumented twin of the access session.

:class:`ProfiledAccessEngine` is what ``MolecularCache.access_session``
(and so ``access_many``) builds when a :class:`~repro.prof.profiler.
HotPathProfiler` is attached and enabled. It subclasses the ordinary
:class:`~repro.molecular.engine.AccessEngine` and changes *when things
are measured*, never *what happens*:

* :meth:`access` counts every reference and, with the profiler's
  countdown, routes one per ``sample_every`` through
  :meth:`access_profiled`; the rest go through the parent's unmodified
  session body.
* :meth:`stream` is the parent's session loop with the same countdown
  inlined, inside a wall-clock measurement — so a profiled
  ``access_many`` runs exactly the path an unprofiled one does, plus
  one sampled access per ``sample_every``.
* :meth:`access_profiled` is a copy of the parent's ``access`` body with
  ``perf_counter`` captures at the stage boundaries — the one deliberate
  duplicate of the access rule, kept honest by
  ``tests/test_prof_profiler.py``'s byte-identical-stats checks.

Stage boundaries (see DESIGN.md section 10): **probe** is the presence-
map lookup (home tile + shared region); **remote-search** is the Ulmo
remote-walk bookkeeping; **replace** is victim choice plus install;
**writeback** is the evicted-line processing and writeback accounting;
**account** is everything else (context refresh, counters, telemetry).
The resize-trigger interval is deliberately left out of every sampled
stage: fires are timed exactly by the resizer, and folding a
milliseconds-long fire into one sampled access would wreck the shares.

The equivalence argument is the engine's own: scalar, session and
profiled paths all produce byte-identical stats, resize logs and
telemetry streams, so *which* path any single reference takes is
unobservable outside timing.
"""

from __future__ import annotations

from time import perf_counter

from repro.common.clock import tick
from repro.common.refs import iter_refs
from repro.common.types import AccessResult
from repro.molecular.engine import AccessEngine
from repro.prof.profiler import HotPathProfiler


class ProfiledAccessEngine(AccessEngine):
    """An :class:`AccessEngine` that feeds an attached profiler."""

    __slots__ = ("profiler",)

    def __init__(self, cache) -> None:
        super().__init__(cache)
        profiler = cache.profiler
        if profiler is None:
            profiler = HotPathProfiler()
        self.profiler = profiler

    # ------------------------------------------------------------ streaming

    def stream(self, blocks, asids=0, writes=False) -> int:
        """The session loop, timed, with the sampling countdown inlined.

        Unsampled references call the parent's session body directly —
        one frame per reference, exactly as unprofiled — rather than
        through :meth:`access`, whose extra frame alone would exceed the
        profiler's overhead budget.
        """
        prof = self.profiler
        t_start = tick()
        n, refs = iter_refs(blocks, asids, writes)
        plain = super().access
        sample_every = prof.sample_every
        countdown = prof.countdown
        try:
            for block, asid, write in refs:
                countdown -= 1
                if countdown:
                    plain(block, asid, write)
                else:
                    countdown = sample_every
                    self.access_profiled(block, asid, write)
        finally:
            prof.countdown = countdown
        prof.refs += n
        prof.add_stream(tick() - t_start)
        return n

    # ------------------------------------------------------------- sessions

    def access(self, block: int, asid: int = 0, write: bool = False) -> bool:
        prof = self.profiler
        prof.refs += 1
        prof.countdown -= 1
        if prof.countdown > 0:
            return AccessEngine.access(self, block, asid, write)
        prof.countdown = prof.sample_every
        return self.access_profiled(block, asid, write)

    # ------------------------------------------------- instrumented access

    def access_profiled(self, block: int, asid: int = 0, write: bool = False) -> bool:
        """One access with stage timing; side effects identical to
        :meth:`AccessEngine.access`."""
        if not self.fast_latency:
            return AccessEngine.access(self, block, asid, write)
        pc = perf_counter
        t0 = pc()
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
        probe_s = remote_s = replace_s = writeback_s = 0.0
        t1 = pc()
        account_s = t1 - t0

        molecule = ctx.region_lookup(block)
        if molecule is None and ctx.shared_lookup is not None:
            molecule = ctx.shared_lookup(block)
        t2 = pc()
        probe_s = t2 - t1

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
            t3 = pc()
            remote_s = t3 - t2
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
            t4 = pc()
            account_s += t4 - t3
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
            t3 = pc()
            remote_s = t3 - t2
            target, row_index = self.placement.choose(
                region, block, self.lines_per_molecule, self.rng
            )
            evicted = region.install(block, target, row_index, write)
            t4 = pc()
            replace_s = t4 - t3
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
            t5 = pc()
            writeback_s = t5 - t4
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
            t6 = pc()
            account_s += t6 - t5

        # The resize-trigger interval is excluded from every stage: fires
        # are timed exactly by the resizer (see module docstring).
        if self.advisor is not None:
            self.advisor.observe(region, block)
        if self.per_app:
            if ctx.managed and region.total_accesses >= region.next_resize_at:
                self.resizer._resize_one(region, tot.accesses)
        elif tot.accesses >= self.resizer.next_global_at:
            self.resizer._resize_all(tot.accesses)
        t7 = pc()

        if bus is not None:
            if remote_tiles:
                result.extra["remote_tiles_searched"] = remote_tiles
            bus.record_access(asid, block, write, result, remote_tiles)
            account_s += pc() - t7

        self.profiler.add_sample(
            asid, probe_s, remote_s, replace_s, writeback_s, account_s
        )
        return hit
