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
remote-hit outcome count; **replace** is victim choice plus install;
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
from repro.molecular.engine import AccessEngine, publish_access
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
            ctx = self._refresh(asid)
        counters = ctx.counters
        region = ctx.region
        replace_s = writeback_s = 0.0
        t1 = pc()
        account_s = t1 - t0

        molecule = ctx.region_lookup(block)
        if molecule is None and ctx.shared_lookup is not None:
            molecule = ctx.shared_lookup(block)
        t2 = pc()
        probe_s = t2 - t1

        if molecule is not None:
            hit = True
            evicted = None
            if molecule.tile_id != ctx.home_tile_id:
                ctx.remote_hits[molecule.tile_id] += 1
            t3 = pc()
            remote_s = t3 - t2
            counters.accesses += 1
            counters.hits += 1
            if write:
                molecule.mark_dirty(block)
            if self.on_hit_live:
                # Recency belongs to the serving region (the hit may have
                # come from the tile's shared region).
                if ctx.shared_lookup is not None and ctx.region_lookup(block) is None:
                    self.placement.on_hit(ctx.shared_region, block)
                else:
                    self.placement.on_hit(region, block)
            account_s += pc() - t3
        else:
            hit = False
            remote_s = 0.0
            t3 = pc()
            # Nothing is counted before the install succeeds, like the
            # scalar reference: identical state if placement raises.
            target, row_index = self.placement.choose(
                region, block, self.lines_per_molecule, self.rng
            )
            evicted = region.install(block, target, row_index, write)
            t4 = pc()
            replace_s = t4 - t3
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
            writeback_s = pc() - t4

        # The resize-trigger interval is excluded from every stage: fires
        # are timed exactly by the resizer (see module docstring).
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
            t7 = pc()
            publish_access(bus, ctx, asid, block, write, molecule, evicted)
            account_s += pc() - t7

        self.profiler.add_sample(
            asid, probe_s, remote_s, replace_s, writeback_s, account_s
        )
        return hit
