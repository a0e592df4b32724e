"""The run schedule: everything a driver does between two references.

:class:`~repro.sim.cmp.CMPRunner` and :func:`~repro.sim.driver.run_trace`
issue references and consult one :class:`RunSchedule` only at the
issued-reference counts where something is due. Once ``n`` references
have been issued, :meth:`RunSchedule.reach` does, in this order:

1. the epoch rollover of the attached bus, every ``bus.epoch_refs``
   references;
2. the invariant audit, every ``audit_every`` references;
3. the warm-up action (a stats snapshot or reset) at ``warmup``;
4. every fault of the plan due at ``n`` (``at=n`` fires after ``n``
   references, before the n+1st);

and returns the next count at which the driver must call it again.
:meth:`RunSchedule.finish` closes the run: the tail epoch, then a last
audit.

Given a bus, the schedule also samples every :data:`SAMPLE_EVERY`-th
issued reference (:meth:`RunSchedule.sample`): the same access the
driver would make, timed whole and classed from counter deltas, recorded
as an :class:`~repro.telemetry.events.AccessSampled` instant. It reads
counters that every cache family keeps, plus the molecular cache's
unsettled remote-hit counts, so it works the same for set-associative
and molecular caches, settles nothing, and the access rule itself makes
no telemetry call. With no bus, no audit and no faults the schedule is
consulted at 0 and at the warm-up, whatever the run's length.
"""

from __future__ import annotations

from repro.audit.invariants import audit_and_emit, resolve_cadence
from repro.common.clock import tick
from repro.common.errors import ConfigError
from repro.faults.injector import FaultInjector
from repro.telemetry.bus import attach_telemetry
from repro.telemetry.events import SAMPLE_EVERY, AccessSampled

#: A mark no run reaches.
_NEVER = 1 << 62


class RunSchedule:
    """The between-reference work of one driver run.

    ``access`` is the access for the next reference: the cache's session
    access (``access_block`` for a cache without sessions), or
    :meth:`sample` when that reference is sampled. ``on_warmup`` runs
    once ``warmup`` (> 0) references have been issued.
    """

    __slots__ = ("cache", "access", "_plain", "_bus", "_epoch_refs",
                 "_cadence", "_warmup", "_on_warmup", "_injector", "_seq",
                 "_contexts")

    def __init__(self, cache, bus=None, audit_every: int | None = None,
                 faults=None, warmup: int = 0, on_warmup=None) -> None:
        self.cache = cache
        self._cadence = resolve_cadence(audit_every)
        self._injector = None
        if faults:
            if not hasattr(cache, "regions"):
                raise ConfigError(
                    "fault injection requires a molecular cache, got "
                    f"{type(cache).__name__}"
                )
            self._injector = FaultInjector(cache, faults)
        self._bus = bus
        # Epochs snapshot the cache's regions, so only a cache that takes
        # the bus has them; samples need the bus alone.
        self._epoch_refs = bus.epoch_refs if attach_telemetry(cache, bus) else 0
        self._warmup = warmup
        self._on_warmup = on_warmup
        session = getattr(cache, "access_session", None)
        if session is not None:
            plain = session().access
        else:
            access_block = cache.access_block

            def plain(block: int, asid: int, write: bool) -> bool:
                return access_block(block, asid, write).hit

        self._plain = self.access = plain
        self._seq = 0
        # The molecular cache's per-ASID access contexts (none elsewhere).
        self._contexts = getattr(cache.stats, "contexts", {})

    def reach(self, issued: int) -> int:
        """Do what is due once ``issued`` references have been issued;
        returns the next count at which something is."""
        if issued:
            if self._epoch_refs and issued % self._epoch_refs == 0:
                self._bus.rollover(issued)
            if self._cadence and issued % self._cadence == 0:
                audit_and_emit(self.cache)
            if issued == self._warmup:
                self._on_warmup()
        injector = self._injector
        if injector is not None:
            injector.fire_due(issued)
        mark = _NEVER
        if self._bus is not None:
            # Reference issued + 1 is sampled when it is a multiple of
            # SAMPLE_EVERY; the mark after it puts the plain access back.
            if (issued + 1) % SAMPLE_EVERY == 0:
                self._seq = issued + 1
                self.access = self.sample
                mark = issued + 1
            else:
                self.access = self._plain
                # the count just before the next sampled reference
                mark = issued - (issued + 1) % SAMPLE_EVERY + SAMPLE_EVERY
        for every in (self._epoch_refs, self._cadence):
            if every:
                mark = min(mark, issued - issued % every + every)
        if self._warmup > issued:
            mark = min(mark, self._warmup)
        if injector is not None and injector.next_at is not None:
            mark = min(mark, max(injector.next_at, issued + 1))
        return mark

    # What a sample is classed by. A cache family without resize rounds
    # or access contexts (the set-associative cache) reads 0 for them.

    def _rounds(self) -> int:
        return getattr(self.cache.stats, "resize_events", 0)

    def _unsettled_remote_hits(self, asid: int):
        """The ASID's access context and the remote hits it has counted
        since it last settled, read without settling."""
        ctx = self._contexts.get(asid)
        return ctx, sum(ctx.remote_hits.values()) if ctx is not None else 0

    def _writebacks(self) -> int:
        return sum(c.writebacks for c in self.cache.stats.lifetime.values())

    def sample(self, block: int, asid: int, write: bool) -> bool:
        """The next reference through the plain access, timed whole and
        classed: ``resize`` when it fired a resize round, else ``hit``,
        ``remote-hit`` (the Ulmo remote hits grew), ``clean-miss`` or
        ``dirty-miss`` (the lifetime writebacks grew).

        A remote hit is counted on the context that served it, the
        ASID's (rebuilt inside the access when it was stale), and
        charged to Ulmo when that context settles; only a resize round
        settles it inside the access. So the sample reads the context's
        count before and after, and settles nothing.
        """
        rounds, writebacks = self._rounds(), self._writebacks()
        before, remote = self._unsettled_remote_hits(asid)
        started = tick()
        hit = self._plain(block, asid, write)
        elapsed = tick() - started
        if self._rounds() != rounds:
            outcome = "resize"
        elif hit:
            ctx, now = self._unsettled_remote_hits(asid)
            if ctx is not before:
                remote = 0
            outcome = "remote-hit" if now != remote else "hit"
        else:
            outcome = "dirty-miss" if self._writebacks() != writebacks else "clean-miss"
        self._bus.emit(AccessSampled(
            seq=self._seq, asid=asid, block=block, write=bool(write),
            outcome=outcome, duration_us=elapsed * 1e6,
        ))
        return hit

    def finish(self, issued: int) -> None:
        """Close a run of ``issued`` references: the tail epoch, then the
        last audit."""
        if self._epoch_refs:
            self._bus.flush_epoch(issued)
        if self._cadence:
            audit_and_emit(self.cache)
