"""Single-stream trace driver (no CMP timing model).

For experiments on one application — or pre-interleaved traces — where
issue-rate feedback is not wanted, :func:`run_trace` simply streams a trace
through a cache in order, shifting block numbers from its addresses a
slice at a time.
"""

from __future__ import annotations

from repro.common.errors import ConfigError
from repro.common.refs import iter_refs
from repro.faults.spec import FaultPlan
from repro.sim.schedule import RunSchedule
from repro.telemetry.bus import EventBus
from repro.trace.container import Trace


def run_trace(
    cache,
    trace: Trace,
    line_bytes: int = 64,
    warmup_refs: int = 0,
    telemetry: EventBus | None = None,
    audit_every: int | None = None,
    faults: FaultPlan | None = None,
):
    """Stream ``trace`` through ``cache``; returns the cache's stats object.

    ``warmup_refs`` leading references are simulated but excluded from the
    returned statistics (the cache's counters are reset at that point).

    ``telemetry`` attaches an :class:`~repro.telemetry.bus.EventBus` for
    the duration of the run: epoch rollovers on a cache that takes the
    bus, and sampled accesses on any cache (:mod:`repro.sim.schedule`).
    The tail epoch is flushed before returning, but the bus is left open:
    the caller owns its lifecycle.

    ``audit_every`` runs the full-state invariant auditor
    (:func:`repro.audit.invariants.audit_and_emit`) every that many
    references, plus once at the end of the run; ``None`` consults the
    ``$REPRO_AUDIT`` environment variable, and 0 disables auditing.

    ``faults`` schedules a :class:`~repro.faults.spec.FaultPlan` against
    the run: a spec with ``at=N`` fires after ``N`` references of the
    *whole run* have been issued (warm-up included — fault time is wall
    time, not measurement time), before the N+1st; specs at or past the
    trace length never fire.

    The trace streams through ``access_many`` in chunks that end only
    where the run schedule has something due, so a run with nothing to
    observe makes two calls: the warm-up, then the measured part.
    """
    if warmup_refs < 0:
        raise ConfigError("warmup_refs cannot be negative")
    n = len(trace)
    if n > 0 and warmup_refs >= n:
        raise ConfigError(
            f"warmup_refs ({warmup_refs}) must be smaller than the trace "
            f"length ({n}); nothing would be measured"
        )
    schedule = RunSchedule(
        cache, telemetry, audit_every, faults, warmup_refs, cache.stats.reset
    )
    # Slicing below only takes views, and iter_refs converts a slice at a
    # time: the block column shifts each slice from the addresses as it
    # is converted to plain ints, so no whole-trace column is built.
    blocks = trace.block_column(line_bytes)
    asids = trace.asids
    writes = trace.writes
    access_many = getattr(cache, "access_many", None)
    issued, mark = 0, schedule.reach(0)
    while issued < n:
        stop = min(mark, n)
        if stop - issued == 1 or access_many is None:
            # One reference (the sampled one, say), or a cache without
            # access_many: the schedule's access, which times a sampled
            # reference (always a chunk of its own).
            access = schedule.access
            for block, asid, write in iter_refs(
                blocks[issued:stop], asids[issued:stop], writes[issued:stop]
            )[1]:
                access(block, asid, write)
        else:
            access_many(blocks[issued:stop], asids[issued:stop], writes[issued:stop])
        issued = stop
        if issued < n:
            mark = schedule.reach(issued)
    schedule.finish(n)
    return cache.stats
