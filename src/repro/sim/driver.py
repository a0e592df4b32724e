"""Single-stream trace driver (no CMP timing model).

For experiments on one application — or pre-interleaved traces — where
issue-rate feedback is not wanted, :func:`run_trace` simply streams a trace
through a cache in order, shifting block numbers from its addresses a
slice at a time.
"""

from __future__ import annotations

from repro.audit.invariants import audit_and_emit, resolve_cadence
from repro.common.errors import ConfigError
from repro.common.refs import iter_refs
from repro.faults.injector import FaultInjector
from repro.faults.spec import FaultPlan
from repro.telemetry.bus import EventBus, attach_telemetry
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
    the duration of the run (caches without telemetry support ignore it);
    the tail epoch is flushed before returning, but the bus is left open —
    the caller owns its lifecycle.

    ``audit_every`` runs the full-state invariant auditor
    (:func:`repro.audit.invariants.audit_and_emit`) every that many
    references, plus once at the end of the run; ``None`` consults the
    ``$REPRO_AUDIT`` environment variable, and 0 disables auditing — in
    which case the access stream is issued exactly as before (one
    ``access_many`` call per segment; ``benchmarks/`` guards the
    zero-overhead contract).

    ``faults`` schedules a :class:`~repro.faults.spec.FaultPlan` against
    the run: a spec with ``at=N`` fires after ``N`` references of the
    *whole run* have been issued (warm-up included — fault time is wall
    time, not measurement time), before the N+1st; specs at or past the
    trace length never fire. With no plan the access stream is issued
    exactly as before (the same zero-overhead contract as auditing).
    """
    if warmup_refs < 0:
        raise ConfigError("warmup_refs cannot be negative")
    if len(trace) > 0 and warmup_refs >= len(trace):
        raise ConfigError(
            f"warmup_refs ({warmup_refs}) must be smaller than the trace "
            f"length ({len(trace)}); nothing would be measured"
        )
    cadence = resolve_cadence(audit_every)
    injector = None
    if faults:
        if not hasattr(cache, "regions"):
            raise ConfigError(
                "fault injection requires a molecular cache, got "
                f"{type(cache).__name__}"
            )
        injector = FaultInjector(cache, faults)
    attach_telemetry(cache, telemetry)
    # Slicing below only takes views, and iter_refs converts a slice at a
    # time: the block column shifts each slice from the addresses as it
    # is converted to plain ints, so no whole-trace column is built.
    blocks = trace.block_column(line_bytes)
    asids = trace.asids
    writes = trace.writes
    access_many = getattr(cache, "access_many", None)
    if access_many is not None:
        # Batched fast path: stream the warm-up prefix, reset, stream the
        # rest. Stats/telemetry are byte-identical to a per-reference
        # loop (tests/test_prop_batched.py holds the two to it); the
        # audit cadence only chunks the calls, it never reorders accesses.
        def stream(lo: int, hi: int) -> None:
            if not cadence:
                access_many(blocks[lo:hi], asids[lo:hi], writes[lo:hi])
                return
            for start in range(lo, hi, cadence):
                stop = min(start + cadence, hi)
                access_many(
                    blocks[start:stop], asids[start:stop], writes[start:stop]
                )
                audit_and_emit(cache)

        if injector is not None:
            # Fault-aware wrapper: split the stream at fault firing
            # points so each due fault lands between the same two
            # references the scalar loop would put it between.
            plain_stream = stream

            def stream(lo: int, hi: int) -> None:
                pos = lo
                while pos < hi:
                    injector.fire_due(pos)
                    next_at = injector.next_at
                    stop = hi if next_at is None else min(hi, max(next_at, pos + 1))
                    plain_stream(pos, stop)
                    pos = stop

        if warmup_refs:
            stream(0, warmup_refs)
            cache.stats.reset()
            stream(warmup_refs, len(blocks))
        else:
            stream(0, len(blocks))
    else:
        access_block = cache.access_block
        _, references = iter_refs(blocks, asids, writes)
        for index, (block, asid, write) in enumerate(references):
            if index == warmup_refs and warmup_refs:
                cache.stats.reset()
            if injector is not None:
                injector.fire_due(index)
            access_block(block, asid, write)
            if cadence and (index + 1) % cadence == 0:
                audit_and_emit(cache)
    if cadence:
        audit_and_emit(cache)
    if telemetry is not None:
        telemetry.flush_epoch()
    return cache.stats
