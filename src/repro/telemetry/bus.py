"""The event bus: typed events to pluggable sinks.

The access rule makes no telemetry call: an access costs the same with a
bus attached as without one (``benchmarks/test_perf_telemetry_overhead.
py`` guards this). What a bus records comes from rare events — resize
rounds, faults, audits, which emit as they happen — and from the
driver's run schedule (:mod:`repro.sim.schedule`), which samples one
issued reference in :data:`~repro.telemetry.events.SAMPLE_EVERY` and
owns the epoch clock.

At every ``epoch_refs`` issued references the schedule calls
:meth:`EventBus.rollover`, which snapshots each region's epoch-local miss
rate, molecule count and occupancy into an
:class:`~repro.telemetry.events.EpochRollover` event, so a recorded
trace contains the full metric timeline and can be replayed without the
cache that produced it.
"""

from __future__ import annotations

from repro.common.errors import ConfigError
from repro.telemetry.events import EpochRollover, TelemetryEvent


class EventBus:
    """Dispatches telemetry events to a set of sinks.

    Parameters
    ----------
    sinks:
        Objects with an ``emit(event)`` method:
        :class:`~repro.telemetry.sinks.RingBufferSink`,
        :class:`~repro.prof.spans.SpanRecorder`,
        :class:`~repro.telemetry.timeline.MetricsTimeline`, or anything
        else matching the protocol.
    epoch_refs:
        Issued references per metrics epoch; 0 disables epoch rollovers.
    """

    __slots__ = (
        "sinks",
        "epoch_refs",
        "epoch",
        "events_emitted",
        "_cache",
        "_region_marks",
        "_probe_mark",
        "_last_rollover_seq",
    )

    def __init__(self, sinks=(), epoch_refs: int = 10_000) -> None:
        if epoch_refs < 0:
            raise ConfigError("epoch_refs cannot be negative")
        self.sinks = list(sinks)
        self.epoch_refs = epoch_refs
        self.epoch = 0
        self.events_emitted = 0
        self._cache = None
        self._region_marks: dict[int, tuple[int, int]] = {}
        self._probe_mark: tuple[int, int] = (0, 0)
        self._last_rollover_seq = 0

    # ------------------------------------------------------------- plumbing

    def add_sink(self, sink) -> None:
        self.sinks.append(sink)

    def bind_cache(self, cache) -> None:
        """Bind the cache whose regions epoch snapshots are taken from."""
        self._cache = cache

    def emit(self, event: TelemetryEvent) -> None:
        """Deliver one event to every sink."""
        self.events_emitted += 1
        for sink in self.sinks:
            sink.emit(event)

    def flush_epoch(self, seq: int) -> None:
        """Close a partial tail epoch ending at issued count ``seq``."""
        if self._cache is not None and seq > self._last_rollover_seq:
            self.rollover(seq)

    # --------------------------------------------------------------- epochs

    def rollover(self, seq: int) -> None:
        """Close the epoch ending at issued count ``seq``: snapshot the
        regions, emit the event."""
        self.epoch += 1
        self._last_rollover_seq = seq
        regions: dict[int, dict] = {}
        mean_probed = 0.0
        free = 0
        cache = self._cache
        if cache is not None:
            for asid, region in sorted(cache.regions.items()):
                prev_accesses, prev_misses = self._region_marks.get(asid, (0, 0))
                accesses = region.total_accesses - prev_accesses
                misses = region.total_misses - prev_misses
                self._region_marks[asid] = (
                    region.total_accesses,
                    region.total_misses,
                )
                if accesses < 0:  # counters were reset mid-run (warm-up)
                    accesses, misses = region.total_accesses, region.total_misses
                miss_rate = misses / accesses if accesses > 0 else 0.0
                molecules = region.molecule_count
                hpm = 0.0
                if molecules and accesses:
                    hpm = (1.0 - miss_rate) / molecules
                regions[asid] = {
                    "accesses": accesses,
                    "miss_rate": miss_rate,
                    "molecules": molecules,
                    "occupancy": region.occupancy_fraction(),
                    "goal": region.goal,
                    "hpm": hpm,
                }
            stats = cache.stats
            probe_mark, access_mark = self._probe_mark
            probes = stats.molecules_probed - probe_mark
            accesses = stats.total.accesses - access_mark
            self._probe_mark = (stats.molecules_probed, stats.total.accesses)
            if accesses > 0 and probes >= 0:
                mean_probed = probes / accesses
            free = cache.free_molecules()
        self.emit(
            EpochRollover(
                epoch=self.epoch,
                seq=seq,
                mean_molecules_probed=mean_probed,
                free_molecules=free,
                regions=regions,
            )
        )


def attach_telemetry(cache, bus: EventBus | None) -> bool:
    """Attach ``bus`` to any cache that supports telemetry.

    Returns True when the cache accepted the bus; drivers call this so the
    same code path works for molecular and traditional caches (the latter
    simply run unrecorded).
    """
    if bus is None:
        return False
    attach = getattr(cache, "attach_telemetry", None)
    if attach is None:
        return False
    attach(bus)
    return True
