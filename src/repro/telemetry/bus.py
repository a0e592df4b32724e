"""The event bus: guarded emission with zero overhead when disabled.

The contract with the hot access loop is strict: an uninstrumented run
keeps ``cache.telemetry is None`` and the *only* added cost per access is
that single attribute check (``benchmarks/test_perf_telemetry_overhead.py``
guards this). Everything else — sequence numbering, sampling, epoch
accounting — lives behind the check, inside :meth:`EventBus.record_access`.

The bus owns the run's *epoch clock*: every ``epoch_refs`` accesses it
snapshots each region's epoch-local miss rate, molecule count and
occupancy into an :class:`~repro.telemetry.events.EpochRollover` event, so
a recorded trace contains the full metric timeline and can be
replayed without the cache that produced it.
"""

from __future__ import annotations

from repro.common.errors import ConfigError
from repro.telemetry.events import (
    AccessSampled,
    EpochRollover,
    RemoteSearch,
    TelemetryEvent,
)


class EventBus:
    """Dispatches telemetry events to a set of sinks.

    Parameters
    ----------
    sinks:
        Objects with an ``emit(event)`` method (and optionally ``close()``):
        :class:`~repro.telemetry.sinks.RingBufferSink`,
        :class:`~repro.prof.spans.SpanRecorder`,
        :class:`~repro.telemetry.timeline.MetricsTimeline`, or anything
        else matching the protocol.
    epoch_refs:
        Accesses per metrics epoch; 0 disables epoch rollovers.
    sample_interval:
        Emit an :class:`AccessSampled` every Nth access; 0 disables.
    remote_search_sample:
        Emit every Nth :class:`RemoteSearch` (1 = all); remote searches
        can dominate a stream on span-heavy regions, so this subsamples
        them without touching the epoch aggregates.
    """

    __slots__ = (
        "sinks",
        "epoch_refs",
        "sample_interval",
        "remote_search_sample",
        "access_seq",
        "epoch",
        "events_emitted",
        "_cache",
        "_region_marks",
        "_probe_mark",
        "_remote_seen",
        "_last_rollover_seq",
    )

    def __init__(
        self,
        sinks=(),
        epoch_refs: int = 10_000,
        sample_interval: int = 0,
        remote_search_sample: int = 1,
    ) -> None:
        if epoch_refs < 0 or sample_interval < 0:
            raise ConfigError("telemetry intervals cannot be negative")
        if remote_search_sample < 1:
            raise ConfigError("remote_search_sample must be >= 1")
        self.sinks = list(sinks)
        self.epoch_refs = epoch_refs
        self.sample_interval = sample_interval
        self.remote_search_sample = remote_search_sample
        self.access_seq = 0
        self.epoch = 0
        self.events_emitted = 0
        self._cache = None
        self._region_marks: dict[int, tuple[int, int]] = {}
        self._probe_mark: tuple[int, int] = (0, 0)
        self._remote_seen = 0
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

    def flush_epoch(self) -> None:
        """Emit a rollover for a partial tail epoch (run teardown)."""
        if self._cache is not None and self.access_seq > self._last_rollover_seq:
            self.rollover()

    def close(self) -> None:
        """Flush the tail epoch and close every sink that supports it."""
        self.flush_epoch()
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "EventBus":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------- hot path

    def record_access(self, asid, block, write, result, remote_tiles) -> None:
        """Per-access bookkeeping; called only when telemetry is attached."""
        seq = self.access_seq + 1
        self.access_seq = seq
        interval = self.sample_interval
        if interval and seq % interval == 0:
            self.emit(
                AccessSampled(
                    seq=seq,
                    asid=asid,
                    block=block,
                    hit=result.hit,
                    write=write,
                    local_probes=result.molecules_probed_local,
                    remote_probes=result.molecules_probed_remote,
                )
            )
        if remote_tiles:
            self._remote_seen += 1
            if self._remote_seen % self.remote_search_sample == 0:
                self.emit(
                    RemoteSearch(
                        seq=seq,
                        asid=asid,
                        tiles_searched=remote_tiles,
                        molecules_probed=result.molecules_probed_remote,
                        found=result.hit,
                    )
                )
        if self.epoch_refs and seq % self.epoch_refs == 0:
            self.rollover()

    # --------------------------------------------------------------- epochs

    def rollover(self) -> None:
        """Close the current epoch: snapshot regions, emit the event."""
        self.epoch += 1
        self._last_rollover_seq = self.access_seq
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
                seq=self.access_seq,
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
