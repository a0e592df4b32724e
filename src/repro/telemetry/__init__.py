"""Telemetry: structured event tracing for the molecular-cache simulator.

The paper's interesting artifacts are *time-resolved* — Figure 6 plots
hits-per-molecule over a run, Algorithm 1 grants and withdraws molecules
on periodic epochs — so this package records what the end-of-run counters
cannot show: an :class:`EventBus` of typed events (resize decisions,
grants/withdrawals, faults, epoch metric snapshots, sampled access
costs, the lease protocol) with pluggable sinks (in-memory ring buffer,
per-region metric timelines, and :class:`~repro.prof.spans.SpanRecorder`,
which writes the events into the run's Chrome trace) and a replay layer
that powers ``python -m repro inspect``.

Design constraint: the access rule makes no telemetry call. A driver
given a bus (:func:`~repro.sim.driver.run_trace`,
:class:`~repro.sim.cmp.CMPRunner`) rolls its epochs over and samples its
accesses from its run schedule (:mod:`repro.sim.schedule`), between
references; an attached bus costs an access nothing
(``benchmarks/test_perf_telemetry_overhead.py``).

Quick start::

    from repro.prof.spans import SpanRecorder
    from repro.sim.driver import run_trace
    from repro.telemetry import EventBus, MetricsTimeline

    trace, timeline = SpanRecorder(), MetricsTimeline()
    bus = EventBus([trace, timeline], epoch_refs=5_000)
    run_trace(cache, workload, telemetry=bus)
    trace.export("run.json")  # `python -m repro inspect run.json`
    print(timeline.metric_table("miss_rate"))

The replay helpers (:func:`load_report`, :func:`replay_events`,
:func:`events_from_trace`, :class:`InspectReport`) are exported lazily
to keep instrumented modules (`molecular/cache.py`, `molecular/resize.py`)
free of sim-layer imports.
"""

from __future__ import annotations

from repro.telemetry.bus import EventBus, attach_telemetry
from repro.telemetry.events import (
    EVENT_TYPES,
    AccessSampled,
    EpochRollover,
    MoleculeGranted,
    MoleculeWithdrawn,
    ResizeDecision,
    RunMeta,
    TelemetryEvent,
    event_from_dict,
)
from repro.telemetry.sinks import RingBufferSink
from repro.telemetry.timeline import MetricsTimeline

_REPLAY_EXPORTS = (
    "InspectReport", "events_from_trace", "load_report", "replay_events",
)

__all__ = [
    "AccessSampled",
    "EpochRollover",
    "EVENT_TYPES",
    "EventBus",
    "InspectReport",
    "MetricsTimeline",
    "MoleculeGranted",
    "MoleculeWithdrawn",
    "ResizeDecision",
    "RingBufferSink",
    "RunMeta",
    "TelemetryEvent",
    "attach_telemetry",
    "event_from_dict",
    "events_from_trace",
    "load_report",
    "replay_events",
]


def __getattr__(name: str):
    if name in _REPLAY_EXPORTS:
        from repro.telemetry import replay

        return getattr(replay, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
