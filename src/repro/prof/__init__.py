"""Performance observability: the trace and the benchmark ledger.

The paper's claims are throughput claims, and every scaling change
(datapath, multi-host sweeps) is judged by numbers — this package is the
instrument panel. Two independent pieces, layered *beside* the
simulator and the telemetry bus, never inside their hot loops:

:class:`SpanRecorder` (:mod:`repro.prof.spans`)
    The one recording format: Chrome trace-event JSON on the one shared
    clock (:func:`repro.common.clock.tick`, comparable across worker
    processes), which loads directly in Perfetto / ``chrome://tracing``.
    It holds a campaign's per-worker spans (idle wait, job attempts,
    store commits, retry markers) and, as a telemetry bus sink, every
    event of the run as an instant plus per-region epoch counters. The
    instants include the access samples a driver's run schedule takes
    (:mod:`repro.sim.schedule`), which ``repro inspect`` tabulates per
    outcome class. ``--trace PATH`` on ``simulate``, ``sweep`` and
    ``worker`` records one; ``repro inspect`` reads it.

The benchmark ledger (:mod:`repro.prof.ledger`)
    Structured JSON next to the free-text ``benchmarks/results/*.txt``:
    one entry per (metric, run) with value, unit, direction,
    ``REPRO_SCALE``, git SHA and timestamp. ``repro bench-report`` diffs
    the latest run against the previous one and fails on configurable
    regressions; CI runs it as a soft gate.
"""

from __future__ import annotations

from repro.prof.ledger import (
    LEDGER_SCHEMA_VERSION,
    LedgerEntry,
    diff_ledger,
    read_ledger,
    validate_entry,
    write_entry,
)
from repro.prof.spans import SpanRecorder, load_trace, summarize_trace

__all__ = [
    "LEDGER_SCHEMA_VERSION",
    "LedgerEntry",
    "SpanRecorder",
    "diff_ledger",
    "load_trace",
    "read_ledger",
    "summarize_trace",
    "validate_entry",
    "write_entry",
]
