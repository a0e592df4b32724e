"""Performance observability: hot-path profiler, the trace, benchmark ledger.

The paper's claims are throughput claims, and every scaling change
(datapath, multi-host sweeps) is judged by numbers — this package is the
instrument panel. Three independent pieces, layered *beside* the
simulator and the telemetry bus, never inside their hot loops:

:class:`HotPathProfiler` (:mod:`repro.prof.profiler`)
    A sampling profiler for the access engine. Every Nth reference runs
    the unmodified session access, timed whole and classified by outcome
    (local hit, remote hit, clean miss, dirty miss) from counter deltas;
    resize rounds are timed exactly at the resizer, and the measured wall
    clock of the run is attributed across the outcome classes by their
    sampled time — so the report always sums to the wall clock, and the
    enabled overhead is one timed access per ``sample_every``. Disabled,
    the engine code is byte-for-byte the uninstrumented one: the only
    profiler reference is a per-``access_many``/per-session check of
    ``cache.profiler`` (``tests/test_prof_zero_cost.py`` counts it).

:class:`SpanRecorder` (:mod:`repro.prof.spans`)
    The one recording format: Chrome trace-event JSON on the one shared
    clock (:func:`repro.common.clock.tick`, comparable across worker
    processes), which loads directly in Perfetto / ``chrome://tracing``.
    It holds a campaign's per-worker spans (idle wait, job attempts,
    store commits, retry markers) and, as a telemetry bus sink, every
    event of the run as an instant plus per-region epoch counters.
    ``--trace PATH`` on ``simulate``, ``sweep`` and ``worker`` records
    one; ``repro inspect`` reads it.

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
from repro.prof.profiler import PROFILE_STAGES, HotPathProfiler
from repro.prof.spans import SpanRecorder, load_trace, summarize_trace

__all__ = [
    "HotPathProfiler",
    "LEDGER_SCHEMA_VERSION",
    "LedgerEntry",
    "PROFILE_STAGES",
    "SpanRecorder",
    "diff_ledger",
    "load_trace",
    "read_ledger",
    "summarize_trace",
    "validate_entry",
    "write_entry",
]
