"""Campaign span tracing: idle / execute / store-write timelines.

A multi-hour sweep that converges slowly usually isn't *computing*
slowly — it's starving (workers idle behind a long job or a dead peer's
lease), churning (failed attempts re-running), or serialising on the
store. None of that is visible in end-of-run counters. The campaign
executor therefore records **spans**: intervals on the shared monotonic
clock (:func:`repro.common.clock.tick`, comparable across worker
processes), one track per lease worker (named after its pid) plus a
launcher track, with instant markers for retries. Forked workers hand
their spans back through a file under the store; the launcher merges
them into one trace.

The on-disk format is Chrome's trace-event JSON (the ``traceEvents``
array of ``ph: "X"`` complete events), which loads directly in Perfetto
and ``chrome://tracing`` — no custom viewer to maintain.
``repro trace-export`` summarises a recorded file (per-category
durations, queue-wait share, marker counts) or writes a filtered copy.

Span vocabulary (category → meaning):

== ============ ======================================================
X  ``job``       one job attempt executing inside a lease worker
X  ``queue``     a worker's idle time before acquiring its next job
X  ``store``     committing one result into the ``ResultStore``
X  ``campaign``  the whole run, on the launcher track
i  ``retry``     a failed attempt released for another try
== ============ ======================================================
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.common.errors import ConfigError
from repro.common.io import atomic_write_json

#: Launcher-track sentinel tid (workers use their real pid).
LAUNCHER_TID = 0


class SpanRecorder:
    """Collects spans and instant markers; exports Chrome trace JSON.

    Timestamps are raw :func:`~repro.common.clock.tick` seconds; the
    export normalises them to microseconds from the earliest event, so
    traces start at t=0 regardless of machine uptime.
    """

    def __init__(self, pid: int = 1) -> None:
        self.pid = pid
        self._events: list[dict] = []
        self._track_names: dict[int, str] = {}

    def __len__(self) -> int:
        return len(self._events)

    # ------------------------------------------------------------ recording

    def name_track(self, tid: int, name: str) -> None:
        """Label a track (worker pid / launcher) in the viewer."""
        self._track_names[tid] = name

    def span(
        self,
        name: str,
        category: str,
        start: float,
        end: float,
        tid: int = LAUNCHER_TID,
        args: dict | None = None,
    ) -> None:
        """A complete span from ``start`` to ``end`` (tick seconds)."""
        self._events.append(
            {
                "name": name,
                "cat": category,
                "ph": "X",
                "ts": start,
                "dur": max(end - start, 0.0),
                "tid": tid,
                "args": args or {},
            }
        )

    def instant(
        self,
        name: str,
        category: str,
        ts: float,
        tid: int = LAUNCHER_TID,
        args: dict | None = None,
    ) -> None:
        """A zero-duration marker at ``ts`` (tick seconds)."""
        self._events.append(
            {
                "name": name,
                "cat": category,
                "ph": "i",
                "ts": ts,
                "s": "t",
                "tid": tid,
                "args": args or {},
            }
        )

    # ------------------------------------------------------ process hand-off

    def dump(self, path: str | Path) -> None:
        """Write the raw tick-clock events for :meth:`absorb` elsewhere."""
        atomic_write_json(
            path,
            {"tracks": self._track_names, "events": self._events},
            sort_keys=False,
        )

    def absorb(self, path: str | Path) -> None:
        """Merge a :meth:`dump` from another process on the same clock;
        a missing file (a worker killed before it could dump) adds
        nothing."""
        try:
            with Path(path).open("r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            return
        for tid, name in payload["tracks"].items():
            self._track_names[int(tid)] = name
        self._events.extend(payload["events"])

    # ------------------------------------------------------------- exporting

    def trace_events(self) -> list[dict]:
        """The recorded events in Chrome trace format (ts/dur in µs)."""
        if not self._events:
            return []
        origin = min(event["ts"] for event in self._events)
        out: list[dict] = []
        for tid, name in sorted(self._track_names.items()):
            out.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": self.pid,
                    "tid": tid,
                    "args": {"name": name},
                }
            )
        for event in self._events:
            converted = dict(event)
            converted["pid"] = self.pid
            converted["ts"] = round((event["ts"] - origin) * 1e6, 3)
            if "dur" in event:
                converted["dur"] = round(event["dur"] * 1e6, 3)
            out.append(converted)
        return out

    def export(self, path: str | Path) -> Path:
        """Write the trace atomically; returns the path written."""
        path = Path(path)
        payload = {
            "traceEvents": self.trace_events(),
            "displayTimeUnit": "ms",
        }
        try:
            atomic_write_json(path, payload, sort_keys=False)
        except OSError as error:
            raise ConfigError(f"cannot write span trace to {path}: {error}") from None
        return path


# ------------------------------------------------------------------ reading


def load_trace(path: str | Path) -> list[dict]:
    """The ``traceEvents`` of a recorded span file.

    Accepts the object form (``{"traceEvents": [...]}``) and the bare
    array form — both load in Perfetto, so both are accepted here. Every
    event must be a JSON object whose ``ts`` and ``dur``, when present,
    are numbers.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"no span trace at {path}")
    try:
        with path.open("r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as error:
        raise ConfigError(f"{path}: broken span trace ({error})") from None
    if isinstance(payload, dict):
        events = payload.get("traceEvents")
    else:
        events = payload
    if not isinstance(events, list):
        raise ConfigError(f"{path}: no traceEvents array")
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ConfigError(f"{path}: trace event {index} is not an object")
        for key in ("ts", "dur"):
            value = event.get(key, 0)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(
                    f"{path}: trace event {index} has a non-numeric "
                    f"{key!r} ({value!r})"
                )
    return events


def filter_trace(events: list[dict], category: str) -> list[dict]:
    """The subset of ``events`` in ``category`` (metadata rows kept)."""
    return [
        event
        for event in events
        if event.get("ph") == "M" or event.get("cat") == category
    ]


def summarize_trace(events: list[dict]) -> str:
    """Per-category duration stats plus marker counts, as a text table."""
    spans: dict[str, list[float]] = {}
    markers: dict[str, int] = {}
    tracks: set[int] = set()
    for event in events:
        ph = event.get("ph")
        if ph == "X":
            spans.setdefault(event.get("cat", "?"), []).append(
                float(event.get("dur", 0.0)) / 1e6
            )
            tracks.add(event.get("tid", 0))
        elif ph == "i":
            key = f"{event.get('cat', '?')}:{event.get('name', '?')}"
            markers[key] = markers.get(key, 0) + 1
    lines = [
        f"span trace: {sum(len(v) for v in spans.values())} spans on "
        f"{len(tracks)} track(s)"
    ]
    lines.append(
        f"  {'category':<10s} {'count':>6s} {'total':>10s} "
        f"{'mean':>10s} {'max':>10s}"
    )
    for category in sorted(spans):
        durations = spans[category]
        total = sum(durations)
        lines.append(
            f"  {category:<10s} {len(durations):>6d} {total:>9.3f}s "
            f"{total / len(durations):>9.4f}s {max(durations):>9.4f}s"
        )
    queue = sum(spans.get("queue", []))
    execute = sum(spans.get("job", []))
    if execute > 0:
        lines.append(
            f"  queue-wait / execute ratio: {queue / execute:.2f} "
            "(high values mean worker starvation)"
        )
    if markers:
        lines.append("  markers:")
        for key in sorted(markers):
            lines.append(f"    {key}: {markers[key]}")
    return "\n".join(lines)
