"""One recorded artifact: Chrome trace-event JSON on the shared clock.

Every recording — a ``simulate`` run, a campaign, a lone ``worker`` —
is one :class:`SpanRecorder` exported as Chrome's trace-event JSON (the
``traceEvents`` array), which loads directly in Perfetto and
``chrome://tracing`` and which ``repro inspect`` reads back. Timestamps
come from the shared monotonic clock (:func:`repro.common.clock.tick`,
comparable across worker processes), so each lease worker records on
its own track (named after its pid) and forked workers hand their
events back through ``spans/worker-N.json`` under the store; the
launcher merges them into one trace.

The recorder is also an :class:`~repro.telemetry.bus.EventBus` sink
(:meth:`SpanRecorder.emit`): each telemetry event becomes an instant
named by its ``kind`` with the event's fields as ``args``, and each
epoch rollover adds one counter sample per region, so the simulator's
metrics plot as counter tracks beside the campaign's spans.

Event vocabulary (phase, category → meaning):

== ============= ======================================================
X  ``job``        one job attempt executing inside a lease worker
X  ``queue``      a worker's idle time before acquiring its next job
X  ``store``      committing one result into the ``ResultStore``
X  ``campaign``   the whole run, on the launcher track (``args`` count
                  the jobs, workers and cached results)
i  ``retry``      a failed attempt released for another try
i  ``telemetry``  one telemetry event (lease protocol, resize, epoch...)
C  ``telemetry``  one region's miss rate and molecule count at an epoch
== ============= ======================================================
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.common.clock import tick
from repro.common.errors import ConfigError
from repro.common.io import atomic_write_json

#: Launcher-track sentinel tid (workers use their real pid).
LAUNCHER_TID = 0

#: Category of the instants and counters :meth:`SpanRecorder.emit` writes.
TELEMETRY = "telemetry"

#: Bound on a readable ``ts``/``dur`` (µs): rejects NaN, infinities and
#: integers too large for a float.
_MAX_TIME = 1e300


class SpanRecorder:
    """Collects spans, instants and counters; exports Chrome trace JSON.

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

    def emit(self, event, tid: int = LAUNCHER_TID) -> None:
        """EventBus sink: record ``event`` as an instant on track ``tid``.

        The instant is named by the event's ``kind`` and carries its
        fields as ``args``. An epoch rollover also records one ``"C"``
        counter sample per region (miss rate and molecule count), which
        Perfetto plots as a counter track.
        """
        now = tick()
        args = event.as_dict()
        del args["kind"]
        self.instant(event.kind, TELEMETRY, now, tid=tid, args=args)
        if event.kind == "epoch_rollover":
            for asid, region in sorted(event.regions.items()):
                self._events.append(
                    {
                        "name": f"asid {asid}",
                        "cat": TELEMETRY,
                        "ph": "C",
                        "ts": now,
                        "tid": tid,
                        "args": {
                            "miss_rate": region["miss_rate"],
                            "molecules": region["molecules"],
                        },
                    }
                )

    def track(self, tid: int) -> "TrackSink":
        """An EventBus sink whose instants land on track ``tid``."""
        return TrackSink(self, tid)

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
            raise ConfigError(f"cannot write trace to {path}: {error}") from None
        return path


class TrackSink:
    """Telemetry sink recording each event on one track of a recorder
    (a lease worker's, while it drains in the launcher's process)."""

    __slots__ = ("recorder", "tid")

    def __init__(self, recorder: SpanRecorder, tid: int) -> None:
        self.recorder = recorder
        self.tid = tid

    def emit(self, event) -> None:
        self.recorder.emit(event, self.tid)


# ------------------------------------------------------------------ reading


def load_trace(path: str | Path) -> list[dict]:
    """The ``traceEvents`` of a recorded trace file.

    Accepts the object form (``{"traceEvents": [...]}``) and the bare
    array form — both load in Perfetto, so both are accepted here. Every
    event must be a JSON object whose ``ts`` and ``dur``, when present,
    are finite numbers.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"no trace at {path}")
    try:
        with path.open("r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        hint = ""
        if getattr(error, "msg", "") == "Extra data":
            hint = (
                "; JSON Lines recordings from `--record` are not read any "
                "more: record again with --trace"
            )
        raise ConfigError(f"{path}: broken trace ({error}){hint}") from None
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
            if not -_MAX_TIME < value < _MAX_TIME:
                raise ConfigError(
                    f"{path}: trace event {index} has an out-of-range "
                    f"{key!r} ({value!r})"
                )
    return events


def summarize_trace(events: list[dict]) -> str:
    """Per-category duration stats plus marker counts, as a text table."""
    spans: dict[str, list[float]] = {}
    markers: dict[str, int] = {}
    tracks: set[str] = set()
    for event in events:
        ph = event.get("ph")
        if ph == "X":
            spans.setdefault(str(event.get("cat", "?")), []).append(
                event.get("dur", 0.0) / 1e6
            )
            tracks.add(str(event.get("tid", 0)))
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
