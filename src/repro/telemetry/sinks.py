"""Event sinks: in-memory ring buffer and JSONL persistence.

A sink is anything with ``emit(event)``; ``close()`` is optional. The two
bundled sinks cover the interactive and the post-mortem workflow:

* :class:`RingBufferSink` keeps the last N events in memory — attach one
  in a REPL or a test and look at ``.events()`` afterwards.
* :class:`JsonlSink` streams every event to a JSON-Lines file that
  ``python -m repro inspect`` (see :mod:`repro.telemetry.replay`) can
  rebuild timelines from.
"""

from __future__ import annotations

import json
from collections import deque
from collections.abc import Iterator
from pathlib import Path

from repro.common.errors import ConfigError
from repro.telemetry.events import TelemetryEvent, event_from_dict


class RingBufferSink:
    """Keeps the most recent ``capacity`` events, evicting the oldest."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ConfigError("ring buffer capacity must be >= 1")
        self.capacity = capacity
        self._buffer: deque[TelemetryEvent] = deque(maxlen=capacity)
        #: Events discarded because the buffer was full.
        self.dropped = 0

    def emit(self, event: TelemetryEvent) -> None:
        if len(self._buffer) == self.capacity:
            self.dropped += 1
        self._buffer.append(event)

    def events(self) -> list[TelemetryEvent]:
        """Buffered events, oldest first."""
        return list(self._buffer)

    def clear(self) -> None:
        self._buffer.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._buffer)

    def __iter__(self) -> Iterator[TelemetryEvent]:
        return iter(self._buffer)


class JsonlSink:
    """Writes one JSON object per event to ``path`` (JSON Lines)."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        try:
            self._fh = self.path.open("w", encoding="utf-8")
        except OSError as error:
            raise ConfigError(
                f"cannot record telemetry to {self.path}: {error}"
            ) from None
        #: Events written so far.
        self.count = 0

    def emit(self, event: TelemetryEvent) -> None:
        if self._fh is None:
            raise ConfigError(f"telemetry sink {self.path} is closed")
        self._fh.write(json.dumps(event.as_dict(), separators=(",", ":")))
        self._fh.write("\n")
        self.count += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def read_events(path: str | Path) -> Iterator[TelemetryEvent]:
    """Yield the events recorded in a JSONL file, in stream order.

    Unknown event kinds (from a newer writer) and blank lines are skipped;
    a syntactically broken line raises :class:`ConfigError` with its line
    number, since a truncated recording usually means the producing run
    never closed its bus. So does a line that parses but is not an event
    (not an object, or a known kind with missing or unknown fields).
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"no telemetry recording at {path}")
    with path.open("r", encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as error:
                raise ConfigError(
                    f"{path}:{line_number}: broken telemetry line ({error}); "
                    "was the recording bus closed?"
                ) from None
            if not isinstance(payload, dict):
                raise ConfigError(
                    f"{path}:{line_number}: not a telemetry event "
                    f"(a JSON {type(payload).__name__}, not an object)"
                )
            try:
                event = event_from_dict(payload)
            except (TypeError, ValueError, AttributeError) as error:
                raise ConfigError(
                    f"{path}:{line_number}: not a telemetry event ({error})"
                ) from None
            if event is not None:
                yield event
