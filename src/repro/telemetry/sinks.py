"""The in-memory event sink.

A sink is anything with ``emit(event)``.
:class:`RingBufferSink` keeps the last N events in memory — attach one
in a REPL or a test and look at ``.events()`` afterwards. For the
post-mortem workflow, attach a :class:`~repro.prof.spans.SpanRecorder`:
it writes every event into the run's Chrome trace, which
``python -m repro inspect`` (see :mod:`repro.telemetry.replay`) rebuilds
the timelines from.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator

from repro.common.errors import ConfigError
from repro.telemetry.events import TelemetryEvent


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
