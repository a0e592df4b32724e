"""The one clock every elapsed/deadline computation uses.

Mixing ``time.perf_counter`` with ``time.monotonic`` is a trap: on
Linux those are *different* kernel clocks (``CLOCK_MONOTONIC`` vs,
depending on the CPython build, ``CLOCK_MONOTONIC_RAW``) that drift
relative to each other, so span timestamps derived from one and elapsed
arithmetic derived from the other could disagree. Everything routes
through :func:`tick`.

``tick`` is ``time.monotonic`` deliberately:

* it is system-wide on the platforms we run on, so a timestamp taken in
  one campaign worker process is directly comparable with one taken in
  another or in the launcher — which is what lets every worker's spans
  merge into one timeline;
* it never goes backwards, so deadlines computed from it are safe.

Timestamps from :func:`tick` are *durations from an arbitrary origin*
(boot, typically), never wall-clock times; anything persisted for humans
should pair them with :func:`time.time` separately.
"""

from __future__ import annotations

from time import monotonic as _monotonic

__all__ = ["elapsed_since", "tick"]


def tick() -> float:
    """Seconds on the shared monotonic clock (arbitrary origin)."""
    return _monotonic()


def elapsed_since(start: float) -> float:
    """Seconds elapsed since a ``tick()`` value ``start``."""
    return _monotonic() - start
