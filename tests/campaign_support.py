"""Shared helpers for the campaign tests.

Forked lease workers share no memory with the test that launched them,
so every counter or one-shot switch a patched ``execute_spec`` needs
lives in files: appends of one short line are atomic, and ``O_EXCL``
marker files fire exactly once across processes.
"""

from __future__ import annotations

import os
import signal
from contextlib import contextmanager
from pathlib import Path

from repro.campaign import worker as worker_mod


def record_call(log: Path, key: str = "call") -> int:
    """Append ``key`` to ``log``; returns how many calls it now holds."""
    with log.open("a", encoding="utf-8") as fh:
        fh.write(key + "\n")
    return len(calls(log))


def calls(log: Path) -> list[str]:
    """Every key recorded in ``log``, in append order."""
    try:
        return log.read_text(encoding="utf-8").split()
    except FileNotFoundError:
        return []


def first_time(directory: Path, key: str) -> bool:
    """True exactly once per ``key``, across every process."""
    try:
        os.close(os.open(directory / key, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return False
    return True


def pin_cpus(monkeypatch, count: int) -> None:
    """Make the launcher see ``count`` usable CPUs, so a test's worker
    count is the same on every host."""
    monkeypatch.setattr(worker_mod, "usable_cpus", lambda: count)


@contextmanager
def deadline(seconds: int):
    """Fail, instead of hanging the suite, when the body runs too long
    (SIGALRM: the body must run in the main thread)."""
    def expire(_signum, _frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
