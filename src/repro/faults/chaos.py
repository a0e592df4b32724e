"""Worker chaos: deterministic sabotage of one campaign worker.

The campaign executor is a fleet of lease workers draining one result
store (:mod:`repro.campaign.worker`). A :class:`WorkerChaos` rides inside
one forked worker and attacks the drain with the three ways a worker can
fail — it dies, it hangs, or it hands back garbage — so a chaos run
exercises the real recovery machinery: lease expiry and reclaim,
``job_timeout`` fencing, and outcome validation before commit. Every
directive is counted per *acquisition* in its worker, so a chaos run is
exactly reproducible, and each fires at most once per worker, so the
drain always converges to the results a clean run produces.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass

from repro.common.errors import ConfigError

#: The outcome ``corrupt@N`` hands back: no ``elapsed``, so the worker's
#: outcome-shape check must reject it before anything is committed.
CORRUPT_OUTCOME = {"result": "\x00corrupt"}


@dataclass(frozen=True, slots=True)
class WorkerChaos:
    """Deterministic sabotage of one lease-protocol worker.

    Directives (comma-separated in the CLI grammar):

    * ``kill@N`` — SIGKILL the worker right after it acquires its Nth
      lease, before any result is written: the orphaned-lease scenario a
      peer must reclaim after ``ttl``.
    * ``hang@N:S`` — sleep S seconds inside the Nth job before
      executing it: with a ``job_timeout`` below S the worker turns into
      a stale zombie whose eventual commit must be fenced off.
    * ``corrupt@N`` — replace the Nth job's outcome with a malformed one
      (:data:`CORRUPT_OUTCOME`): it must be rejected, charged as a
      failed attempt and retried, never committed.
    * ``poison@PREFIX[:raise]`` — whenever the worker executes a job
      whose content hash starts with ``PREFIX``, SIGKILL itself (or,
      with ``:raise``, fail in-process). Handing every worker the same
      poison directive forces the job through ``max_reclaims`` attempts
      and into quarantine.
    """

    kill_after: int | None = None
    hang_at: int | None = None
    hang_seconds: float = 5.0
    corrupt_at: int | None = None
    poison: str | None = None
    poison_raise: bool = False

    @classmethod
    def parse(cls, text: str | None) -> "WorkerChaos | None":
        """Parse the CLI grammar; None/empty/"none" disables chaos."""
        if not text or text.strip().lower() == "none":
            return None
        kill_after = hang_at = corrupt_at = poison = None
        hang_seconds = 5.0
        poison_raise = False
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            name, _, rest = part.partition("@")
            try:
                if name == "kill":
                    kill_after = int(rest)
                elif name == "hang":
                    count, _, seconds = rest.partition(":")
                    hang_at = int(count)
                    if seconds:
                        hang_seconds = float(seconds)
                elif name == "corrupt":
                    corrupt_at = int(rest)
                elif name == "poison":
                    prefix, _, mode = rest.partition(":")
                    if not prefix:
                        raise ValueError("empty poison prefix")
                    if mode not in ("", "raise"):
                        raise ValueError(f"unknown poison mode {mode!r}")
                    poison = prefix
                    poison_raise = mode == "raise"
                else:
                    raise ValueError(f"unknown directive {name!r}")
            except ValueError as error:
                raise ConfigError(
                    f"bad worker-chaos directive {part!r}: {error}; "
                    "grammar is kill@N, hang@N:S, corrupt@N, "
                    "poison@PREFIX[:raise]"
                ) from None
        if kill_after is not None and kill_after < 1:
            raise ConfigError("kill@N needs N >= 1")
        if hang_at is not None and (hang_at < 1 or hang_seconds <= 0):
            raise ConfigError("hang@N:S needs N >= 1 and S > 0")
        if corrupt_at is not None and corrupt_at < 1:
            raise ConfigError("corrupt@N needs N >= 1")
        return cls(
            kill_after=kill_after,
            hang_at=hang_at,
            hang_seconds=hang_seconds,
            corrupt_at=corrupt_at,
            poison=poison,
            poison_raise=poison_raise,
        )

    def on_acquire(self, acquisition: int) -> None:
        """Fired after the worker's Nth lease hits the disk."""
        if self.kill_after is not None and acquisition == self.kill_after:
            os.kill(os.getpid(), signal.SIGKILL)

    def before_execute(self, acquisition: int, job_hash: str) -> None:
        """Fired just before the Nth acquired job executes."""
        if self.hang_at is not None and acquisition == self.hang_at:
            time.sleep(self.hang_seconds)
        if self.poison is not None and job_hash.startswith(self.poison):
            if self.poison_raise:
                raise RuntimeError(
                    f"poisoned job {job_hash[:12]} (worker chaos)"
                )
            os.kill(os.getpid(), signal.SIGKILL)

    def after_execute(self, acquisition: int, outcome: dict) -> dict:
        """The Nth job's outcome as the worker will see it."""
        if self.corrupt_at is not None and acquisition == self.corrupt_at:
            return dict(CORRUPT_OUTCOME)
        return outcome
