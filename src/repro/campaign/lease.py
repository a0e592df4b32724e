"""Filesystem-coordinated job leases: the campaign executor's protocol.

N worker processes — on one machine or on many machines sharing the
store directory over a network filesystem — drain one campaign with no
central dispatcher (a lone in-process worker is just N = 1). The only
coordination primitives are atomic filesystem operations every POSIX
(and NFS) implementation provides:

* ``link`` — at most one worker links a fully written record to
  ``leases/<hash>.json`` for a never-leased job, or to the claim file of
  an expired record it takes over; everyone else sees
  ``FileExistsError``;
* ``os.replace`` — lease renewals, reclaims and result commits are
  all-or-nothing; a reader never observes a truncated JSON file.

Layout added to a :class:`~repro.campaign.store.ResultStore` directory::

    <root>/
        leases/<hash>.json      # one live or reacquirable lease per job
        leases/<hash>.<token>.<owner>.claim  # a takeover of that record
        quarantine/<hash>.json  # poison jobs parked with attempt history

A lease record carries the owning worker's id, a **fencing token** (the
number of acquisitions the job has ever had — strictly monotonic, since
every transfer of ownership goes through the previous record), the
acquisition and last-heartbeat wall-clock stamps, and the full attempt
``history``. Wall-clock (``time.time``) rather than the monotonic tick is
deliberate: heartbeats must be comparable *across machines*, and the
protocol tolerates skew (see below).

Safety model
------------

The protocol does **not** try to guarantee mutual exclusion under every
interleaving — over NFS that is a fool's errand. It guarantees something
campaigns actually need:

* **at-most-one effective commit** — ``commit`` re-checks the lease
  record immediately before publishing; a zombie worker whose lease was
  reclaimed (its owner/token no longer match) discards its write, and
  the results file itself is only ever created once (first
  ``os.replace`` wins, later committers observe ``results/<hash>.json``
  and stand down);
* **progress despite lost races** — jobs are deterministic and results
  content-hashed, so in the worst interleaving (a live owner whose
  heartbeat fell more than ``ttl`` behind races the peer that took its
  lease over) both compute byte-identical payloads and the double
  execution wastes time, never correctness. Peers never race each
  other: each takeover is claimed by one exclusive ``link``.

That pair is why clock skew is survivable: a fast-clock worker reclaims
early and merely races the original owner; a slow-clock worker reclaims
late and merely wastes patience. Fencing decides the commit either way.

Liveness model
--------------

A worker heartbeats its lease every ``heartbeat`` seconds while the job
runs. A lease whose heartbeat is older than ``ttl`` is *expired* — its
owner is presumed dead — and any worker may **reclaim** it (token + 1,
history entry appended). ``job_timeout`` bounds how long a heartbeat is
willing to vouch for one job: past it the heartbeat stops renewing, so a
*hung* worker (alive but stuck) loses its lease too instead of pinning
the job forever — when it finally wakes its commit is fenced off.

A job whose attempt history reaches ``max_reclaims`` entries is not
re-leased but **quarantined**: parked in ``quarantine/<hash>.json`` with
every attempt on record, so one poison job cannot crash-loop the fleet.
The drain then completes *degraded*, reporting the quarantined jobs.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import tempfile
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.campaign.spec import JobSpec
from repro.campaign.store import ResultStore
from repro.common.errors import ConfigError
from repro.common.io import atomic_write_json
from repro.telemetry.events import JobQuarantined, LeaseAcquired, LeaseExpired

__all__ = [
    "Lease",
    "LeaseConfig",
    "LeaseManager",
    "Heartbeat",
    "make_owner_id",
]


def make_owner_id() -> str:
    """A worker identity unique across hosts, processes and restarts."""
    return f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:8]}"


@dataclass(slots=True)
class LeaseConfig:
    """Knobs of the lease protocol (one instance per worker).

    ``ttl`` is the liveness horizon: a lease not heartbeated for this
    long is presumed orphaned and may be reclaimed. ``heartbeat``
    defaults to a third of it so two renewals can be lost before a peer
    moves in. ``job_timeout`` caps how long the heartbeat vouches for a
    single job (None = forever — only a dead process loses its lease);
    set it when hung jobs must be reclaimable. ``max_reclaims`` is K:
    a job whose lease dies K times is quarantined, not re-leased.
    """

    ttl: float = 30.0
    heartbeat: float | None = None
    job_timeout: float | None = None
    max_reclaims: int = 3
    #: First contention backoff in seconds; doubles per idle pass.
    backoff: float = 0.05
    #: Backoff ceiling — also bounds how stale a worker's view of a
    #: peer's death can be, so keep it well under ``ttl``.
    backoff_cap: float = 1.0

    def __post_init__(self) -> None:
        if self.ttl <= 0:
            raise ConfigError(f"lease ttl must be positive, got {self.ttl}")
        if self.heartbeat is None:
            self.heartbeat = self.ttl / 3.0
        if self.heartbeat <= 0 or self.heartbeat > self.ttl:
            raise ConfigError(
                f"heartbeat interval must be in (0, ttl], got {self.heartbeat}"
            )
        if self.job_timeout is not None and self.job_timeout <= 0:
            raise ConfigError("job_timeout must be positive when set")
        if self.max_reclaims < 1:
            raise ConfigError(
                f"max_reclaims must be >= 1, got {self.max_reclaims}"
            )
        if self.backoff <= 0 or self.backoff_cap < self.backoff:
            raise ConfigError(
                "backoff must be positive and no larger than backoff_cap"
            )


@dataclass(slots=True)
class Lease:
    """A worker's handle on one acquired job."""

    job_hash: str
    owner: str
    token: int
    acquired: float
    #: Set by the heartbeat (or a failed renewal) when ownership was
    #: observably lost — the worker should finish quietly and expect
    #: its commit to be fenced.
    lost: bool = False
    #: Set by the heartbeat when ``job_timeout`` elapsed and renewals
    #: stopped: the lease may still nominally be ours, but we no longer
    #: defend it.
    abandoned: bool = False


class Heartbeat:
    """Background renewal of one lease while its job executes.

    Renewal re-reads the record and verifies ownership before touching
    it, so a reclaimed lease is *detected*, never overwritten — the
    thread then flips ``lease.lost`` and exits. After ``job_timeout``
    seconds it stops renewing without marking the lease lost
    (``lease.abandoned``): the job keeps running, but a peer may now
    reclaim, and the eventual commit must pass the fence to count.
    """

    def __init__(
        self, manager: "LeaseManager", lease: Lease, interval: float,
        job_timeout: float | None,
    ) -> None:
        self._manager = manager
        self._lease = lease
        self._interval = interval
        self._job_timeout = job_timeout
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"lease-heartbeat-{lease.job_hash[:8]}",
            daemon=True,
        )
        self._started = manager.clock()

    def __enter__(self) -> "Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=self._interval * 4 + 1.0)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            if (
                self._job_timeout is not None
                and self._manager.clock() - self._started > self._job_timeout
            ):
                self._lease.abandoned = True
                return
            if not self._manager.renew(self._lease):
                return


class LeaseManager:
    """Lease acquisition, renewal, reclamation, commit and quarantine.

    One instance per worker; all instances sharing a store directory
    coordinate purely through its ``leases/`` and ``quarantine/``
    subdirectories. ``clock`` is injectable (wall-clock seconds) so
    tests — and the chaos harness — can skew one worker's view of time.
    ``telemetry`` is anything with ``emit(event)`` — in a campaign, the
    worker's track of the trace — and receives the ``LeaseAcquired``,
    ``LeaseExpired`` and ``JobQuarantined`` events, stamped with
    ``clock`` time so readers can interleave workers.
    """

    def __init__(
        self,
        store: ResultStore,
        owner: str | None = None,
        config: LeaseConfig | None = None,
        telemetry=None,
        clock: Callable[[], float] = time.time,
        campaign: str = "campaign",
    ) -> None:
        self.store = store
        self.owner = owner or make_owner_id()
        self.config = config or LeaseConfig()
        self.telemetry = telemetry
        self.clock = clock
        self.campaign = campaign
        self.leases_dir = store.root / "leases"
        self.quarantine_dir = store.root / "quarantine"
        self.leases_dir.mkdir(parents=True, exist_ok=True)
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------ plumbing

    def _emit(self, event) -> None:
        if self.telemetry is not None:
            self.telemetry.emit(event)

    def _lease_path(self, job_hash: str) -> Path:
        return self.leases_dir / f"{job_hash}.json"

    def _quarantine_path(self, job_hash: str) -> Path:
        return self.quarantine_dir / f"{job_hash}.json"

    def _claim_path(self, job_hash: str, record: dict[str, Any]) -> Path:
        """Where the one takeover of ``record`` is claimed: named after
        the record's (token, owner), which no other record repeats."""
        owner = hashlib.sha1(str(record.get("owner")).encode()).hexdigest()
        return self.leases_dir / (
            f"{job_hash}.{record.get('token', 0)}.{owner[:16]}.claim"
        )

    @staticmethod
    def _load(path: Path) -> dict[str, Any] | None:
        """A JSON record, or None when absent or torn (a torn record is
        treated as absent, the same way a crashed write would be)."""
        try:
            with path.open("r", encoding="utf-8") as fh:
                return json.load(fh)
        except (FileNotFoundError, json.JSONDecodeError):
            return None

    def read(self, job_hash: str) -> dict[str, Any] | None:
        """The current lease record, or None (never leased / released /
        corrupt)."""
        return self._load(self._lease_path(job_hash))

    def _link(self, path: Path, record: dict[str, Any]) -> bool:
        """Publish ``record`` at ``path`` unless something is already
        there — the exclusive step of every acquisition and takeover."""
        fd, staged = tempfile.mkstemp(
            dir=self.leases_dir, prefix=path.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(record, fh, separators=(",", ":"), sort_keys=True)
            # link() publishes the whole record or fails: unlike an
            # O_EXCL create followed by a write, an interrupt can never
            # leave an empty file that no peer could read or replace.
            os.link(staged, path)
            return True
        except FileExistsError:
            return False
        except OSError as error:
            raise ConfigError(f"cannot create lease {path}: {error}") from None
        finally:
            os.unlink(staged)

    def _settled(self, job_hash: str) -> bool:
        """Whether a peer parked or committed the job. Both publish
        before they drop the lease, so a check made after our exclusive
        ``link`` always sees it: the caller stands down rather than run
        the job again."""
        return (
            self._quarantine_path(job_hash).exists()
            or self.store.has(job_hash)
        )

    def _owns(self, record: dict[str, Any] | None, lease: Lease) -> bool:
        return (
            record is not None
            and record.get("state") == "active"
            and record.get("owner") == lease.owner
            and record.get("token") == lease.token
        )

    def expired(self, record: dict[str, Any]) -> bool:
        """Liveness judgement by *this worker's* clock — skew shifts the
        judgement, fencing keeps it safe."""
        if record.get("state") == "open":
            return True  # released after an in-process failure
        heartbeat = float(record.get("heartbeat", 0.0))
        return self.clock() - heartbeat > self.config.ttl

    # ------------------------------------------------------- acquisition

    def try_acquire(self, job_hash: str) -> Lease | None:
        """Claim a never-leased job via an exclusive ``link``; None when
        contended.

        For a job with an existing lease record use :meth:`try_reclaim`
        — acquisition must go through the old record so the fencing
        token stays monotonic.
        """
        now = self.clock()
        record = {
            "state": "active",
            "owner": self.owner,
            "token": 1,
            "acquired": now,
            "heartbeat": now,
            "history": [],
        }
        path = self._lease_path(job_hash)
        if path.exists() or not self._link(path, record):
            return None  # leased before: a takeover goes through try_reclaim
        if self._settled(job_hash):
            os.unlink(path)
            return None
        lease = Lease(job_hash, self.owner, 1, acquired=now)
        self._emit(
            LeaseAcquired(
                campaign=self.campaign, job=job_hash, owner=self.owner,
                token=1, reclaimed=False, at=now,
            )
        )
        return lease

    def try_reclaim(self, job_hash: str) -> Lease | None:
        """Take over an expired (or failure-released) lease.

        Exclusive: a takeover is claimed by ``link``ing the successor
        record to a claim file named after the record it replaces, so of
        N workers racing for one expired lease exactly one wins, and the
        winner then publishes its successor as the lease. A claimant
        killed between the two leaves its successor in the claim, where
        readers find it and, once it expires in turn, take over from it.

        Returns the new lease, or None when the record is live, gone,
        claimed by a peer, or pushed over the quarantine threshold (in
        which case the job was parked, not re-leased).
        """
        record = self.read(job_hash)
        while record is not None and (
            successor := self._load(self._claim_path(job_hash, record))
        ) is not None:
            record = successor
        if record is None or not self.expired(record):
            return None
        now = self.clock()
        history = list(record.get("history", ()))
        died = record.get("state") == "active"
        if died:
            # A dead (or hung past job_timeout) owner: record the death.
            # ``open`` records already carry their last chapter — fail()
            # appended it, and abandon() deliberately added nothing.
            history.append({
                "owner": record.get("owner"),
                "token": record.get("token", 0),
                "acquired": record.get("acquired"),
                "last_heartbeat": record.get("heartbeat"),
                "reason": "expired",
                "error": None,
                "ended": now,
            })
        token = int(record.get("token", 0)) + 1
        new_record = {
            "state": "active",
            "owner": self.owner,
            "token": token,
            "acquired": now,
            "heartbeat": now,
            "history": history,
        }
        claim = self._claim_path(job_hash, record)
        if not self._link(claim, new_record):
            return None  # a peer claimed this takeover first
        if self._settled(job_hash):
            claim.unlink(missing_ok=True)
            return None
        if died:
            self._emit(LeaseExpired(
                campaign=self.campaign, job=job_hash,
                owner=str(record.get("owner")), token=token - 1,
                age=now - float(record.get("heartbeat", now)),
                by=self.owner, at=now,
            ))
            if len(history) >= self.config.max_reclaims:
                self._quarantine(job_hash, history)
                return None
        atomic_write_json(self._lease_path(job_hash), new_record)
        # The claim shuts out other reclaimers, not a previous owner
        # still alive: one renewing late may overwrite us. Re-read to
        # learn who the filesystem says won; the loser backs off (and
        # if it was already running, the commit fence stops it).
        lease = Lease(job_hash, self.owner, token, acquired=now)
        if not self._owns(self.read(job_hash), lease):
            return None
        self._emit(
            LeaseAcquired(
                campaign=self.campaign, job=job_hash, owner=self.owner,
                token=token, reclaimed=True, at=now,
            )
        )
        return lease

    # ---------------------------------------------------------- lifetime

    def renew(self, lease: Lease) -> bool:
        """Refresh the heartbeat; False (and ``lease.lost``) when the
        record no longer names us — never overwrites a reclaimer."""
        record = self.read(lease.job_hash)
        if not self._owns(record, lease):
            lease.lost = True
            return False
        record["heartbeat"] = self.clock()
        atomic_write_json(self._lease_path(lease.job_hash), record)
        return True

    def heartbeat(self, lease: Lease) -> Heartbeat:
        """A context manager renewing ``lease`` while a job runs."""
        return Heartbeat(
            self, lease, self.config.heartbeat, self.config.job_timeout
        )

    def fail(
        self, lease: Lease, error: BaseException, retry: bool = True
    ) -> bool:
        """Record an in-process job failure and release the lease.

        The record flips to ``state: open`` (immediately reclaimable by
        anyone, ourselves included) with the failure appended to the
        history — in-process crashes and worker deaths draw down the
        same ``max_reclaims`` budget. ``retry=False`` parks the job at
        once: a deterministic failure would repeat on every attempt.
        Returns False when the job was quarantined instead of released.
        """
        record = self.read(lease.job_hash)
        if not self._owns(record, lease):
            return True  # already reclaimed; the reclaimer owns the story
        now = self.clock()
        history = list(record.get("history", ())) + [{
            "owner": lease.owner,
            "token": lease.token,
            "acquired": record.get("acquired"),
            "last_heartbeat": record.get("heartbeat"),
            "reason": "failed",
            "error": str(error) or type(error).__name__,
            "ended": now,
        }]
        if not retry or len(history) >= self.config.max_reclaims:
            self._quarantine(lease.job_hash, history)
            return False
        atomic_write_json(
            self._lease_path(lease.job_hash),
            {
                "state": "open",
                "owner": lease.owner,
                "token": lease.token,
                "acquired": record.get("acquired"),
                "heartbeat": now,
                "history": history,
            },
        )
        return True

    def abandon(self, lease: Lease) -> None:
        """Reopen the lease without charging its quarantine budget.

        For interruptions (SIGINT/SIGTERM) that are the *worker's*
        story, not the job's: the record flips to ``state: open`` with
        the history untouched, so any worker — including a restarted
        us — can take the job straight back.
        """
        record = self.read(lease.job_hash)
        if not self._owns(record, lease):
            return
        record["state"] = "open"
        record["heartbeat"] = self.clock()
        atomic_write_json(self._lease_path(lease.job_hash), record)

    def commit(
        self, lease: Lease, spec: JobSpec, result: Any, elapsed: float,
    ) -> bool:
        """Fencing-checked idempotent result publication.

        True — our write is the one in ``results/``. False — we were a
        stale duplicate: the result already existed, or the lease record
        stopped naming our (owner, token) because a peer reclaimed it.
        Either way the job *is* complete or will be completed by the
        fence winner; the caller just must not count it as its own.
        """
        if self.store.has(lease.job_hash):
            self._release(lease)
            return False
        if not self._owns(self.read(lease.job_hash), lease):
            lease.lost = True
            return False
        self.store.save(spec, result, elapsed, lease.token)
        self._release(lease)
        return True

    def _release(self, lease: Lease) -> None:
        """Drop the lease once its job is durable in ``results/``.

        Only when the record still names us: a reclaimer's record must
        survive so *its* commit path sees a fenced view, not a void.
        """
        if self._owns(self.read(lease.job_hash), lease):
            self._drop(lease.job_hash)

    def _drop(self, job_hash: str) -> None:
        """Remove a settled job's lease and takeover claims."""
        for path in self.leases_dir.glob(f"{job_hash}.*.claim"):
            path.unlink(missing_ok=True)
        self._lease_path(job_hash).unlink(missing_ok=True)

    def abandon_owned(self, prefix: str) -> None:
        """:meth:`abandon` every active lease whose owner id starts with
        ``prefix`` (one launcher's workers).

        For a launcher whose interrupted workers have all exited: a
        worker that took a lease just as the signal arrived never got to
        abandon it, and a resume should not wait out its ttl.
        """
        for path in self.leases_dir.glob("*.json"):
            record = self.read(path.stem)
            if record and str(record.get("owner")).startswith(prefix):
                owner, token = record["owner"], record.get("token", 0)
                self.abandon(Lease(path.stem, owner, token, acquired=0.0))

    def reset(self, job_hash: str) -> None:
        """Forget a job's result, lease and quarantine record, so the
        next drain runs it from scratch (a campaign without resume, or a
        chaos restart)."""
        self.store.discard(job_hash)
        self._quarantine_path(job_hash).unlink(missing_ok=True)
        self._drop(job_hash)

    # -------------------------------------------------------- quarantine

    def _quarantine(self, job_hash: str, history: list[dict]) -> None:
        now = self.clock()
        atomic_write_json(
            self._quarantine_path(job_hash),
            {
                "job": job_hash,
                "attempts": len(history),
                "history": history,
                "quarantined_at": now,
                "by": self.owner,
            },
        )
        self._drop(job_hash)
        self._emit(
            JobQuarantined(
                campaign=self.campaign, job=job_hash,
                attempts=len(history),
                owners=[str(entry.get("owner")) for entry in history],
                at=now,
            )
        )

    def quarantined(self) -> set[str]:
        """Hashes parked in ``quarantine/`` (one scandir, like
        :meth:`ResultStore.completed`)."""
        try:
            with os.scandir(self.quarantine_dir) as entries:
                return {
                    entry.name[:-5]
                    for entry in entries
                    if entry.name.endswith(".json")
                }
        except FileNotFoundError:
            return set()

    def quarantine_record(self, job_hash: str) -> dict[str, Any] | None:
        return self._load(self._quarantine_path(job_hash))
