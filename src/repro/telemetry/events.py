"""Typed structured events for the telemetry subsystem.

Every event is a frozen, slotted dataclass with a ``kind`` discriminator so
a recorded stream can be serialised to JSONL (:class:`~repro.telemetry.sinks.
JsonlSink`) and replayed later (:mod:`repro.telemetry.replay`) without any
schema negotiation: one JSON object per line, ``kind`` selects the class.

The event vocabulary mirrors the paper's observable dynamics:

* :class:`AccessSampled` — every Nth reference through the access path
  (block, hit/miss, probe counts), for spot-checking behaviour.
* :class:`RemoteSearch` — a hierarchical Ulmo search left the home tile
  (paper section 3.3); high-volume, so the bus can subsample it.
* :class:`ResizeDecision` — one Algorithm-1 evaluation for one region:
  the branch taken (``grow`` / ``withdraw`` / ``grow-denied`` / ``hold``)
  with the window miss rate it saw.
* :class:`MoleculeGranted` / :class:`MoleculeWithdrawn` — the resize
  engine actually moved capacity (Figure 6's step changes).
* :class:`MoleculeRemapped` — the consistent-hashing mechanism
  (:mod:`repro.molecular.chash`) migrated resident blocks between
  molecules during a resize instead of flushing them.
* :class:`EpochRollover` — a periodic snapshot of every region's epoch
  miss rate, molecule count, occupancy and hits-per-molecule; the raw
  material of the paper's time-resolved plots.
* :class:`RunMeta` — a stream header describing the cache and its regions.
* :class:`JobSubmitted` / :class:`JobStarted` / :class:`JobRetried` /
  :class:`JobCompleted` — campaign lifecycle (:mod:`repro.campaign`):
  one sweep job scheduled, handed to a worker, transiently failed, and
  made durable in the result store.
* :class:`FaultInjected` / :class:`MoleculeRetired` /
  :class:`RegionRepaired` — the fault-injection subsystem
  (:mod:`repro.faults`): a scheduled fault fired, a molecule was retired
  by a hard fault, and the resize engine replaced retired capacity.
* :class:`CampaignInterrupted` — a campaign stopped by SIGINT/SIGTERM
  with its completed results persisted and its leases reopened.
* :class:`LeaseAcquired` / :class:`LeaseExpired` / :class:`JobQuarantined`
  — the lease protocol (:mod:`repro.campaign.lease`): a
  worker claimed (or reclaimed) a job, a dead worker's lease aged out
  and was taken over, and a poison job was parked after exhausting its
  reclaim budget. These carry a wall-clock ``at`` stamp — unlike every
  other event — because they come from *independent processes* whose
  streams ``repro inspect`` must interleave by time.

This module depends only on the standard library so instrumented code
(`molecular/cache.py`, `molecular/resize.py`) can import it without
dragging in the sim layer.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, ClassVar


@dataclass(frozen=True, slots=True)
class TelemetryEvent:
    """Base class: ``kind`` discriminator + dict/JSON round-tripping."""

    kind: ClassVar[str] = ""

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict form with the ``kind`` discriminator first."""
        payload: dict[str, Any] = {"kind": self.kind}
        payload.update(asdict(self))
        return payload

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "TelemetryEvent":
        """Rebuild an event from a decoded JSON object (sans ``kind``)."""
        return cls(**payload)


@dataclass(frozen=True, slots=True)
class RunMeta(TelemetryEvent):
    """Stream header: the cache geometry and its regions at attach time."""

    kind: ClassVar[str] = "run_meta"

    total_bytes: int
    clusters: int
    tiles: int
    molecules_per_tile: int
    lines_per_molecule: int
    #: asid -> {"goal", "home_tile", "molecules", "line_multiplier"}
    regions: dict[int, dict[str, Any]]

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "RunMeta":
        payload = dict(payload)
        payload["regions"] = _int_keys(payload.get("regions", {}))
        return cls(**payload)


@dataclass(frozen=True, slots=True)
class AccessSampled(TelemetryEvent):
    """Every Nth reference through the molecular access path."""

    kind: ClassVar[str] = "access_sampled"

    seq: int
    asid: int
    block: int
    hit: bool
    write: bool
    local_probes: int
    remote_probes: int


@dataclass(frozen=True, slots=True)
class RemoteSearch(TelemetryEvent):
    """An access escalated past the home tile into Ulmo's search."""

    kind: ClassVar[str] = "remote_search"

    seq: int
    asid: int
    tiles_searched: int
    molecules_probed: int
    found: bool


@dataclass(frozen=True, slots=True)
class ResizeDecision(TelemetryEvent):
    """One Algorithm-1 evaluation for one region.

    ``action`` is the branch taken: ``grow``, ``withdraw``, ``grow-denied``
    (the allocator had no free molecules), ``withdraw-denied`` (the floor
    or the placement policy refused every withdrawal) or ``hold`` (no
    capacity change). ``period`` is the resize period in effect when the
    decision fired.
    """

    kind: ClassVar[str] = "resize_decision"

    accesses: int
    asid: int
    action: str
    amount: int
    window_miss_rate: float
    molecules: int
    period: int


@dataclass(frozen=True, slots=True)
class MoleculeGranted(TelemetryEvent):
    """The resize engine granted molecules to a region."""

    kind: ClassVar[str] = "molecule_granted"

    accesses: int
    asid: int
    count: int
    tiles: list[int]
    molecules: int


@dataclass(frozen=True, slots=True)
class MoleculeWithdrawn(TelemetryEvent):
    """The resize engine withdrew (and flushed) molecules from a region."""

    kind: ClassVar[str] = "molecule_withdrawn"

    accesses: int
    asid: int
    count: int
    writebacks: int
    molecules: int


@dataclass(frozen=True, slots=True)
class MoleculeRemapped(TelemetryEvent):
    """The chash mechanism migrated resident blocks during a resize.

    ``action`` is the capacity change that triggered the remap (``grow``,
    ``withdraw`` or ``repair``), ``count`` the molecules added or removed,
    ``moved`` the resident blocks migrated into their new ring owners,
    ``spilled`` the dirty lines written back because no survivor had a
    free slot, and ``molecules`` the region size after the change.
    """

    kind: ClassVar[str] = "molecule_remapped"

    accesses: int
    asid: int
    action: str
    count: int
    moved: int
    spilled: int
    molecules: int


@dataclass(frozen=True, slots=True)
class EpochRollover(TelemetryEvent):
    """Periodic per-region metric snapshot (the timeline's data points).

    ``regions`` maps each ASID to its metrics over the epoch just ended:
    ``accesses``, ``miss_rate`` (epoch-local, not cumulative),
    ``molecules`` (at the boundary), ``occupancy`` (valid-line fraction),
    ``goal`` and ``hpm`` (epoch hit rate / molecule count — the paper's
    Figure 6 metric, epoch-resolved).
    """

    kind: ClassVar[str] = "epoch_rollover"

    epoch: int
    seq: int
    mean_molecules_probed: float
    free_molecules: int
    regions: dict[int, dict[str, Any]]

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "EpochRollover":
        payload = dict(payload)
        payload["regions"] = _int_keys(payload.get("regions", {}))
        return cls(**payload)


@dataclass(frozen=True, slots=True)
class AuditReport(TelemetryEvent):
    """One full-state invariant audit (:mod:`repro.audit.invariants`).

    Emitted by drivers running with an audit cadence; ``violations``
    holds the rendered ``[slug] message`` strings (empty when ``ok``).
    """

    kind: ClassVar[str] = "audit_report"

    accesses: int
    checks: int
    ok: bool
    violations: list[str]


@dataclass(frozen=True, slots=True)
class JobSubmitted(TelemetryEvent):
    """A campaign job entered the schedule (before any execution)."""

    kind: ClassVar[str] = "job_submitted"

    campaign: str
    job: str  # the spec's content hash
    experiment: str
    index: int


@dataclass(frozen=True, slots=True)
class JobStarted(TelemetryEvent):
    """A lease worker acquired a campaign job and is about to run it."""

    kind: ClassVar[str] = "job_started"

    campaign: str
    job: str
    index: int
    attempt: int


@dataclass(frozen=True, slots=True)
class JobRetried(TelemetryEvent):
    """A campaign job failed transiently and will run again."""

    kind: ClassVar[str] = "job_retried"

    campaign: str
    job: str
    index: int
    attempt: int  # the attempt about to run
    error: str


@dataclass(frozen=True, slots=True)
class JobCompleted(TelemetryEvent):
    """A campaign job's result is durable in the store.

    ``cached`` marks jobs satisfied straight from a previous campaign's
    stored result (resume / identical re-run) — no execution happened.
    """

    kind: ClassVar[str] = "job_completed"

    campaign: str
    job: str
    index: int
    attempts: int
    elapsed: float
    cached: bool


@dataclass(frozen=True, slots=True)
class FaultInjected(TelemetryEvent):
    """A scheduled fault fired (:mod:`repro.faults`).

    ``fault`` is the spec kind (``hard`` / ``transient`` / ``degraded``),
    ``target`` the molecule or tile id, ``applied`` whether the fault had
    any effect (a hard fault on an already-retired molecule, or a
    transient fault on an empty molecule, is a no-op) and ``detail`` a
    short human-readable note (e.g. the block a transient fault dropped).
    """

    kind: ClassVar[str] = "fault_injected"

    accesses: int
    fault: str
    target: int
    applied: bool
    detail: str


@dataclass(frozen=True, slots=True)
class MoleculeRetired(TelemetryEvent):
    """A hard fault permanently removed a molecule from service."""

    kind: ClassVar[str] = "molecule_retired"

    accesses: int
    molecule: int
    tile: int
    asid: int  # owner at retirement time (FREE for a free-pool molecule)
    shared: bool
    writebacks: int
    molecules: int  # owning region's size after retirement (0 if free)


@dataclass(frozen=True, slots=True)
class RegionRepaired(TelemetryEvent):
    """The resize engine replaced capacity lost to hard faults."""

    kind: ClassVar[str] = "region_repaired"

    accesses: int
    asid: int
    requested: int
    granted: int
    tiles: list[int]
    molecules: int


@dataclass(frozen=True, slots=True)
class CampaignInterrupted(TelemetryEvent):
    """A campaign stopped on SIGINT/SIGTERM; completed work is durable."""

    kind: ClassVar[str] = "campaign_interrupted"

    campaign: str
    signal: str  # "SIGINT" / "SIGTERM"
    completed: int
    pending: int


@dataclass(frozen=True, slots=True)
class LeaseAcquired(TelemetryEvent):
    """A worker claimed one campaign job via the lease protocol.

    ``token`` is the job's fencing token (its lifetime acquisition
    count); ``reclaimed`` distinguishes a takeover of a dead worker's
    lease from a first claim.
    """

    kind: ClassVar[str] = "lease_acquired"

    campaign: str
    job: str  # the spec's content hash
    owner: str
    token: int
    reclaimed: bool
    at: float  # wall clock, comparable across workers


@dataclass(frozen=True, slots=True)
class LeaseExpired(TelemetryEvent):
    """A lease outlived its ttl and was taken over by a peer.

    ``owner``/``token`` name the presumed-dead holder, ``by`` the worker
    that noticed, ``age`` how stale the last heartbeat was (by the
    noticing worker's clock).
    """

    kind: ClassVar[str] = "lease_expired"

    campaign: str
    job: str
    owner: str
    token: int
    age: float
    by: str
    at: float


@dataclass(frozen=True, slots=True)
class JobQuarantined(TelemetryEvent):
    """A job exhausted its lease-reclaim budget and was parked.

    ``owners`` lists the worker that died (or failed) on each attempt,
    oldest first — the crash-loop fingerprint ``repro inspect`` shows.
    """

    kind: ClassVar[str] = "job_quarantined"

    campaign: str
    job: str
    attempts: int
    owners: list[str]
    at: float


def _int_keys(table: dict) -> dict[int, Any]:
    """JSON objects stringify integer keys; undo that on replay."""
    return {int(key): value for key, value in table.items()}


#: kind -> event class, for deserialisation.
EVENT_TYPES: dict[str, type[TelemetryEvent]] = {
    cls.kind: cls
    for cls in (
        RunMeta,
        AccessSampled,
        RemoteSearch,
        ResizeDecision,
        MoleculeGranted,
        MoleculeWithdrawn,
        MoleculeRemapped,
        EpochRollover,
        AuditReport,
        JobSubmitted,
        JobStarted,
        JobRetried,
        JobCompleted,
        FaultInjected,
        MoleculeRetired,
        RegionRepaired,
        CampaignInterrupted,
        LeaseAcquired,
        LeaseExpired,
        JobQuarantined,
    )
}


def event_from_dict(payload: dict[str, Any]) -> TelemetryEvent | None:
    """Rebuild an event from its ``as_dict`` form.

    Returns ``None`` for unknown kinds so replay tolerates streams written
    by newer versions of the library.
    """
    data = dict(payload)
    kind = data.pop("kind", None)
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        return None
    return cls.from_payload(data)
