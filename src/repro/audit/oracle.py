"""Differential oracle: one op stream, several independent access paths.

The molecular cache keeps two bodies of the access rule that must stay
byte-identical — the scalar reference (``access_block``) and the
allocation-free session (``access_session``) — reached through three
entry points: ``access_block``, bulk ``access_many`` (a loop over one
session per call) and a session held across the whole stream. On top of
those the oracle runs a *brute-force* path: the scalar reference with
the full invariant auditor run after **every** operation. The oracle
replays one operation stream through each path on independently built
caches (same :class:`Scenario`, same seed) and diffs everything
observable afterwards: the stats dictionary, the occupancy report, the
resize chronicle and the recorded telemetry stream.

A divergence means one of the fast paths drifted from the reference; an
:class:`~repro.audit.invariants.AuditError` from the brute-force path
means the reference itself corrupted its own bookkeeping. The fuzz
harness (:mod:`repro.audit.fuzz`) feeds this with randomized streams and
shrinks whatever fails.

Operations are plain tuples so streams stay hashable, serialisable and
trivially shrinkable:

``("access", asid, block, write)``
    One memory reference.
``("force_resize",)``
    Run a resize round immediately (``Resizer.force_resize``).
``("migrate", asid, tile_id)``
    Re-home an application (ignored when the topology forbids it, in
    every path alike, so streams stay valid under shrinking).
``("fault", kind, target[, extra_cycles])``
    Inject one fault (:func:`repro.faults.injector.apply_fault`) at this
    position in the stream: ``("fault", "hard", 3)`` retires molecule 3,
    ``("fault", "transient", 3)`` drops one of its lines, and
    ``("fault", "degraded", 1, 8)`` inflates tile 1's port latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.audit.invariants import assert_invariants
from repro.common.errors import ConfigError, SimulationError
from repro.common.rng import XorShift64
from repro.molecular.cache import MolecularCache
from repro.molecular.config import MolecularCacheConfig, ResizePolicy

#: The replay paths the oracle knows, in the order they are run.
PATHS = ("scalar", "batched", "session", "brute")

#: Ring-buffer capacity for the recorded telemetry streams. Large enough
#: that the fuzzer's streams never wrap (drops would still be identical
#: across paths, but a full buffer makes divergences exact).
_EVENT_CAPACITY = 1 << 17

Op = tuple


@dataclass(frozen=True, slots=True)
class AppSpec:
    """One application of a scenario.

    ``shared=True`` attaches the ASID to its tile's shared region
    (``assign_shared_application``) instead of granting exclusive
    molecules.
    """

    asid: int
    goal: float | None = 0.2
    tile_id: int | None = None
    line_multiplier: int = 1
    initial_molecules: int | None = None
    shared: bool = False


@dataclass(frozen=True, slots=True)
class Scenario:
    """Everything needed to build identical caches for every path."""

    apps: tuple[AppSpec, ...]
    shared_tiles: tuple[tuple[int, int], ...] = ()  # (tile_id, molecules)
    molecule_bytes: int = 512
    line_bytes: int = 64
    molecules_per_tile: int = 6
    tiles_per_cluster: int = 3
    clusters: int = 1
    placement: str = "randy"
    trigger: str = "global_adaptive"
    period: int = 200
    period_floor: int = 50
    min_window_refs: int = 16
    seed: int = 11
    #: Attach the telemetry bus. Kept in the scenario so the fuzzer can
    #: disable it for some cells: without a bus the fast paths construct
    #: no per-access ``AccessResult``, which telemetry-free cells put on
    #: trial.
    telemetry: bool = True
    #: Resize mechanism (``flush`` / ``chash``) — the fuzzer's mechanism
    #: axis replays one op stream through both backends.
    mechanism: str = "flush"

    def build(self, telemetry: bool | None = None):
        """A fresh cache (and its ring-buffer sink, or ``None``)."""
        from repro.telemetry.bus import EventBus
        from repro.telemetry.sinks import RingBufferSink

        config = MolecularCacheConfig(
            molecule_bytes=self.molecule_bytes,
            line_bytes=self.line_bytes,
            molecules_per_tile=self.molecules_per_tile,
            tiles_per_cluster=self.tiles_per_cluster,
            clusters=self.clusters,
            strict=False,
        )
        policy = ResizePolicy(
            period=self.period,
            trigger=self.trigger,
            period_floor=self.period_floor,
            min_window_refs=self.min_window_refs,
            mechanism=self.mechanism,
        )
        cache = MolecularCache(
            config,
            policy,
            placement=self.placement,
            rng=XorShift64(self.seed),
        )
        sink = None
        if telemetry is None:
            telemetry = self.telemetry
        if telemetry:
            sink = RingBufferSink(capacity=_EVENT_CAPACITY)
            cache.attach_telemetry(
                EventBus(
                    sinks=[sink],
                    epoch_refs=100,
                    sample_interval=7,
                    remote_search_sample=2,
                )
            )
        for tile_id, molecules in self.shared_tiles:
            cache.create_shared_region(tile_id, molecules)
        for app in self.apps:
            if app.shared:
                cache.assign_shared_application(app.asid, app.tile_id)
            else:
                cache.assign_application(
                    app.asid,
                    goal=app.goal,
                    tile_id=app.tile_id,
                    line_multiplier=app.line_multiplier,
                    initial_molecules=app.initial_molecules,
                )
        return cache, sink


@dataclass(slots=True)
class PathResult:
    """Observable end state of one replay path."""

    path: str
    stats: dict
    occupancy: dict
    resize_log: list
    events: list
    error: str | None = None


@dataclass(slots=True)
class OracleReport:
    """Outcome of one differential run."""

    scenario: Scenario
    results: dict[str, PathResult] = field(default_factory=dict)
    divergences: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences


def _apply_structural(cache: MolecularCache, op: Op) -> None:
    if op[0] == "force_resize":
        cache.resizer.force_resize()
    elif op[0] == "migrate":
        try:
            cache.migrate_application(op[1], op[2])
        except ConfigError:
            # Cross-cluster or shared-region migration: invalid in every
            # path alike (topology is scenario state), so skipping keeps
            # the streams comparable and shrinking closed under deletion.
            pass
    elif op[0] == "fault":
        from repro.faults.injector import apply_fault
        from repro.faults.spec import FaultSpec

        apply_fault(
            cache,
            FaultSpec(
                kind=op[1],
                at=0,  # positional: fires at its place in the stream
                target=op[2],
                extra_cycles=op[3] if len(op) > 3 else 0,
            ),
        )
    else:  # pragma: no cover - generator bug
        raise ConfigError(f"unknown structural op {op[0]!r}")


def replay(
    scenario: Scenario,
    ops,
    path: str = "scalar",
    audit_every: int = 0,
) -> PathResult:
    """Replay ``ops`` on a fresh cache through one access path.

    ``audit_every`` runs :func:`assert_invariants` every N accesses (an
    epoch boundary for the fuzzer); the ``brute`` path audits after every
    single operation regardless.
    """
    if path not in PATHS:
        raise ConfigError(f"unknown oracle path {path!r}; expected one of {PATHS}")
    cache, sink = scenario.build()
    session = cache.access_session() if path == "session" else None
    pending: list[Op] = []  # buffered consecutive accesses (batched path)
    since_audit = 0
    error: str | None = None

    def flush() -> None:
        if not pending:
            return
        blocks = [op[2] for op in pending]
        asids = [op[1] for op in pending]
        writes = [op[3] for op in pending]
        cache.access_many(blocks, asids, writes)
        pending.clear()

    def audit_now() -> None:
        assert_invariants(cache)

    try:
        for op in ops:
            if op[0] == "access":
                if path == "batched":
                    pending.append(op)
                elif path == "session":
                    session.access(op[2], op[1], op[3])
                else:  # scalar, brute
                    cache.access_block(op[2], op[1], op[3])
            else:
                if path == "batched":
                    flush()
                _apply_structural(cache, op)
            if path == "brute":
                audit_now()
            elif audit_every:
                since_audit += 1
                if since_audit >= audit_every:
                    flush()
                    audit_now()
                    since_audit = 0
        flush()
        if path == "brute" or audit_every:
            audit_now()
    except SimulationError as exc:
        error = f"{type(exc).__name__}: {exc}"

    return PathResult(
        path=path,
        stats=cache.stats.as_dict(),
        occupancy=cache.occupancy_report(),
        resize_log=list(cache.resizer.log),
        events=[event.as_dict() for event in sink] if sink is not None else [],
        error=error,
    )


def _diff_events(reference: PathResult, other: PathResult) -> list[str]:
    diffs: list[str] = []
    a, b = reference.events, other.events
    if len(a) != len(b):
        diffs.append(
            f"{other.path}: {len(b)} telemetry events != "
            f"{len(a)} on {reference.path}"
        )
    for index, (ea, eb) in enumerate(zip(a, b)):
        if ea != eb:
            diffs.append(
                f"{other.path}: telemetry event {index} diverges: "
                f"{eb} != {ea}"
            )
            break
    return diffs


def diff_results(reference: PathResult, other: PathResult) -> list[str]:
    """Human-readable divergences of ``other`` from ``reference``."""
    diffs: list[str] = []
    if other.error != reference.error:
        diffs.append(
            f"{other.path}: error {other.error!r} != {reference.error!r} "
            f"on {reference.path}"
        )
        return diffs  # post-error state is not comparable
    for key in reference.stats:
        if other.stats.get(key) != reference.stats[key]:
            diffs.append(
                f"{other.path}: stats[{key!r}] {other.stats.get(key)!r} != "
                f"{reference.stats[key]!r}"
            )
    if other.occupancy != reference.occupancy:
        diffs.append(
            f"{other.path}: occupancy report diverges: "
            f"{other.occupancy} != {reference.occupancy}"
        )
    if other.resize_log != reference.resize_log:
        diffs.append(
            f"{other.path}: resize log ({len(other.resize_log)} entries) "
            f"!= reference ({len(reference.resize_log)})"
        )
    diffs.extend(_diff_events(reference, other))
    return diffs


def run_oracle(
    scenario: Scenario,
    ops,
    audit_every: int = 0,
    paths=PATHS,
) -> OracleReport:
    """Replay ``ops`` through every path and report all divergences.

    The scalar path is the reference; an audit failure on any path is a
    divergence in its own right (carried in ``PathResult.error`` — the
    scalar and brute paths run the same accesses, so an error unique to
    one of them is itself a detected inconsistency).
    """
    ops = list(ops)
    report = OracleReport(scenario=scenario)
    for path in paths:
        report.results[path] = replay(scenario, ops, path, audit_every)
    reference = report.results.get("scalar")
    if reference is None:
        reference = report.results[next(iter(report.results))]
    if reference.error is not None:
        report.divergences.append(
            f"{reference.path}: {reference.error}"
        )
    for path, result in report.results.items():
        if result is reference:
            continue
        report.divergences.extend(diff_results(reference, result))
    return report
