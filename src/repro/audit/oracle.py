"""Differential oracle: one op stream, a spec in lockstep, and the engine.

The molecular cache has one body of its access rule, the access engine
(:mod:`repro.molecular.engine`). The oracle replays one operation stream
on independently built caches (same :class:`Scenario`, same seed)
through three arms (DESIGN.md section 8):

``spec``
    ``access_block`` in :class:`Lockstep` with the stdlib spec
    (:mod:`repro.audit.spec`), which shares no code with the simulator.
``engine``
    ``access_many`` between structural ops.
``brute``
    ``access_block`` with the full invariant auditor after **every** op.

The engine and brute arms are diffed against the spec arm's end state:
stats, occupancy, resize log and telemetry. A spec divergence is an
interpretation question (DESIGN.md section 4); an
:class:`~repro.audit.invariants.AuditError` means the simulator
corrupted its own bookkeeping. The fuzz harness (:mod:`repro.audit.fuzz`)
feeds this with randomized streams and shrinks whatever fails.

Operations are plain tuples so streams stay hashable, serialisable and
trivially shrinkable:

``("access", asid, block, write)``
    One memory reference.
``("force_resize",)``
    Run a resize round immediately (``Resizer.force_resize``).
``("migrate", asid, tile_id)``
    Re-home an application (ignored when the topology forbids it, in
    every arm alike, so streams stay valid under shrinking).
``("fault", kind, target[, extra_cycles])``
    Inject one fault (:func:`repro.faults.injector.apply_fault`) at this
    position in the stream: ``("fault", "hard", 3)`` retires molecule 3,
    ``("fault", "transient", 3)`` drops one of its lines, and
    ``("fault", "degraded", 1, 8)`` inflates tile 1's port latency.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from repro.audit.invariants import assert_invariants
from repro.audit.spec import Spec, SpecError
from repro.common.errors import ConfigError, SimulationError, UnknownASIDError
from repro.common.rng import DeterministicRNG, XorShift64
from repro.molecular.cache import MolecularCache
from repro.molecular.config import MolecularCacheConfig, ResizePolicy

#: The replay arms the oracle knows, in the order they are run.
PATHS = ("spec", "engine", "brute")

#: How :class:`Lockstep` reaches the cache.
ENTRIES = ("access_block", "access_many", "session")

#: Accesses per telemetry epoch on every arm's bus. The arms keep the
#: epoch clock a driver's run schedule keeps (:mod:`repro.sim.schedule`):
#: an epoch closes after its last access, outside any ``access_many``
#: call, so every arm emits the same rollovers.
EPOCH_REFS = 100

#: Ring-buffer capacity for the recorded telemetry streams. Large enough
#: that the fuzzer's streams never wrap (drops would still be identical
#: across arms, but a full buffer makes divergences exact).
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
    """Everything needed to build identical caches for every arm."""

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
    #: Attach a telemetry bus, whose events (epoch rollovers, resize
    #: rounds, faults) the arms must emit alike. Kept in the scenario so
    #: the fuzzer can run some cells without one.
    telemetry: bool = True
    #: Resize mechanism (``flush`` / ``chash``) — the fuzzer's mechanism
    #: axis replays one op stream through both backends.
    mechanism: str = "flush"

    def build(self, telemetry: bool | None = None, rng=None):
        """A fresh cache (and its ring-buffer sink, or ``None``).

        ``rng`` replaces the cache's ``XorShift64(seed)``; the spec arm
        passes a :class:`DrawTape` reader over the same sequence.
        """
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
            rng=rng if rng is not None else XorShift64(self.seed),
        )
        sink = None
        if telemetry is None:
            telemetry = self.telemetry
        if telemetry:
            sink = RingBufferSink(capacity=_EVENT_CAPACITY)
            cache.attach_telemetry(EventBus([sink], epoch_refs=EPOCH_REFS))
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
    """Observable end state of one replay arm."""

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


# ------------------------------------------------------------ spec plumbing


class DrawTape(DeterministicRNG):
    """The simulator's RNG, and the same draw sequence read by index.

    The cache draws through :meth:`next_u64` and the spec reads
    ``tape[i]``, each at its own pace, so the spec can predict an
    ``access_many`` call before it runs; the lockstep check compares
    :attr:`drawn` with the spec's count.
    """

    def __init__(self, seed: int) -> None:
        self._source = XorShift64(seed)
        self._values: list[int] = []
        self.drawn = 0

    def __getitem__(self, index: int) -> int:
        while len(self._values) <= index:
            self._values.append(self._source.next_u64())
        return self._values[index]

    def next_u64(self) -> int:
        self.drawn += 1
        return self[self.drawn - 1]


class SpecDivergence(Exception):
    """The simulator did not do what the spec predicts."""


def _molecule_state(molecule) -> dict:
    return {
        "tile": molecule.tile_id,
        "failed": molecule.failed,
        "lines": list(molecule.lines),
        "dirty": [bool(bit) for bit in molecule.dirty],
        "misses": molecule.replacement_misses,
    }


def _region_state(cache: MolecularCache, region) -> dict:
    return {
        "home": region.home_tile_id,
        "k": region.line_multiplier,
        "rows": [[m.molecule_id for m in row] for row in region.rows],
        "row_misses": list(region.row_misses),
        "goal": region.goal,
        "stamps": dict(getattr(cache.placement, "_touch", {}).get(region, {})),
    }


def snapshot(cache: MolecularCache) -> dict:
    """The cache's membership and lines as plain data (the spec's input).

    ``tiles``: tile -> cluster, molecule ids and degraded-port cycles;
    ``molecules``: id -> tile, retired flag, lines, dirty bits and
    replacement misses; ``regions``: key -> home tile, line multiplier,
    replacement-view rows of molecule ids, row misses, goal and
    LRU-Direct stamps, keyed by ASID for an exclusive region and
    ``("shared", tile)`` for a tile's shared region; ``apps``: ASID ->
    region key; ``shared``: tile -> region key; ``clock``: LRU-Direct's
    touch clock.
    """
    keys = {id(r): ("shared", t) for t, r in cache._shared_regions.items()}
    for asid, region in cache.regions.items():
        keys.setdefault(id(region), asid)
    tiles = cache._tiles.values()
    return {
        "lines_per_molecule": cache.config.lines_per_molecule,
        "tiles": {
            t.tile_id: {"cluster": t.cluster_id, "extra_cycles": t.extra_port_cycles,
                        "molecules": [m.molecule_id for m in t.molecules]}
            for t in tiles
        },
        "molecules": {m.molecule_id: _molecule_state(m) for t in tiles for m in t.molecules},
        "regions": {
            keys[id(r)]: _region_state(cache, r)
            for r in [*cache._shared_regions.values(), *cache.regions.values()]
        },
        "apps": {asid: keys[id(region)] for asid, region in cache.regions.items()},
        "shared": {t: keys[id(r)] for t, r in cache._shared_regions.items()},
        "clock": getattr(cache.placement, "_clock", 0),
    }


def observe_counters(cache: MolecularCache) -> dict:
    """The counters :meth:`Spec.counters` predicts, read off the cache."""
    stats = cache.stats
    return {
        "asids": {
            asid: (c.accesses, c.hits, c.evictions, c.writebacks)
            for asid, c in stats.lifetime.items() if c.accesses
        },
        "probed_local": stats.molecules_probed_local,
        "probed_remote": stats.molecules_probed_remote,
        "comparisons": stats.asid_comparisons,
        "fetched": stats.lines_fetched,
        "cycles": stats.latency_cycles,
        # Rounds and faults add their flush writebacks to both counters.
        "writebacks": stats.writebacks_to_memory - stats.flush_writebacks,
        "ulmo": {
            c.cluster_id: (c.ulmo.stats.tile_misses, c.ulmo.stats.remote_hits,
                           c.ulmo.stats.global_misses)
            for c in cache.clusters
        },
        "rounds": stats.resize_events,
    }


def observe_triggers(cache: MolecularCache) -> dict:
    """The periods and countdowns :meth:`Spec.triggers` predicts."""
    resizer = cache.resizer
    if resizer.policy.trigger != "per_app_adaptive":
        return {None: (resizer.global_period, resizer.global_countdown)}
    return {
        asid: (region.resize_period, region.resize_countdown)
        for asid, region in cache.regions.items()
        if region.asid == asid and region.goal is not None
    }


def _epoch_due(cache, accesses: int) -> bool:
    """Whether ``accesses`` accesses close an epoch of ``cache``'s bus."""
    bus = cache.telemetry
    return bus is not None and bus.epoch_refs > 0 and accesses % bus.epoch_refs == 0


def _expect(what: str, got, want) -> None:
    if got == want:
        return
    if isinstance(got, dict) and isinstance(want, dict):
        key = next(k for k in {**want, **got} if got.get(k) != want.get(k))
        what, got, want = f"{what} [{key!r}]", got.get(key), want.get(key)
    raise SpecDivergence(f"{what}: simulator {got!r} != spec {want!r}")


class Lockstep:
    """A cache and the spec, stepped through one op stream together.

    ``entry`` picks how accesses reach the cache: ``access_block``
    (the spec also predicts each ``AccessResult``), a held ``session``
    (its hit flag), or ``access_many`` calls that end at each structural
    op and each predicted resize round (checked once per call). A
    :class:`SpecDivergence` names the first disagreement. A simulator
    error is re-raised once the partial state is checked against the
    spec's state before the failing access. ``columns`` maps the block,
    ASID and write lists of one ``access_many`` call to the columns it is
    given (ndarrays, say); by default the lists themselves. Every
    :data:`EPOCH_REFS` accesses the bus's epoch rolls over, after the
    buffered accesses are flushed.
    """

    def __init__(self, scenario: Scenario, entry: str = "access_block",
                 telemetry: bool | None = None, columns=None) -> None:
        self.entry = entry
        self.columns = columns or (lambda *lists: lists)
        self.rng = DrawTape(scenario.seed)
        cache, self.sink = scenario.build(telemetry, rng=self.rng)
        self.cache = cache
        self.molecules = {m.molecule_id: m for t in cache._tiles.values() for m in t.molecules}
        policy, p = cache.resize_policy, cache.latency_model.params
        self.spec = Spec(
            snapshot(cache), placement=cache.placement.name, trigger=policy.trigger,
            period=policy.period, floor=policy.period_floor, cap=policy.period_cap,
            latency=(p.asid_compare_cycles, p.molecule_access_cycles,
                     p.ulmo_dispatch_cycles, p.tile_hop_cycles, p.memory_cycles),
            draws=self.rng,
        )
        self.session = None
        self.pending: list[tuple[int, int, bool]] = []
        self.chunk_start: Spec | None = None
        self.accesses = 0

    # ---------------------------------------------------------- checking

    def check_counters(self, where: str) -> None:
        cache, spec = self.cache, self.spec
        _expect(f"{where}: counters", observe_counters(cache), spec.counters())
        _expect(f"{where}: draws taken", self.rng.drawn, spec.drawn)
        _expect(f"{where}: resize triggers", observe_triggers(cache), spec.triggers())

    def check_state(self, where: str) -> None:
        """Counters, then every line, view and stamp of the cache."""
        self.check_counters(where)
        _expect(f"{where}: cache state", snapshot(self.cache), self.spec.model)

    def _check_access(self, where: str, outcome: dict, hit: bool, result) -> None:
        _expect(f"{where}: hit", hit, outcome["hit"])
        if result is not None:
            got = (result.hit, result.evicted_block, result.writeback,
                   result.molecules_probed_local, result.molecules_probed_remote,
                   result.lines_filled, result.extra.get("remote_tiles_searched", 0))
            want = tuple(outcome[k] for k in (
                "hit", "evicted_block", "writeback", "local", "remote",
                "lines_filled", "remote_tiles"))
            _expect(f"{where}: access result", got, want)
        self.check_counters(where)
        if outcome["fired"]:
            # The round may have moved any line: adopt what it left.
            self.spec.adopt(snapshot(self.cache))
            return
        cache, model, key = self.cache, self.spec.model, outcome["view"]
        for m in outcome["touched"]:
            _expect(f"{where}: molecule {m}", _molecule_state(self.molecules[m]),
                    model["molecules"][m])
        region = cache._shared_regions[key[1]] if isinstance(key, tuple) else cache.regions[key]
        _expect(f"{where}: region {key!r}", _region_state(cache, region),
                model["regions"][key])
        _expect(f"{where}: LRU-Direct clock",
                getattr(cache.placement, "_clock", 0), model["clock"])

    # ------------------------------------------------------------ driving

    def access(self, asid: int, block: int, write: bool) -> None:
        self.accesses += 1
        self._step(asid, block, write)
        if _epoch_due(self.cache, self.accesses):
            self.flush()
            self.cache.telemetry.rollover(self.accesses)

    def _step(self, asid: int, block: int, write: bool) -> None:
        where = f"access {self.accesses} {(asid, block, write)}"
        if self.entry == "access_many":
            if not self.pending:
                # The copy shares the draw tape: it is the same sequence.
                self.chunk_start = copy.deepcopy(self.spec, {id(self.rng): self.rng})
            self.pending.append((block, asid, write))
            try:
                fired = self.spec.access(asid, block, write)["fired"]
            except SpecError as exc:
                self.flush()  # the simulator must refuse it too
                raise SpecDivergence(f"{where}: {exc}; the simulator took it") from None
            if fired:
                self.flush()
            return
        try:
            if self.entry == "session":
                if self.session is None:
                    self.session = self.cache.access_session()
                hit, result = self.session.access(block, asid, write), None
            else:
                result = self.cache.access_block(block, asid, write)
                hit = result.hit
        except (SimulationError, UnknownASIDError):
            # The spec has not taken this step: it holds the state the
            # failed access must leave untouched.
            self.check_state(f"{where}, which the simulator refused")
            raise
        try:
            outcome = self.spec.access(asid, block, write)
        except SpecError as exc:
            raise SpecDivergence(f"{where}: {exc}; the simulator took it") from None
        self._check_access(where, outcome, hit, result)

    def flush(self) -> None:
        """Run the buffered accesses through one ``access_many`` call."""
        pending, self.pending = self.pending, []
        if not pending:
            return
        where = f"access_many ending at access {self.accesses}"
        start = self.chunk_start
        try:
            self.cache.access_many(*self.columns(*(list(c) for c in zip(*pending))))
        except (SimulationError, UnknownASIDError):
            # Replay the spec from the call's start to the failing access.
            done = self.cache.stats.total.accesses - start.total
            self.spec = start
            for block, asid, write in pending[:done]:
                start.access(asid, block, write)
            self.check_state(f"{where}, refused at its access {done + 1}")
            raise
        self.check_counters(where)
        if self.spec.rounds != start.rounds:
            self.spec.adopt(snapshot(self.cache))
        else:
            _expect(f"{where}: cache state", snapshot(self.cache), self.spec.model)

    def structural(self, op: Op) -> None:
        self.flush()
        self.check_state(f"before {op}")
        _apply_structural(self.cache, op)
        if op[0] == "force_resize":
            self.spec.round()
            self.check_counters(f"after {op}")
        self.spec.adopt(snapshot(self.cache))

    def run(self, ops, audit_every: int = 0) -> None:
        """Step every op, auditing every ``audit_every`` ops, then check
        the whole state once more."""
        for index, op in enumerate(ops, 1):
            if op[0] == "access":
                self.access(op[1], op[2], op[3])
            else:
                self.structural(op)
            if audit_every and index % audit_every == 0:
                self.flush()
                assert_invariants(self.cache)
        self.flush()
        self.check_state("end of stream")
        if audit_every:
            assert_invariants(self.cache)


# ----------------------------------------------------------------- arms


def _apply_structural(cache: MolecularCache, op: Op) -> None:
    if op[0] == "force_resize":
        cache.resizer.force_resize()
    elif op[0] == "migrate":
        try:
            cache.migrate_application(op[1], op[2])
        except ConfigError:
            # Cross-cluster or shared-region migration: invalid in every
            # arm alike (topology is scenario state), so skipping keeps
            # the streams comparable and shrinking closed under deletion.
            pass
    elif op[0] == "fault":
        from repro.faults.injector import apply_fault
        from repro.faults.spec import FaultSpec

        # at=0: the fault fires at its place in the stream.
        extra = op[3] if len(op) > 3 else 0
        apply_fault(cache, FaultSpec(kind=op[1], at=0, target=op[2], extra_cycles=extra))
    else:  # pragma: no cover - generator bug
        raise ConfigError(f"unknown structural op {op[0]!r}")


def end_state(path: str, cache, sink=None, error: str | None = None) -> PathResult:
    """What an arm leaves to diff: stats, occupancy, resize log, events."""
    return PathResult(
        path=path,
        stats=cache.stats.as_dict(),
        occupancy=cache.occupancy_report(),
        resize_log=list(cache.resizer.log),
        events=[event.as_dict() for event in sink] if sink is not None else [],
        error=error,
    )


def _drive(cache, ops, path: str, audit_every: int) -> None:
    """The engine and brute arms' loop over ``ops``."""
    pending: list[tuple[int, int, bool]] = []  # buffered accesses (engine arm)
    accesses = 0

    def flush() -> None:
        if pending:
            cache.access_many(*(list(c) for c in zip(*pending)))
            pending.clear()

    for index, op in enumerate(ops, 1):
        if op[0] != "access":
            flush()
            _apply_structural(cache, op)
        else:
            if path == "engine":
                pending.append((op[2], op[1], op[3]))
            else:
                cache.access_block(op[2], op[1], op[3])
            accesses += 1
            if _epoch_due(cache, accesses):
                flush()
                cache.telemetry.rollover(accesses)
        if path == "brute" or (audit_every and index % audit_every == 0):
            flush()
            assert_invariants(cache)
    flush()
    if path == "brute" or audit_every:
        assert_invariants(cache)


def replay(
    scenario: Scenario,
    ops,
    path: str = "spec",
    audit_every: int = 0,
) -> PathResult:
    """Replay ``ops`` on a fresh cache through one arm.

    ``audit_every`` runs :func:`assert_invariants` every N operations
    (an epoch boundary for the fuzzer); the ``brute`` arm audits after
    every single operation regardless.
    """
    if path not in PATHS:
        raise ConfigError(f"unknown oracle path {path!r}; expected one of {PATHS}")
    lockstep = Lockstep(scenario) if path == "spec" else None
    cache, sink = (lockstep.cache, lockstep.sink) if lockstep else scenario.build()
    error: str | None = None
    try:
        if lockstep is not None:
            lockstep.run(ops, audit_every)
        else:
            _drive(cache, ops, path, audit_every)
    except SpecDivergence as exc:
        error = f"SpecDivergence: {exc}"
    except SimulationError as exc:
        error = f"{type(exc).__name__}: {exc}"
    return end_state(path, cache, sink, error)


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
    """Replay ``ops`` through every arm and report all divergences.

    The spec arm is the reference: its own error (a spec divergence or
    an audit failure) is reported first, and every other arm's end state
    is diffed against it.
    """
    ops = list(ops)
    report = OracleReport(scenario=scenario)
    for path in paths:
        report.results[path] = replay(scenario, ops, path, audit_every)
    reference = report.results.get("spec")
    if reference is None:
        reference = report.results[next(iter(report.results))]
    if reference.error is not None:
        report.divergences.append(f"{reference.path}: {reference.error}")
    for path, result in report.results.items():
        if result is reference:
            continue
        report.divergences.extend(diff_results(reference, result))
    return report
