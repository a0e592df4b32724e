"""Seeded randomized fuzz harness for the cache simulators.

Generates operation streams — accesses across several applications ×
placement policies × line multipliers × resize triggers × resize
mechanisms × shared regions × migrations × forced resize rounds — and
runs each stream through the differential oracle
(:mod:`repro.audit.oracle`): ``access_block`` in lockstep with the
stdlib spec (:mod:`repro.audit.spec`), ``access_many``, and a brute arm
audited after every op, with the full-state auditor firing at epoch
boundaries. A failure (a spec divergence, an invariant violation or a
divergence between arms) is shrunk to a minimal reproducing stream with
a ddmin-style chunk reducer before it is reported, so a ``repro fuzz``
failure is directly debuggable.

Everything is deterministic in the seed: the same
``seed × placement × trigger`` cell always generates the same scenario
and stream, which is what makes the CI smoke job meaningful.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field

from repro.audit.invariants import DEFAULT_CADENCE
from repro.audit.oracle import (
    PATHS,
    AppSpec,
    Op,
    OracleReport,
    Scenario,
    run_oracle,
)
from repro.common.errors import ConfigError

#: Placement policies and resize triggers the default sweep covers.
ALL_PLACEMENTS = ("random", "randy", "lru_direct")
ALL_TRIGGERS = ("constant", "global_adaptive", "per_app_adaptive")

#: Resize mechanisms the harness can sweep. The default sweep runs only
#: ``flush`` so the established fixed-seed CI streams stay byte-stable;
#: the chash arm is opted into per run (``repro fuzz --mechanism``).
ALL_MECHANISMS = ("flush", "chash")

#: Line multipliers the generator draws from (1 = base line size).
LINE_MULTIPLIERS = (1, 2, 4)

#: Epoch length for the in-stream audits: every this many operations the
#: oracle runs the full auditor on each arm. Chosen well below the
#: generator's resize period so audits land between *and* across resize
#: rounds.
AUDIT_EPOCH = 500

#: Cap on predicate evaluations while shrinking one failure.
_SHRINK_BUDGET = 80


@dataclass(frozen=True, slots=True)
class FuzzFailure:
    """One failing cell, after shrinking."""

    scenario: Scenario
    ops: tuple[Op, ...]
    divergences: tuple[str, ...]
    original_ops: int

    def summary(self) -> str:
        head = "; ".join(self.divergences[:3])
        return (
            f"{self.scenario.placement}/{self.scenario.trigger}"
            f"/{self.scenario.mechanism} "
            f"seed={self.scenario.seed}: {len(self.divergences)} "
            f"divergence(s) reproduced by {len(self.ops)} op(s) "
            f"(shrunk from {self.original_ops}): {head}"
        )


@dataclass(slots=True)
class FuzzReport:
    """Outcome of one fuzz sweep."""

    seed: int
    cells: list[tuple[str, str, str]] = field(default_factory=list)
    operations: int = 0
    audits: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "clean" if self.ok else f"{len(self.failures)} FAILING cell(s)"
        return (
            f"fuzz seed={self.seed}: {len(self.cells)} cell(s), "
            f"{self.operations} operation(s) through {len(PATHS)} arms, "
            f"~{self.audits} audit(s) per arm: {status}"
        )


# ------------------------------------------------------------ generation


def generate_scenario(
    rng: random.Random, placement: str, trigger: str, seed: int
) -> Scenario:
    """A small, fully-exercised geometry for one fuzz cell.

    One cluster of three 6-molecule tiles (512 B molecules, 64 B lines —
    8 lines per molecule) keeps every run fast while still leaving room
    for growth, withdrawal, remote placement, a shared region and
    same-cluster migration.
    """
    multiplier_a = rng.choice(LINE_MULTIPLIERS)
    multiplier_b = rng.choice(LINE_MULTIPLIERS)
    shared = rng.random() < 0.75
    apps = [
        AppSpec(asid=0, goal=rng.choice((0.1, 0.3)), tile_id=0,
                line_multiplier=multiplier_a, initial_molecules=2),
        AppSpec(asid=1, goal=rng.choice((0.2, None)), tile_id=1,
                line_multiplier=multiplier_b, initial_molecules=2),
    ]
    shared_tiles: tuple[tuple[int, int], ...] = ()
    if shared:
        shared_tiles = ((2, 2),)
        apps.append(AppSpec(asid=2, tile_id=2, shared=True))
    return Scenario(
        apps=tuple(apps),
        shared_tiles=shared_tiles,
        placement=placement,
        trigger=trigger,
        seed=seed,
    )


def generate_ops(
    rng: random.Random, scenario: Scenario, count: int, faults: bool = False
) -> list[Op]:
    """A ``count``-operation stream for ``scenario``.

    Each application walks a hot set (sized to stress its partition) with
    a cold tail, ~30 % writes; forced resize rounds and same-cluster
    migrations are sprinkled in so the structural paths fire even on
    short streams. With ``faults`` enabled, random fault ops (hard
    retirement, transient line drops, tile degradation) join the mix —
    off by default so the established fixed-seed streams stay stable.
    """
    asids = [app.asid for app in scenario.apps]
    hot: dict[int, tuple[int, int]] = {}
    for app in scenario.apps:
        base = 1 + app.asid * 100_000
        span = rng.randint(48, 384)
        hot[app.asid] = (base, span)
    tile_count = scenario.tiles_per_cluster * scenario.clusters
    molecule_count = tile_count * scenario.molecules_per_tile
    movable = [app.asid for app in scenario.apps if not app.shared]
    ops: list[Op] = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.0005:
            ops.append(("force_resize",))
            continue
        if roll < 0.0009 and movable:
            ops.append(
                ("migrate", rng.choice(movable), rng.randrange(tile_count))
            )
            continue
        if faults and roll < 0.0021:
            if roll < 0.0013:
                ops.append(("fault", "hard", rng.randrange(molecule_count)))
            elif roll < 0.0018:
                ops.append(
                    ("fault", "transient", rng.randrange(molecule_count))
                )
            else:
                ops.append(
                    (
                        "fault",
                        "degraded",
                        rng.randrange(tile_count),
                        rng.choice((4, 8, 16)),
                    )
                )
            continue
        asid = rng.choice(asids)
        base, span = hot[asid]
        if rng.random() < 0.85:
            block = base + rng.randrange(span)
        else:
            block = base + span + rng.randrange(span * 8)
        ops.append(("access", asid, block, rng.random() < 0.3))
    return ops


# -------------------------------------------------------------- shrinking


def shrink_ops(
    scenario: Scenario,
    ops: list[Op],
    audit_every: int,
    paths=PATHS,
    budget: int = _SHRINK_BUDGET,
) -> list[Op]:
    """ddmin-style chunk reduction to a (locally) minimal failing stream.

    The predicate is "the oracle still reports any divergence" — not the
    same divergence, which lets the reducer slide into a simpler failure
    of the same run, exactly what a debugger wants first.
    """

    def fails(candidate: list[Op]) -> bool:
        return not run_oracle(
            scenario, candidate, audit_every=audit_every, paths=paths
        ).ok

    calls = 0
    granularity = 2
    while len(ops) >= 2 and calls < budget:
        chunk = max(1, len(ops) // granularity)
        reduced = False
        start = 0
        while start < len(ops) and calls < budget:
            candidate = ops[:start] + ops[start + chunk:]
            calls += 1
            if candidate and fails(candidate):
                ops = candidate
                reduced = True
                # Same granularity, same start: the next chunk now lives
                # where the removed one was.
            else:
                start += chunk
        if not reduced:
            if chunk == 1:
                break
            granularity *= 2
        else:
            granularity = max(granularity - 1, 2)
    return ops


# ------------------------------------------------------------------ sweep


def fuzz(
    ops: int = 50_000,
    seed: int = 0,
    placements=None,
    triggers=None,
    audit_every: int | None = None,
    paths=PATHS,
    shrink: bool = True,
    log=None,
    faults: bool = False,
    mechanisms=None,
) -> FuzzReport:
    """Run the differential fuzz sweep over placements × triggers ×
    resize mechanisms.

    Each cell generates its own scenario and stream (deterministic in
    ``seed``), replays it through every oracle arm with audits every
    ``audit_every`` operations (default :data:`AUDIT_EPOCH`; the brute
    arm always audits per-op), and shrinks any failure. ``faults``
    mixes random fault schedules (molecule retirement, transient line
    drops, tile degradation) into every cell's stream. ``mechanisms``
    defaults to ``("flush",)``: flush cells derive their streams from
    the historical ``seed/placement/trigger`` RNG key (byte-stable with
    pre-mechanism releases), while a chash cell salts the key with the
    mechanism name so the two backends face *different* streams too —
    run both to replay one shared stream per backend pair.
    """
    if ops < 1:
        raise ConfigError(f"need at least one operation, got {ops}")
    placements = tuple(placements or ALL_PLACEMENTS)
    triggers = tuple(triggers or ALL_TRIGGERS)
    mechanisms = tuple(mechanisms or ("flush",))
    for placement in placements:
        if placement not in ALL_PLACEMENTS:
            raise ConfigError(
                f"unknown placement {placement!r}; expected one of "
                f"{ALL_PLACEMENTS}"
            )
    for trigger in triggers:
        if trigger not in ALL_TRIGGERS:
            raise ConfigError(
                f"unknown trigger {trigger!r}; expected one of {ALL_TRIGGERS}"
            )
    for mechanism in mechanisms:
        if mechanism not in ALL_MECHANISMS:
            raise ConfigError(
                f"unknown mechanism {mechanism!r}; expected one of "
                f"{ALL_MECHANISMS}"
            )
    cadence = AUDIT_EPOCH if audit_every is None else audit_every
    if cadence < 0:
        raise ConfigError(f"audit cadence cannot be negative, got {cadence}")

    report = FuzzReport(seed=seed)
    for placement in placements:
        for trigger in triggers:
            for mechanism in mechanisms:
                rng_key = f"{seed}/{placement}/{trigger}"
                if mechanism != "flush":
                    rng_key += f"/{mechanism}"
                cell_rng = random.Random(rng_key)
                scenario = generate_scenario(cell_rng, placement, trigger, seed)
                stream = generate_ops(cell_rng, scenario, ops, faults=faults)
                # Drawn *after* the stream so established fixed-seed streams
                # stay stable. Half the cells run without a telemetry bus,
                # so the simulator is also run with no event emission.
                if cell_rng.random() < 0.5:
                    scenario = dataclasses.replace(scenario, telemetry=False)
                if mechanism != "flush":
                    scenario = dataclasses.replace(
                        scenario, mechanism=mechanism
                    )
                report.cells.append((placement, trigger, mechanism))
                report.operations += len(stream)
                report.audits += len(stream) // cadence if cadence else 0
                if log is not None:
                    log(
                        f"fuzz {placement}/{trigger}/{mechanism}: "
                        f"{len(stream)} ops, "
                        f"audit every {cadence or 'never'}"
                    )
                result: OracleReport = run_oracle(
                    scenario, stream, audit_every=cadence, paths=paths
                )
                if result.ok:
                    continue
                minimal = stream
                if shrink:
                    if log is not None:
                        log(
                            f"fuzz {placement}/{trigger}/{mechanism}: FAILED "
                            f"({len(result.divergences)} divergence(s)); "
                            f"shrinking..."
                        )
                    minimal = shrink_ops(scenario, list(stream), cadence, paths)
                    result = run_oracle(
                        scenario, minimal, audit_every=cadence, paths=paths
                    )
                report.failures.append(
                    FuzzFailure(
                        scenario=scenario,
                        ops=tuple(minimal),
                        divergences=tuple(result.divergences)
                        or ("failure vanished while shrinking (flaky repro)",),
                        original_ops=len(stream),
                    )
                )
    return report
