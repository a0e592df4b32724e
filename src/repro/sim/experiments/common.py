"""Shared plumbing for the experiment harnesses.

Centralises the pieces every table/figure needs: trace construction from
benchmark names, a traditional shared-cache run, and a molecular run with
per-application regions — all through the throttled CMP execution model
(see :mod:`repro.sim.cmp` for why throttling matters).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.caches.setassoc import SetAssociativeCache
from repro.common.errors import ConfigError
from repro.faults.spec import FaultPlan
from repro.molecular.cache import MolecularCache
from repro.molecular.config import MolecularCacheConfig, ResizePolicy
from repro.sim.cmp import CMPRunConfig, CMPRunner, CMPRunResult
from repro.telemetry.bus import EventBus
from repro.trace.container import Trace
from repro.workloads.registry import get_model

#: Default stall, in inter-reference units, that a shared-cache miss
#: inflicts on its core (calibrated alongside the workload models).
DEFAULT_MISS_PENALTY = 10.0
#: Warm-up length as a fraction of *one* application's trace. The CMP
#: runner counts warm-up in globally issued references (all cores), so
#: in a multi-application run it is a smaller share of the run: see
#: :func:`warmup_for`.
WARMUP_FRACTION = 0.25


def warmup_for(refs_per_app: int, apps: int) -> int:
    """Warm-up length, in globally issued references, for ``apps`` x
    ``refs_per_app``.

    This is ``refs_per_app * WARMUP_FRACTION`` whatever ``apps`` is: a
    fraction of one application's trace, not of the references the run
    issues. The run ends when the first core exhausts its trace, so the
    share varies by cell: in figure5's 1 MB 4-way cell at 4 x 150k
    references, warm-up is 37,500 of 253,084 issued references (15%).
    """
    return int(refs_per_app * apps * WARMUP_FRACTION / max(apps, 1))


def build_traces(
    names: list[str] | tuple[str, ...],
    refs_per_app: int,
    seed: int = 1,
) -> dict[int, Trace]:
    """Generate one trace per benchmark, ASIDs assigned by position."""
    if not names:
        raise ConfigError("need at least one benchmark name")
    return {
        asid: get_model(name).generate(refs_per_app, seed=seed, asid=asid)
        for asid, name in enumerate(names)
    }


@dataclass(slots=True)
class MolecularRun:
    """Everything a bench needs from one molecular-cache run."""

    result: CMPRunResult
    cache: MolecularCache
    miss_rates: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.miss_rates:
            self.miss_rates = self.result.miss_rates()


def run_traditional_workload(
    traces: dict[int, Trace],
    size_bytes: int,
    associativity: int,
    policy: str = "lru",
    miss_penalty: float = DEFAULT_MISS_PENALTY,
    warmup_refs: int | None = None,
) -> CMPRunResult:
    """Run the workload on a shared traditional cache."""
    cache = SetAssociativeCache(size_bytes, associativity, policy=policy)
    if warmup_refs is None:
        refs = min(len(t) for t in traces.values())
        warmup_refs = warmup_for(refs, len(traces))
    runner = CMPRunner(cache, CMPRunConfig(miss_penalty, warmup_refs))
    return runner.run(traces)


def run_molecular_workload(
    traces: dict[int, Trace],
    config: MolecularCacheConfig,
    goals: dict[int, float | None],
    placement: str = "randy",
    resize_policy: ResizePolicy | None = None,
    tile_assignment: dict[int, int] | None = None,
    line_multipliers: dict[int, int] | None = None,
    miss_penalty: float = DEFAULT_MISS_PENALTY,
    warmup_refs: int | None = None,
    telemetry: EventBus | None = None,
    faults: FaultPlan | None = None,
) -> MolecularRun:
    """Run the workload on a molecular cache, one region per application.

    ``tile_assignment`` maps ASID to home tile; defaults to one tile per
    application in ASID order (the paper's static processor-tile mapping).
    ``telemetry`` records the run through an event bus (see
    :mod:`repro.telemetry`); the caller closes the bus. ``faults``
    schedules a fault plan against the run (``at`` counts globally issued
    references of the interleaved stream).
    """
    cache = MolecularCache(
        config, resize_policy=resize_policy or ResizePolicy(), placement=placement
    )
    for asid in sorted(traces):
        tile_id = None if tile_assignment is None else tile_assignment[asid]
        multiplier = 1 if line_multipliers is None else line_multipliers.get(asid, 1)
        cache.assign_application(
            asid,
            goal=goals.get(asid),
            tile_id=tile_id,
            line_multiplier=multiplier,
        )
    if warmup_refs is None:
        refs = min(len(t) for t in traces.values())
        warmup_refs = warmup_for(refs, len(traces))
    runner = CMPRunner(
        cache,
        CMPRunConfig(miss_penalty, warmup_refs, faults=faults),
        telemetry=telemetry,
    )
    result = runner.run(traces)
    return MolecularRun(result=result, cache=cache)
