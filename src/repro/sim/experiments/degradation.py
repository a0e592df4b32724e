"""Graceful degradation — throughput vs. fraction of failed molecules.

Not a paper table: a robustness experiment for the fault model of
:mod:`repro.faults`. The SPEC quartet runs on a 1 MB molecular cache
(one 256 KB tile per application); at the warm-up boundary a fraction of
all molecules suffers hard faults (round-robin across tiles, so no tile
is singled out) and the measured window runs entirely on the degraded
cache. The resizer repairs managed regions from whatever free molecules
survive, so small fractions should cost almost nothing — the interesting
part of the curve is where the free pool runs out and capacity is
genuinely gone.

Reported per fraction: how many molecules actually retired (faults on a
region at its minimum size are refused) and were re-granted, the
post-warm-up miss rate, the mean access latency of the cache model, and
relative IPC — the throughput of the CMP timing model (references per
unit time) normalised to the fault-free run.
"""

from __future__ import annotations

from repro.common.errors import ConfigError
from repro.faults.spec import FaultPlan, FaultSpec
from repro.molecular.config import MolecularCacheConfig
from repro.sim.experiments.common import (
    build_traces,
    run_molecular_workload,
    warmup_for,
)
from repro.sim.experiments.defs.degradation import (  # noqa: F401  (re-exported)
    DEFAULT_FRACTIONS,
    DegradationResult,
    DegradationRow,
    resolve_fractions,
)
from repro.workloads.spec import SPEC_QUARTET

#: Miss-rate goal every application is managed towards.
GOAL = 0.25


def degradation_config() -> MolecularCacheConfig:
    """1 MB: one cluster of four 256 KB tiles (32 x 8 KB molecules each)."""
    return MolecularCacheConfig(
        molecule_bytes=8 * 1024,
        molecules_per_tile=32,
        tiles_per_cluster=4,
        clusters=1,
        placement="randy",
    )


def degradation_plan(
    fraction: float, at: int, config: MolecularCacheConfig | None = None
) -> FaultPlan:
    """Hard-fault ``fraction`` of all molecules at ``at``, spread
    round-robin across tiles (failure is not concentrated on one tile)."""
    if not 0.0 <= fraction < 1.0:
        raise ConfigError(
            f"failed-molecule fraction must be in [0, 1), got {fraction}"
        )
    config = config or degradation_config()
    tiles = config.tiles_per_cluster * config.clusters
    total = tiles * config.molecules_per_tile
    count = int(round(fraction * total))
    return FaultPlan.of(
        FaultSpec(
            kind="hard",
            at=at,
            target=(i % tiles) * config.molecules_per_tile + i // tiles,
        )
        for i in range(count)
    )


def run_degradation_cell(fraction: float, refs: int, seed: int = 1) -> dict:
    """One fraction of the curve; returns a JSON-able metrics payload.

    The fault plan fires at the warm-up boundary, so the measured window
    sees only the degraded cache.
    """
    names = list(SPEC_QUARTET)
    traces = build_traces(names, refs, seed)
    warmup = warmup_for(refs, len(names))
    config = degradation_config()
    run = run_molecular_workload(
        traces,
        config,
        goals={asid: GOAL for asid in range(len(names))},
        tile_assignment={asid: asid for asid in range(len(names))},
        warmup_refs=warmup,
        faults=degradation_plan(fraction, at=warmup, config=config) or None,
    )
    stats = run.cache.stats
    accesses = stats.total.accesses
    return {
        "fraction": fraction,
        "retired": stats.molecules_retired,
        "repaired": stats.molecules_repaired,
        "miss_rate": run.result.overall_miss_rate(),
        "mean_latency": stats.latency_cycles / accesses if accesses else 0.0,
        "throughput": (
            run.result.total_refs / run.result.end_time
            if run.result.end_time
            else 0.0
        ),
    }


def run_cell(params: dict, seed: int) -> dict:
    """One job of the curve (:func:`run_degradation_cell`)."""
    return run_degradation_cell(params["fraction"], params["refs"], seed=seed)
