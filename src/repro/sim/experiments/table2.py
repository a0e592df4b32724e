"""Table 2 — mixed 12-benchmark workload, deviation from a 25 % goal.

Twelve benchmarks (SPEC + NetBench + MediaBench) in three groups of four;
each group is pinned to one 2 MB tile cluster of a 6 MB molecular cache
(4 x 512 KB tiles per cluster). Baselines: the same twelve benchmarks
sharing traditional 4 MB and 8 MB caches at 4- and 8-way.

The paper's headline: the 6 MB molecular cache with Randy beats even the
8 MB 8-way traditional cache; Random placement is clearly worse.

Each cache design is one cell; this module simulates the cells of
Table 2, Figure 6, Table 4 and Table 5 alike.
"""

from __future__ import annotations

from repro.analysis.metrics import average_deviation
from repro.molecular.config import MolecularCacheConfig
from repro.sim.experiments.common import (
    run_molecular_workload,
    run_traditional_workload,
    shared_traces,
)
from repro.sim.experiments.defs.table2 import (  # noqa: F401  (re-exported)
    APPS,
    GOAL,
    PAPER_TABLE2,
    Table2Result,
)


def molecular_6mb_config(placement: str) -> MolecularCacheConfig:
    """The paper's 6 MB molecular configuration: 3 clusters x 4 x 512 KB."""
    return MolecularCacheConfig(
        molecule_bytes=8 * 1024,
        molecules_per_tile=64,  # 512 KB tiles
        tiles_per_cluster=4,
        clusters=3,
        placement=placement,
    )


def run_cell(params: dict, seed: int) -> dict:
    """One cache design of the table: its deviation and miss rates, and
    for a molecular cache what Figure 6 and the power model read.
    ``params["refs"]`` is the scaled per-application reference count."""
    traces = shared_traces(APPS, params["refs"], seed)
    goals: dict[int, float | None] = {asid: GOAL for asid in range(len(APPS))}
    if params["kind"] == "traditional":
        rates = run_traditional_workload(
            traces, params["size_bytes"], params["associativity"]
        ).miss_rates()
        return {
            "deviation": average_deviation(rates, goals),
            "rates": {APPS[a]: r for a, r in rates.items()},
        }
    # Three groups of four, assigned to clusters "without giving
    # consideration to the nature of the mix" — i.e. in suite order. Each
    # application gets its own tile within its group's cluster.
    placement = params["placement"]
    run = run_molecular_workload(
        traces,
        molecular_6mb_config(placement),
        goals,
        placement=placement,
        tile_assignment={asid: asid for asid in range(len(APPS))},
    )
    hpm: dict[str, float] = {}
    mean_molecules = 0.0
    for asid, region in run.cache.regions.items():
        hpm[APPS[asid]] = region.hits_per_molecule()
        mean_molecules += region.mean_molecules
    return {
        "deviation": average_deviation(run.miss_rates, goals),
        "rates": {APPS[a]: r for a, r in run.miss_rates.items()},
        "hpm": hpm,
        "mean_molecules": mean_molecules,
        "overall_miss_rate": run.result.overall_miss_rate(),
        "probes": run.cache.stats.probe_counters(),
    }
