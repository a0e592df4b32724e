"""Figure 5 — average deviation from the miss-rate goal vs cache size.

Graph A: a 10 % goal for all four SPEC benchmarks; Graph B: a 10 % goal
for art/ammp/parser only (mcf unmanaged). Six cache designs at 1/2/4/8 MB:
direct-mapped, 2/4/8-way LRU (shared), and molecular caches (4 tiles, one
cluster) with the Random and Randy placement policies.

The paper's headline behaviour: traditional deviations fall smoothly with
size and associativity; molecular deviations collapse at a *threshold*
size (4 MB for graph A, 2 MB for graph B) once enough free molecules exist
for every partition to reach its goal.
"""

from __future__ import annotations

from functools import lru_cache

from repro.analysis.metrics import DeviationMode, average_deviation
from repro.common.errors import ConfigError
from repro.molecular.config import MolecularCacheConfig
from repro.sim.experiments.common import (
    build_traces,
    run_molecular_workload,
    run_traditional_workload,
)
from repro.sim.experiments.defs.figure5 import (  # noqa: F401  (re-exported)
    APPS,
    GOAL,
    MOLECULAR_SERIES,
    SIZES_MB,
    TRADITIONAL_SERIES,
    Figure5Result,
    figure5_series,
    goals_for_graph,
)


@lru_cache(maxsize=1)
def _traces(refs: int, seed: int):
    """The four applications' traces, kept for the next cell.

    Every cell of one sweep replays the same four streams, so a worker
    (or the serial run) builds them once per ``(refs, seed)`` instead of
    once per cell. One entry is enough, and holds one trace set alive
    at most: the cells of a sweep share a key.
    """
    return build_traces(list(APPS), refs, seed)


def run_figure5_cell(
    kind: str,
    parameter: int | str,
    size_mb: int,
    graph: str = "A",
    refs: int = 400_000,
    seed: int = 1,
    deviation_mode: DeviationMode = DeviationMode.ABSOLUTE,
) -> tuple[float, dict[str, float]]:
    """One design x size cell of Figure 5: ``(deviation, miss rates)``.

    ``refs`` is the already-scaled per-application reference count. The
    traces are a pure function of ``(refs, seed)``, so a cell yields the
    same result in any process and after any other cell — the property
    ``repro.campaign`` relies on to run cells in parallel workers
    byte-identically.
    """
    goals = goals_for_graph(graph)
    traces = _traces(refs, seed)
    if kind == "traditional":
        run = run_traditional_workload(traces, size_mb << 20, parameter)
        rates = run.miss_rates()
    elif kind == "molecular":
        config = MolecularCacheConfig.for_total_size(
            size_mb << 20, clusters=1, tiles_per_cluster=4, strict=False
        )
        mol = run_molecular_workload(
            traces,
            config,
            goals,
            placement=parameter,
            tile_assignment={asid: asid for asid in range(len(APPS))},
        )
        rates = mol.miss_rates
    else:
        raise ConfigError(f"unknown Figure 5 series kind {kind!r}")
    deviation = average_deviation(rates, goals, deviation_mode)
    return deviation, {APPS[a]: r for a, r in rates.items()}


def run_cell(params: dict, seed: int) -> dict:
    """One job of the figure: the cell's deviation and miss rates."""
    deviation, rates = run_figure5_cell(
        params["kind"],
        params["parameter"],
        params["size_mb"],
        graph=params["graph"],
        refs=params["refs"],
        seed=seed,
        deviation_mode=DeviationMode(params["mode"]),
    )
    return {"deviation": deviation, "rates": rates}
