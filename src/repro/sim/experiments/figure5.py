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
from repro.sim.scale import scaled


def run_figure5_cell(
    kind: str,
    parameter: int | str,
    size_mb: int,
    graph: str = "A",
    refs: int = 400_000,
    seed: int = 1,
    deviation_mode: DeviationMode = DeviationMode.ABSOLUTE,
    traces=None,
) -> tuple[float, dict[str, float]]:
    """One design x size cell of Figure 5: ``(deviation, miss rates)``.

    ``refs`` is the already-scaled per-application reference count.
    ``traces`` lets a serial sweep reuse one trace set across cells;
    when omitted the traces are regenerated from the seed, which yields
    the identical reference stream — the property ``repro.campaign``
    relies on to run cells in parallel workers byte-identically.
    """
    goals = goals_for_graph(graph)
    if traces is None:
        traces = build_traces(list(APPS), refs, seed)
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


def run_figure5(
    graph: str = "A",
    refs_per_app: int = 400_000,
    seed: int = 1,
    sizes_mb: tuple[int, ...] = SIZES_MB,
    deviation_mode: DeviationMode = DeviationMode.ABSOLUTE,
) -> Figure5Result:
    """Reproduce one graph of Figure 5."""
    refs = scaled(refs_per_app)
    result = Figure5Result(graph=graph.upper(), sizes_mb=tuple(sizes_mb))
    traces = build_traces(list(APPS), refs, seed)

    for label, kind, parameter in figure5_series():
        deviations: list[float] = []
        for size_mb in sizes_mb:
            deviation, rates = run_figure5_cell(
                kind,
                parameter,
                size_mb,
                graph=graph,
                refs=refs,
                seed=seed,
                deviation_mode=deviation_mode,
                traces=traces,
            )
            deviations.append(deviation)
            result.miss_rates[(label, size_mb)] = rates
        result.series[label] = deviations

    return result
