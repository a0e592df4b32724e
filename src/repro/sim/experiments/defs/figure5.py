"""Figure 5's grid and result: cache designs x sizes, deviation series.

Imports no simulator; :mod:`repro.sim.experiments.figure5` runs the
cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigError
from repro.sim.report import format_series

#: Application order; each gets its own tile in the molecular runs.
APPS = ("art", "ammp", "parser", "mcf")
GOAL = 0.10
SIZES_MB = (1, 2, 4, 8)

TRADITIONAL_SERIES = (
    ("Direct Mapped", 1),
    ("2-way", 2),
    ("4-way", 4),
    ("8-way", 8),
)
MOLECULAR_SERIES = (
    ("Molecular (Random)", "random"),
    ("Molecular (Randy)", "randy"),
)


@dataclass(slots=True)
class Figure5Result:
    """Deviation series per cache design, indexed by cache size."""

    graph: str
    sizes_mb: tuple[int, ...]
    series: dict[str, list[float]] = field(default_factory=dict)
    miss_rates: dict[tuple[str, int], dict[str, float]] = field(default_factory=dict)

    def deviation(self, series_name: str, size_mb: int) -> float:
        return self.series[series_name][self.sizes_mb.index(size_mb)]

    def format(self) -> str:
        return format_series(
            "size",
            [f"{mb}MB" for mb in self.sizes_mb],
            self.series,
            title=(
                f"Figure 5 graph {self.graph} — average deviation from the "
                f"{GOAL:.0%} miss-rate goal"
            ),
        )


def goals_for_graph(graph: str) -> dict[int, float | None]:
    """Graph A manages all four applications; graph B leaves mcf alone."""
    graph = graph.upper()
    if graph == "A":
        return {asid: GOAL for asid in range(len(APPS))}
    if graph == "B":
        return {
            asid: (None if APPS[asid] == "mcf" else GOAL)
            for asid in range(len(APPS))
        }
    raise ConfigError(f"Figure 5 has graphs 'A' and 'B', not {graph!r}")


def figure5_series() -> list[tuple[str, str, int | str]]:
    """Every design series as ``(label, kind, parameter)``.

    ``kind`` is ``"traditional"`` (parameter = associativity) or
    ``"molecular"`` (parameter = placement policy), in the figure's
    series order.
    """
    series: list[tuple[str, str, int | str]] = [
        (label, "traditional", assoc) for label, assoc in TRADITIONAL_SERIES
    ]
    series += [
        (label, "molecular", placement) for label, placement in MOLECULAR_SERIES
    ]
    return series


#: The job kind of one design x size cell.
JOB = "cell"


def cells(refs: int, options: dict) -> list[dict]:
    """Every design x size cell of one graph, series-major; ``refs`` is
    the scaled per-application reference count."""
    graph = str(options.get("graph", "A")).upper()
    return [
        {
            "label": label,
            "kind": kind,
            "parameter": parameter,
            "size_mb": size_mb,
            "graph": graph,
            "refs": refs,
            "mode": "absolute",
        }
        for label, kind, parameter in figure5_series()
        for size_mb in SIZES_MB
    ]


def payload_shape(params: dict) -> dict:
    """One cell's payload: its deviation and a miss rate per application."""
    return {"deviation": "number", "rates": {app: "number" for app in APPS}}


def assemble(
    params: list[dict], payloads: list[dict], options: dict
) -> Figure5Result:
    """Fold the cells' deviations and miss rates (cell order) into the
    figure's series."""
    graph = str(options.get("graph", "A")).upper()
    result = Figure5Result(graph=graph, sizes_mb=SIZES_MB)
    for cell, payload in zip(params, payloads):
        label = cell["label"]
        result.series.setdefault(label, []).append(payload["deviation"])
        result.miss_rates[(label, cell["size_mb"])] = payload["rates"]
    return result
