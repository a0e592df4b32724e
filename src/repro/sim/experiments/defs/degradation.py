"""The degradation curve's grid and result: one row per failed fraction.

Imports no simulator; :mod:`repro.sim.experiments.degradation` runs the
fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigError
from repro.sim.report import format_table

#: Fractions of the cache's molecules hit by hard faults.
DEFAULT_FRACTIONS = (0.0, 0.125, 0.25, 0.5)


@dataclass(slots=True)
class DegradationRow:
    """One point of the degradation curve."""

    fraction: float
    retired: int
    repaired: int
    miss_rate: float
    mean_latency: float
    throughput: float
    relative_ipc: float = 1.0


@dataclass(slots=True)
class DegradationResult:
    """The degradation curve, baseline (fraction 0) first."""

    rows: list[DegradationRow] = field(default_factory=list)

    def row(self, fraction: float) -> DegradationRow:
        for row in self.rows:
            if row.fraction == fraction:
                return row
        raise KeyError(fraction)

    @property
    def worst_relative_ipc(self) -> float:
        return min((row.relative_ipc for row in self.rows), default=1.0)

    def format(self) -> str:
        table_rows = [
            [
                f"{row.fraction:.1%}",
                row.retired,
                row.repaired,
                f"{row.miss_rate:.4f}",
                f"{row.mean_latency:.2f}",
                f"{row.relative_ipc:.3f}",
            ]
            for row in self.rows
        ]
        table = format_table(
            [
                "failed fraction",
                "retired",
                "repaired",
                "miss rate",
                "mean latency",
                "relative IPC",
            ],
            table_rows,
            title="Degradation — SPEC quartet vs fraction of failed molecules",
        )
        return (
            table
            + f"\nworst relative IPC: {self.worst_relative_ipc:.3f} "
            f"(1.000 = fault-free throughput)"
        )


def resolve_fractions(fractions) -> tuple[float, ...]:
    """Sorted, deduplicated fractions with the 0.0 baseline forced in."""
    resolved = sorted({0.0, *(float(f) for f in fractions or DEFAULT_FRACTIONS)})
    for fraction in resolved:
        if not 0.0 <= fraction < 1.0:
            raise ConfigError(
                f"failed-molecule fraction must be in [0, 1), got {fraction}"
            )
    return tuple(resolved)


#: The job kind of one point of the curve.
JOB = "fraction"


def cells(refs: int, options: dict) -> list[dict]:
    """One cell per failed fraction; ``refs`` is the scaled
    per-application reference count. :func:`resolve_fractions` forces
    the 0.0 baseline in, so the first cell is always the fault-free run
    every other cell is normalised against."""
    return [
        {"fraction": fraction, "refs": refs}
        for fraction in resolve_fractions(options.get("fractions"))
    ]


def assemble(
    params: list[dict], payloads: list[dict], options: dict
) -> DegradationResult:
    """Fold per-fraction payloads (baseline first) into the curve."""
    result = DegradationResult()
    baseline = payloads[0]["throughput"]
    for cell in payloads:
        result.rows.append(
            DegradationRow(
                fraction=cell["fraction"],
                retired=cell["retired"],
                repaired=cell["repaired"],
                miss_rate=cell["miss_rate"],
                mean_latency=cell["mean_latency"],
                throughput=cell["throughput"],
                relative_ipc=(
                    cell["throughput"] / baseline if baseline else 1.0
                ),
            )
        )
    return result
