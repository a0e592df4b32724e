"""Figure 6 — hits-per-molecule (HPM) for Random vs Randy placement.

For the mixed 12-benchmark workload of Table 2, the paper plots each
application's HPM (hit rate per allocated molecule, log scale) under the
two placement policies, and observes that Randy's HPM is higher for all
but four applications while achieving a ~9 % lower overall miss rate with
~5 % more molecules.

The figure reads Table 2's two molecular cells; imports no simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.experiments.defs import table2
from repro.sim.report import format_table

#: The experiment whose cells these are, and the rows of it read.
EXPERIMENT, JOB, payload_shape = "table2", table2.JOB, table2.payload_shape
ROWS = ("6MB Molecular Randy", "6MB Molecular Random")


@dataclass(slots=True)
class Figure6Result:
    """Per-application HPM for each placement policy."""

    hpm: dict[str, dict[str, float]] = field(default_factory=dict)
    overall_miss_rate: dict[str, float] = field(default_factory=dict)
    mean_molecules: dict[str, float] = field(default_factory=dict)

    @property
    def miss_rate_improvement(self) -> float:
        """Randy's relative miss-rate reduction vs Random (paper: ~9 %)."""
        random_mr = self.overall_miss_rate.get("random", 0.0)
        randy_mr = self.overall_miss_rate.get("randy", 0.0)
        if random_mr == 0:
            return 0.0
        return (random_mr - randy_mr) / random_mr

    @property
    def molecule_overhead(self) -> float:
        """Randy's relative extra molecule usage vs Random (paper: ~5 %)."""
        random_m = self.mean_molecules.get("random", 0.0)
        randy_m = self.mean_molecules.get("randy", 0.0)
        if random_m == 0:
            return 0.0
        return (randy_m - random_m) / random_m

    def format(self) -> str:
        policies = sorted(self.hpm)
        rows = [
            [name, *[self.hpm[p].get(name, 0.0) for p in policies]]
            for name in table2.APPS
        ]
        table = format_table(
            ["benchmark", *[f"HPM {p}" for p in policies]],
            rows,
            title="Figure 6 — hits per molecule, Random vs Randy",
            float_format="{:.5f}",
        )
        summary = (
            f"\noverall miss rate: "
            + ", ".join(f"{p}={self.overall_miss_rate[p]:.3f}" for p in policies)
            + f"\nmean molecules in use: "
            + ", ".join(f"{p}={self.mean_molecules[p]:.1f}" for p in policies)
            + f"\nRandy miss-rate improvement: {self.miss_rate_improvement:+.1%}"
            f" (paper: +9%) with {self.molecule_overhead:+.1%} more molecules"
            f" (paper: +5%)"
        )
        return table + summary


def cells(refs: int, options: dict) -> list[dict]:
    """Table 2's molecular cells, Randy first."""
    return [cell for cell in table2.cells(refs, options) if cell["label"] in ROWS]


def assemble(
    params: list[dict], payloads: list[dict], options: dict
) -> Figure6Result:
    """Each placement's HPM, overall miss rate and molecules in use."""
    result = Figure6Result()
    for cell, payload in zip(params, payloads):
        placement = cell["placement"]
        result.hpm[placement] = payload["hpm"]
        result.overall_miss_rate[placement] = payload["overall_miss_rate"]
        result.mean_molecules[placement] = payload["mean_molecules"]
    return result
