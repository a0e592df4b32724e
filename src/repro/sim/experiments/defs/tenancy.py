"""The tenancy sweep's grid and result: policies x tenant mixes.

Imports no simulator; :mod:`repro.sim.experiments.tenancy` runs the
cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigError
from repro.sim.report import format_table
from repro.tenants.policies import policy_names

DEFAULT_TENANTS = (10, 100)
DEFAULT_CHURN = (0.0, 0.3)
DEFAULT_SKEW = (0.5, 1.0)


def resolve_axis(values, default, cast, label: str) -> tuple:
    """Sorted, deduplicated axis values with validation."""
    resolved = sorted({cast(v) for v in (values or default)})
    if not resolved:
        raise ConfigError(f"tenancy sweep needs at least one {label} value")
    return tuple(resolved)


def resolve_grid(options: dict) -> list[tuple[int, float, float, str]]:
    """The cell list, in deterministic sweep order."""
    tenants = resolve_axis(options.get("tenants"), DEFAULT_TENANTS, int, "tenants")
    if any(n < 1 for n in tenants):
        raise ConfigError("tenant counts must be >= 1")
    churn = resolve_axis(options.get("churn"), DEFAULT_CHURN, float, "churn")
    skew = resolve_axis(options.get("skew"), DEFAULT_SKEW, float, "skew")
    policies = tuple(options.get("policies") or policy_names())
    known = set(policy_names())
    unknown = [p for p in policies if p not in known]
    if unknown:
        raise ConfigError(
            f"unknown allocation policies {unknown}; available: {sorted(known)}"
        )
    return [
        (n, c, s, p)
        for n in tenants
        for c in churn
        for s in skew
        for p in policies
    ]


@dataclass(slots=True)
class TenancyResult:
    """The assembled sweep, in grid order."""

    rows: list[dict] = field(default_factory=list)

    def cell(self, tenants: int, churn: float, skew: float, policy: str) -> dict:
        for row in self.rows:
            if (
                row["tenants"] == tenants
                and row["churn"] == churn
                and row["skew"] == skew
                and row["policy"] == policy
            ):
                return row
        raise KeyError((tenants, churn, skew, policy))

    def _verdict(self) -> str:
        """need vs static at the most hostile grid point both ran."""
        points = sorted(
            {
                (row["tenants"], row["churn"], row["skew"])
                for row in self.rows
            },
            key=lambda p: (p[1], p[2], p[0]),
        )
        for tenants, churn, skew in reversed(points):
            try:
                need = self.cell(tenants, churn, skew, "need")
                static = self.cell(tenants, churn, skew, "static")
            except KeyError:
                continue
            delta = need["aggregate_hit_rate"] - static["aggregate_hit_rate"]
            comparison = "beats" if delta > 0 else "does NOT beat"
            return (
                f"verdict: need-driven {comparison} static split at "
                f"{tenants} tenants, churn {churn:g}, skew {skew:g} "
                f"({need['aggregate_hit_rate']:.4f} vs "
                f"{static['aggregate_hit_rate']:.4f}, "
                f"{delta:+.4f} aggregate hit rate)"
            )
        return "verdict: need/static comparison not in this grid"

    def format(self) -> str:
        table_rows = [
            [
                row["tenants"],
                f"{row['churn']:g}",
                f"{row['skew']:g}",
                row["policy"],
                f"{row['aggregate_hit_rate']:.4f}",
                f"{row['mean_hit_rate']:.4f}",
                f"{row['jain']:.3f}",
                row["sla_violation_epochs"],
                row["moved_blocks"],
            ]
            for row in self.rows
        ]
        table = format_table(
            [
                "tenants",
                "churn",
                "skew",
                "policy",
                "agg hit",
                "mean hit",
                "jain",
                "SLA epochs",
                "moved",
            ],
            table_rows,
            title="Tenancy sweep — allocation policy vs tenant mix",
        )
        return table + "\n" + self._verdict()


def assemble_cells(cells: list[dict]) -> TenancyResult:
    return TenancyResult(rows=list(cells))
