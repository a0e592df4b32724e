"""Per-region metric timelines assembled from epoch rollovers.

:class:`MetricsTimeline` is a sink that keeps only the
:class:`~repro.telemetry.events.EpochRollover` events — the periodic
per-region snapshots — and turns them into the time-resolved views the
paper plots: miss rate, molecule count, occupancy and hits-per-molecule
per epoch. It works identically attached to a live bus or fed from a
replayed trace, which is how ``python -m repro inspect`` renders
its tables.
"""

from __future__ import annotations

from repro.telemetry.events import EpochRollover, TelemetryEvent

#: Metric key -> table float format.
METRIC_FORMATS = {
    "miss_rate": "{:.3f}",
    "molecules": "{:d}",
    "occupancy": "{:.3f}",
    "hpm": "{:.4f}",
    "accesses": "{:d}",
}


class MetricsTimeline:
    """Accumulates epoch snapshots; renders per-region metric tables."""

    def __init__(self) -> None:
        self.epochs: list[EpochRollover] = []

    # ----------------------------------------------------------------- sink

    def emit(self, event: TelemetryEvent) -> None:
        if isinstance(event, EpochRollover):
            self.epochs.append(event)

    # ------------------------------------------------------------ accessors

    def __len__(self) -> int:
        return len(self.epochs)

    def asids(self) -> list[int]:
        """Every ASID that appears in any epoch, ascending."""
        seen: set[int] = set()
        for epoch in self.epochs:
            seen.update(epoch.regions)
        return sorted(seen)

    def series(self, asid: int, metric: str) -> list[float | None]:
        """One metric's value per epoch for one region (None when absent)."""
        return [epoch.regions.get(asid, {}).get(metric) for epoch in self.epochs]

    def peak(self, asid: int, metric: str) -> float:
        values = [v for v in self.series(asid, metric) if v is not None]
        return max(values) if values else 0.0

    def mean(self, asid: int, metric: str) -> float:
        values = [v for v in self.series(asid, metric) if v is not None]
        return sum(values) / len(values) if values else 0.0

    def time_to_goal(self, asid: int) -> int | None:
        """First epoch (1-based) whose miss rate met the region's goal."""
        for epoch in self.epochs:
            snapshot = epoch.regions.get(asid)
            if snapshot is None:
                continue
            goal = snapshot.get("goal")
            if goal is None:
                return None
            if snapshot.get("accesses") and snapshot["miss_rate"] <= goal:
                return epoch.epoch
        return None

    # ------------------------------------------------------------ rendering

    def metric_table(
        self, metric: str, title: str | None = None, max_rows: int | None = None
    ) -> str:
        """Render one metric as an epoch-by-region table."""
        from repro.sim.report import format_table

        asids = self.asids()
        cell_format = METRIC_FORMATS.get(metric, "{:.3f}")
        rows = []
        epochs = self.epochs if max_rows is None else self.epochs[:max_rows]
        for epoch in epochs:
            row: list[object] = [epoch.epoch, epoch.seq]
            for asid in asids:
                value = epoch.regions.get(asid, {}).get(metric)
                row.append("-" if value is None else cell_format.format(value))
            rows.append(row)
        table = format_table(
            ["epoch", "accesses", *[f"asid {a}" for a in asids]],
            rows,
            title=title or f"per-region {metric} by epoch",
        )
        if max_rows is not None and len(self.epochs) > max_rows:
            table += f"\n... {len(self.epochs) - max_rows} more epochs"
        return table
