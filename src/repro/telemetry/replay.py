"""Replay recorded telemetry and build the ``repro inspect`` report.

A recorded JSONL stream is self-contained: the
:class:`~repro.telemetry.events.EpochRollover` events carry the per-region
metric snapshots and the resize events carry Algorithm 1's decisions, so
this module can rebuild the run's timelines without the cache (or even the
workload) that produced them.

:func:`load_report` parses a file into an :class:`InspectReport`;
``report.format()`` renders the resize timeline, the per-region epoch
tables (miss rate, molecules, occupancy, hits-per-molecule) and a summary
with resize oscillation counts, time-to-goal epochs and peak/mean
occupancy per region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.telemetry.events import (
    AccessSampled,
    JobQuarantined,
    LeaseAcquired,
    LeaseExpired,
    MoleculeGranted,
    MoleculeRemapped,
    MoleculeWithdrawn,
    RemoteSearch,
    ResizeDecision,
    RunMeta,
    TelemetryEvent,
)
from repro.telemetry.sinks import read_events
from repro.telemetry.timeline import MetricsTimeline


@dataclass(slots=True)
class InspectReport:
    """Everything ``repro inspect`` derives from one recorded stream."""

    source: str = ""
    meta: RunMeta | None = None
    timeline: MetricsTimeline = field(default_factory=MetricsTimeline)
    decisions: list[ResizeDecision] = field(default_factory=list)
    grants: list[MoleculeGranted] = field(default_factory=list)
    withdrawals: list[MoleculeWithdrawn] = field(default_factory=list)
    remaps: list[MoleculeRemapped] = field(default_factory=list)
    access_samples: int = 0
    remote_searches: int = 0
    total_events: int = 0
    lease_events: list[LeaseAcquired | LeaseExpired] = field(
        default_factory=list
    )
    quarantines: list[JobQuarantined] = field(default_factory=list)

    # ------------------------------------------------------------ ingestion

    def consume(self, event: TelemetryEvent) -> None:
        """Route one replayed event into the report's accumulators."""
        self.total_events += 1
        if isinstance(event, RunMeta):
            self.meta = event
        elif isinstance(event, ResizeDecision):
            self.decisions.append(event)
        elif isinstance(event, MoleculeGranted):
            self.grants.append(event)
        elif isinstance(event, MoleculeWithdrawn):
            self.withdrawals.append(event)
        elif isinstance(event, MoleculeRemapped):
            self.remaps.append(event)
        elif isinstance(event, AccessSampled):
            self.access_samples += 1
        elif isinstance(event, RemoteSearch):
            self.remote_searches += 1
        elif isinstance(event, (LeaseAcquired, LeaseExpired)):
            self.lease_events.append(event)
        elif isinstance(event, JobQuarantined):
            self.quarantines.append(event)
        else:
            self.timeline.emit(event)

    # ------------------------------------------------------------- analysis

    def asids(self) -> list[int]:
        seen = set(self.timeline.asids())
        seen.update(d.asid for d in self.decisions)
        if self.meta is not None:
            seen.update(self.meta.regions)
        return sorted(seen)

    def oscillations(self, asid: int) -> int:
        """Grow→withdraw (or back) direction flips in the decision stream.

        A well-converging region settles into ``hold``; a region whose goal
        sits on a capacity cliff alternates grants and withdrawals — the
        oscillation count makes that pathology visible at a glance.
        """
        directions = [
            d.action
            for d in self.decisions
            if d.asid == asid and d.action in ("grow", "withdraw")
        ]
        return sum(
            1
            for previous, current in zip(directions, directions[1:])
            if previous != current
        )

    def goal_of(self, asid: int) -> float | None:
        if self.meta is not None:
            region = self.meta.regions.get(asid)
            if region is not None:
                return region.get("goal")
        for epoch in self.timeline.epochs:
            snapshot = epoch.regions.get(asid)
            if snapshot is not None:
                return snapshot.get("goal")
        return None

    # ------------------------------------------------------------ rendering

    def header(self) -> str:
        lines = [f"telemetry replay: {self.source or '<stream>'}"]
        if self.meta is not None:
            meta = self.meta
            lines.append(
                f"cache: {meta.total_bytes >> 20}MB molecular, "
                f"{meta.clusters} cluster(s), {meta.tiles} tiles, "
                f"{meta.molecules_per_tile} molecules/tile"
            )
            for asid, region in sorted(meta.regions.items()):
                goal = region.get("goal")
                goal_text = "unmanaged" if goal is None else f"goal {goal:.2f}"
                lines.append(
                    f"  region asid={asid}: {goal_text}, "
                    f"home tile {region.get('home_tile')}, "
                    f"{region.get('molecules')} initial molecules, "
                    f"line x{region.get('line_multiplier', 1)}"
                )
        lines.append(
            f"events: {self.total_events} "
            f"({len(self.timeline)} epochs, {len(self.decisions)} resize "
            f"decisions, {len(self.grants)} grants, "
            f"{len(self.withdrawals)} withdrawals, "
            f"{len(self.remaps)} remaps, "
            f"{self.remote_searches} remote searches, "
            f"{self.access_samples} access samples)"
        )
        if self.lease_events or self.quarantines:
            acquisitions = sum(
                1 for e in self.lease_events if isinstance(e, LeaseAcquired)
            )
            expiries = sum(
                1 for e in self.lease_events if isinstance(e, LeaseExpired)
            )
            lines.append(
                f"leases: {acquisitions} acquisition(s), {expiries} "
                f"expir(y/ies), {len(self.quarantines)} job(s) quarantined"
            )
        return "\n".join(lines)

    def resize_table(self, max_rows: int | None = None) -> str:
        from repro.sim.report import format_table

        rows = []
        decisions = (
            self.decisions if max_rows is None else self.decisions[:max_rows]
        )
        for decision in decisions:
            rows.append(
                [
                    decision.accesses,
                    decision.asid,
                    decision.action,
                    decision.amount,
                    decision.window_miss_rate,
                    decision.molecules,
                    decision.period,
                ]
            )
        table = format_table(
            ["accesses", "asid", "action", "amount", "window_miss",
             "molecules", "period"],
            rows,
            title="Resize timeline (Algorithm 1 decisions)",
        )
        if max_rows is not None and len(self.decisions) > max_rows:
            table += f"\n... {len(self.decisions) - max_rows} more decisions"
        return table

    def remap_table(self, max_rows: int | None = None) -> str:
        from repro.sim.report import format_table

        remaps = self.remaps if max_rows is None else self.remaps[:max_rows]
        rows = [
            [
                remap.accesses,
                remap.asid,
                remap.action,
                remap.count,
                remap.moved,
                remap.spilled,
                remap.molecules,
            ]
            for remap in remaps
        ]
        table = format_table(
            ["accesses", "asid", "action", "count", "moved", "spilled",
             "molecules"],
            rows,
            title="Consistent-hash remaps (chash resize backend)",
        )
        if max_rows is not None and len(self.remaps) > max_rows:
            table += f"\n... {len(self.remaps) - max_rows} more remaps"
        return table

    def summary_table(self) -> str:
        from repro.sim.report import format_table

        timeline = self.timeline
        rows = []
        for asid in self.asids():
            grants = sum(g.count for g in self.grants if g.asid == asid)
            withdrawn = sum(
                w.count for w in self.withdrawals if w.asid == asid
            )
            goal = self.goal_of(asid)
            time_to_goal = timeline.time_to_goal(asid)
            molecules = [
                v for v in timeline.series(asid, "molecules") if v is not None
            ]
            rows.append(
                [
                    asid,
                    "-" if goal is None else f"{goal:.2f}",
                    grants,
                    withdrawn,
                    self.oscillations(asid),
                    "-" if time_to_goal is None else time_to_goal,
                    timeline.peak(asid, "occupancy"),
                    timeline.mean(asid, "occupancy"),
                    int(molecules[-1]) if molecules else "-",
                    timeline.mean(asid, "miss_rate"),
                ]
            )
        return format_table(
            ["asid", "goal", "granted", "withdrawn", "oscillations",
             "goal@epoch", "peak occ", "mean occ", "final mol", "mean miss"],
            rows,
            title="Per-region summary",
        )

    def lease_table(self, max_rows: int | None = None) -> str:
        """The distributed drain's lease timeline, interleaved by wall clock.

        Lease events are the only ones stamped with wall-clock ``at``
        (workers record independent streams); sorting on it rebuilds one
        coherent campaign timeline from any merge order.
        """
        from repro.sim.report import format_table

        events = sorted(self.lease_events, key=lambda e: e.at)
        origin = events[0].at if events else 0.0
        shown = events if max_rows is None else events[:max_rows]
        rows = []
        for event in shown:
            if isinstance(event, LeaseAcquired):
                rows.append(
                    [
                        f"{event.at - origin:.2f}",
                        event.job[:12],
                        "reclaim" if event.reclaimed else "acquire",
                        event.owner,
                        event.token,
                        "",
                    ]
                )
            else:
                rows.append(
                    [
                        f"{event.at - origin:.2f}",
                        event.job[:12],
                        "expired",
                        event.owner,
                        event.token,
                        f"stale {event.age:.1f}s, noticed by {event.by}",
                    ]
                )
        table = format_table(
            ["t(s)", "job", "event", "owner", "token", "detail"],
            rows,
            title="Lease timeline (distributed drain)",
        )
        if max_rows is not None and len(events) > max_rows:
            table += f"\n... {len(events) - max_rows} more lease events"
        return table

    def quarantine_section(self) -> str:
        from repro.sim.report import format_table

        rows = [
            [
                event.job[:12],
                event.attempts,
                ", ".join(event.owners),
            ]
            for event in sorted(self.quarantines, key=lambda e: e.at)
        ]
        table = format_table(
            ["job", "attempts", "owners (oldest first)"],
            rows,
            title="Quarantined jobs (poison: reclaim budget exhausted)",
        )
        return (
            table
            + "\nthese jobs have no stored result; the campaign completed "
            "degraded. Inspect quarantine/<hash>.json in the store, fix "
            "the cause, delete the file(s) and re-run."
        )

    def format(self, max_rows: int | None = None) -> str:
        """The full ``repro inspect`` report."""
        sections = [self.header()]
        if self.decisions:
            sections.append(self.resize_table(max_rows=max_rows))
        if self.remaps:
            sections.append(self.remap_table(max_rows=max_rows))
        if len(self.timeline):
            for metric, title in (
                ("miss_rate", "Per-region miss rate by epoch"),
                ("molecules", "Per-region molecule count by epoch"),
                ("occupancy", "Per-region occupancy by epoch"),
                ("hpm", "Per-region hits-per-molecule by epoch (Figure 6)"),
            ):
                sections.append(
                    self.timeline.metric_table(
                        metric, title=title, max_rows=max_rows
                    )
                )
        elif not self.lease_events and not self.quarantines:
            sections.append(
                "no epoch rollovers recorded — was the bus created with "
                "epoch_refs=0, or never closed?"
            )
        if self.lease_events:
            sections.append(self.lease_table(max_rows=max_rows))
        if self.quarantines:
            sections.append(self.quarantine_section())
        if self.asids():
            sections.append(self.summary_table())
        return "\n\n".join(sections)


def replay_events(events, source: str = "") -> InspectReport:
    """Build an :class:`InspectReport` from an iterable of events."""
    report = InspectReport(source=source)
    for event in events:
        report.consume(event)
    return report


def load_report(path: str | Path) -> InspectReport:
    """Read a recorded JSONL file into an :class:`InspectReport`."""
    return replay_events(read_events(path), source=str(path))
