"""The multi-tenant cache service: shared capacity, per-tenant LRU shares.

:class:`CacheService` models an in-memory cache service front-end (the
Memshare setting, arXiv:1610.08129): one pool of ``capacity_blocks``
blocks partitioned among tenants, each tenant running exact LRU inside
its own share. Tenants arrive implicitly on first access (granted a
small bootstrap share, stealing one block from the largest incumbent if
the pool is empty) and effectively depart by going idle — the allocation
policy reclaims what they held.

Every ``epoch_refs`` accesses the service closes an epoch: SLA goals are
evaluated, the :class:`~repro.tenants.policies.AllocationPolicy` is asked
to rebalance, the new allocation map is validated (covers exactly the
live tenants, each >= 1 block, sums to <= capacity) and applied — shares
shrunk below occupancy evict LRU-first immediately. A
``TenantEpochSnapshot`` telemetry event captures the epoch, and a
``TenantRunSummary`` closes the run, so ``repro inspect`` can replay
per-tenant hit rates, fairness and SLA violations from the JSONL stream
alone.

Hot-path cost contract: per-tenant counters are part of the base service;
the *accounting* object (HRC sampling, SLA ledgers) is reached through a
single ``self.accounting is None`` check per access, so a run built with
``accounting=None`` pays nothing for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigError
from repro.common.refs import iter_refs
from repro.tenants.accounting import TenantAccounting
from repro.tenants.policies import AllocationPolicy, TenantView, jain_index
from repro.telemetry.events import TenantEpochSnapshot, TenantRunSummary

#: Tenants listed individually in an epoch snapshot event (busiest first).
SNAPSHOT_TENANT_CAP = 16
#: Tenants whose hit-rate curves are embedded in the run summary.
SUMMARY_HRC_CAP = 8


@dataclass(slots=True)
class TenancyRunResult:
    """Everything a tenancy run produces, deterministic given the trace."""

    policy: str
    capacity_blocks: int
    epochs: int
    tenants_seen: int
    total_accesses: int
    total_hits: int
    moved_blocks: int
    sla_violations: int
    sla_violation_epochs: int
    epoch_stats: list[dict] = field(default_factory=list)
    tenant_accesses: dict[int, int] = field(default_factory=dict)
    tenant_hits: dict[int, int] = field(default_factory=dict)
    final_allocations: dict[int, int] = field(default_factory=dict)

    def aggregate_hit_rate(self) -> float:
        if self.total_accesses == 0:
            return 0.0
        return self.total_hits / self.total_accesses

    def tenant_hit_rates(self) -> dict[int, float]:
        return {
            tenant: self.tenant_hits[tenant] / accesses if accesses else 0.0
            for tenant, accesses in self.tenant_accesses.items()
        }

    def mean_jain(self) -> float:
        values = [s["jain"] for s in self.epoch_stats]
        return sum(values) / len(values) if values else 1.0


class CacheService:
    """Shared-capacity cache service with per-tenant LRU partitions."""

    def __init__(
        self,
        capacity_blocks: int,
        policy: AllocationPolicy,
        accounting: TenantAccounting | None = None,
        telemetry=None,
        epoch_refs: int = 10_000,
        bootstrap_blocks: int = 8,
    ) -> None:
        if capacity_blocks < 1:
            raise ConfigError("capacity_blocks must be >= 1")
        if epoch_refs < 1:
            raise ConfigError("epoch_refs must be >= 1")
        if bootstrap_blocks < 1:
            raise ConfigError("bootstrap_blocks must be >= 1")
        self.capacity_blocks = capacity_blocks
        self.policy = policy
        self.accounting = accounting
        self.telemetry = telemetry
        self.epoch_refs = epoch_refs
        self.bootstrap_blocks = bootstrap_blocks
        # tenant -> {key: dirty}; dict insertion order is the LRU order
        # (oldest first; hits pop + reinsert).
        self.partitions: dict[int, dict[int, bool]] = {}
        self.allocations: dict[int, int] = {}
        # Base per-tenant counters (always on; accounting adds HRC/SLA).
        self.tenant_accesses: dict[int, int] = {}
        self.tenant_hits: dict[int, int] = {}
        self._epoch_accesses: dict[int, int] = {}
        self._epoch_hits: dict[int, int] = {}
        self.epoch = 0
        self.moved_blocks = 0
        self.sla_violations = 0
        self.sla_violation_epochs = 0
        self.epoch_stats: list[dict] = []
        self._refs_in_epoch = 0
        self._free = capacity_blocks

    # ------------------------------------------------------------ admission

    def free_blocks(self) -> int:
        return self._free

    def _admit(self, tenant: int) -> None:
        """First access from ``tenant``: grant a bootstrap share.

        When the pool is dry (the policy has distributed all capacity), a
        batch of blocks is stolen from the largest incumbent share (ties
        to the earliest-admitted tenant) — batched so a churn wave of
        arrivals does not rescan the tenant table per arrival.
        """
        grant = min(self.bootstrap_blocks, self._free)
        if grant == 0:
            victim = max(self.allocations, key=self.allocations.__getitem__)
            surplus = self.allocations[victim] - 1
            if surplus <= 0:
                raise ConfigError(
                    "cannot admit tenant: capacity smaller than tenant count"
                )
            take = min(surplus, self.bootstrap_blocks * 8)
            self.allocations[victim] -= take
            self._shrink_to_allocation(victim)
            self._free += take
            grant = min(self.bootstrap_blocks, self._free)
        self.allocations[tenant] = grant
        self._free -= grant
        self.partitions[tenant] = {}
        self.tenant_accesses[tenant] = 0
        self.tenant_hits[tenant] = 0
        self._epoch_accesses[tenant] = 0
        self._epoch_hits[tenant] = 0

    def _shrink_to_allocation(self, tenant: int) -> None:
        partition = self.partitions.get(tenant)
        if partition is None:
            return
        allocation = self.allocations[tenant]
        while len(partition) > allocation:
            evicted = next(iter(partition))
            del partition[evicted]

    # ------------------------------------------------------------- hot path

    def access(self, tenant: int, key: int, write: bool = False) -> bool:
        """One reference; returns True on hit."""
        partition = self.partitions.get(tenant)
        if partition is None:
            self._admit(tenant)
            partition = self.partitions[tenant]
        self.tenant_accesses[tenant] += 1
        self._epoch_accesses[tenant] += 1
        if key in partition:
            dirty = partition.pop(key)
            partition[key] = dirty or write
            self.tenant_hits[tenant] += 1
            self._epoch_hits[tenant] += 1
            hit = True
        else:
            if len(partition) >= self.allocations[tenant]:
                evicted = next(iter(partition))
                del partition[evicted]
            partition[key] = write
            hit = False
        if self.accounting is not None:
            self.accounting.record(tenant, key, hit)
        self._refs_in_epoch += 1
        if self._refs_in_epoch >= self.epoch_refs:
            self.rollover()
        return hit

    # --------------------------------------------------------------- epochs

    def _views(self) -> dict[int, TenantView]:
        accounting = self.accounting
        views = {}
        for tenant in self.partitions:
            views[tenant] = TenantView(
                tenant=tenant,
                allocation=self.allocations[tenant],
                occupancy=len(self.partitions[tenant]),
                epoch_accesses=self._epoch_accesses[tenant],
                epoch_hits=self._epoch_hits[tenant],
                sampler=(
                    accounting.sampler_for(tenant)
                    if accounting is not None
                    else None
                ),
                sla_miss_rate=(
                    accounting.sla_miss_rate if accounting is not None else None
                ),
            )
        return views

    def _apply_allocation(self, new: dict[int, int]) -> int:
        if set(new) != set(self.partitions):
            raise ConfigError(
                f"policy {self.policy.name!r} returned allocations for "
                f"{sorted(new)} but live tenants are {sorted(self.partitions)}"
            )
        if any(blocks < 1 for blocks in new.values()):
            raise ConfigError(
                f"policy {self.policy.name!r} granted a tenant < 1 block"
            )
        total = sum(new.values())
        if total > self.capacity_blocks:
            raise ConfigError(
                f"policy {self.policy.name!r} allocated {total} blocks over "
                f"capacity {self.capacity_blocks}"
            )
        moved = (
            sum(abs(new[t] - self.allocations[t]) for t in new) // 2
        )
        self._free = self.capacity_blocks - total
        self.allocations = dict(new)
        for tenant in new:
            self._shrink_to_allocation(tenant)
        return moved

    def rollover(self) -> None:
        """Close the current epoch: SLA check, rebalance, telemetry."""
        epoch = self.epoch
        epoch_accesses = sum(self._epoch_accesses.values())
        epoch_hits = sum(self._epoch_hits.values())
        active_rates = [
            self._epoch_hits[t] / acc
            for t, acc in self._epoch_accesses.items()
            if acc > 0
        ]
        jain = jain_index(active_rates)
        violated = 0
        if self.accounting is not None:
            violated = self.accounting.close_epoch(epoch)
            self.sla_violations += violated
            if violated:
                self.sla_violation_epochs += 1
        moved = 0
        if self.partitions:
            new = self.policy.rebalance(
                epoch, self.capacity_blocks, self._views()
            )
            moved = self._apply_allocation(new)
            self.moved_blocks += moved
        stats = {
            "epoch": epoch,
            "accesses": epoch_accesses,
            "hit_rate": epoch_hits / epoch_accesses if epoch_accesses else 0.0,
            "jain": jain,
            "moved": moved,
            "violations": violated,
        }
        self.epoch_stats.append(stats)
        if self.telemetry is not None:
            self._emit_snapshot(stats)
        for tenant in self._epoch_accesses:
            self._epoch_accesses[tenant] = 0
            self._epoch_hits[tenant] = 0
        self.epoch += 1
        self._refs_in_epoch = 0

    def _emit_snapshot(self, stats: dict) -> None:
        busiest = sorted(
            self._epoch_accesses,
            key=lambda t: (-self._epoch_accesses[t], t),
        )[:SNAPSHOT_TENANT_CAP]
        tenants = {
            t: {
                "alloc": self.allocations[t],
                "occ": len(self.partitions[t]),
                "acc": self._epoch_accesses[t],
                "hr": round(
                    self._epoch_hits[t] / self._epoch_accesses[t], 4
                )
                if self._epoch_accesses[t]
                else 0.0,
            }
            for t in busiest
        }
        self.telemetry.emit(
            TenantEpochSnapshot(
                epoch=stats["epoch"],
                policy=self.policy.name,
                capacity=self.capacity_blocks,
                free=self.free_blocks(),
                moved=stats["moved"],
                aggregate_hit_rate=round(stats["hit_rate"], 4),
                jain=round(stats["jain"], 4),
                violations=stats["violations"],
                tenants=tenants,
            )
        )

    # ----------------------------------------------------------------- runs

    def run(self, trace, line_bytes: int = 64) -> TenancyRunResult:
        """Drive a full :class:`~repro.trace.container.Trace` through.

        The trace's ndarray columns are converted to plain ints a bounded
        slice at a time (:func:`repro.common.refs.iter_refs`); the
        per-access loop stays scalar because exact per-tenant LRU with
        mid-stream epoch rollovers is ordered state.
        """
        access = self.access
        _n, refs = iter_refs(
            trace.block_column(line_bytes), trace.asids, trace.writes
        )
        for block, tenant, write in refs:
            access(tenant, block, write)
        if self._refs_in_epoch > 0:
            self.rollover()
        result = self._result()
        if self.telemetry is not None:
            self._emit_summary(result)
        return result

    def _result(self) -> TenancyRunResult:
        return TenancyRunResult(
            policy=self.policy.name,
            capacity_blocks=self.capacity_blocks,
            epochs=self.epoch,
            tenants_seen=len(self.tenant_accesses),
            total_accesses=sum(self.tenant_accesses.values()),
            total_hits=sum(self.tenant_hits.values()),
            moved_blocks=self.moved_blocks,
            sla_violations=self.sla_violations,
            sla_violation_epochs=self.sla_violation_epochs,
            epoch_stats=list(self.epoch_stats),
            tenant_accesses=dict(self.tenant_accesses),
            tenant_hits=dict(self.tenant_hits),
            final_allocations=dict(self.allocations),
        )

    def _emit_summary(self, result: TenancyRunResult) -> None:
        rates = result.tenant_hit_rates()
        worst_ids = sorted(rates, key=lambda t: (rates[t], t))[:4]
        worst = {
            t: {
                "hr": round(rates[t], 4),
                "acc": result.tenant_accesses[t],
                "alloc": result.final_allocations.get(t, 0),
            }
            for t in worst_ids
        }
        hrc: dict[int, list] = {}
        if self.accounting is not None:
            hrc = self.accounting.hit_rate_curves(
                self.capacity_blocks, top=SUMMARY_HRC_CAP
            )
        self.telemetry.emit(
            TenantRunSummary(
                policy=result.policy,
                epochs=result.epochs,
                tenants=result.tenants_seen,
                aggregate_hit_rate=round(result.aggregate_hit_rate(), 4),
                mean_jain=round(result.mean_jain(), 4),
                moved_blocks=result.moved_blocks,
                sla_tracked=(
                    self.accounting is not None
                    and self.accounting.sla_miss_rate is not None
                ),
                sla_violations=result.sla_violations,
                sla_violation_epochs=result.sla_violation_epochs,
                worst=worst,
                hrc=hrc,
            )
        )
