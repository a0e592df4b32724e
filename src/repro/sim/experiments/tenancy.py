"""Tenancy sweep — allocation policies vs tenant count, churn and skew.

Not a paper table: the multi-tenant cache-service experiment
(:mod:`repro.tenants`) motivated by the ROADMAP's "cache service with
millions of users" direction. A shared pool of blocks is partitioned
among N tenants whose key popularity is Zipfian and whose activity
churns (arrive/depart/idle epochs, bursts); each cell runs one
allocation policy over one ``(tenants, churn, skew)`` point of the grid
and reports aggregate and mean per-tenant hit rate, Jain fairness,
SLA-violation pressure and reallocation churn.

The interesting comparison is ``need`` (Memshare-style marginal-gain
transfers) against ``static`` (equal split): at high tenant skew the
busy tenants are starved by an equal split, so need-driven transfer
should win aggregate hit rate — the assembled report ends with that
verdict, and ``benchmarks/test_bench_tenancy.py`` pins it in the
benchmark ledger.

Every cell is an independent campaign job: the trace is regenerated
from ``(spec, seed)`` inside the worker, so a parallel sweep is
byte-identical to the serial one.
"""

from __future__ import annotations

from repro.sim.experiments.defs.tenancy import (  # noqa: F401  (re-exported)
    DEFAULT_CHURN,
    DEFAULT_SKEW,
    DEFAULT_TENANTS,
    TenancyResult,
    assemble_cells,
    resolve_axis,
    resolve_grid,
)
from repro.sim.scale import scaled
from repro.tenants.accounting import TenantAccounting
from repro.tenants.policies import make_policy
from repro.tenants.service import CacheService
from repro.workloads.tenants import TenantWorkloadSpec

#: Blocks each tenant's key space spans; capacity is a quarter of the sum.
FOOTPRINT_BLOCKS = 128
#: Zipf skew of key popularity inside each tenant.
KEY_SKEW = 0.9
#: Target per-tenant miss rate for SLA tracking (and the alg1 goal).
SLA_MISS_RATE = 0.40
EPOCHS = 10


def tenancy_spec(tenants: int, churn: float, skew: float) -> TenantWorkloadSpec:
    """The workload for one grid point (churny mixes also idle + burst)."""
    return TenantWorkloadSpec(
        name=f"tenancy-{tenants}t",
        tenants=tenants,
        footprint_blocks=FOOTPRINT_BLOCKS,
        key_skew=KEY_SKEW,
        tenant_skew=skew,
        churn=churn,
        idle_fraction=0.25 if churn else 0.0,
        burst=0.2 if churn else 0.0,
        epochs=EPOCHS,
    )


def run_tenancy_cell(
    tenants: int,
    churn: float,
    skew: float,
    policy: str,
    refs: int,
    seed: int = 1,
    telemetry=None,
) -> dict:
    """One grid cell; returns a JSON-able metrics payload."""
    spec = tenancy_spec(tenants, churn, skew)
    trace = spec.generate(refs, seed=seed)
    capacity = max(tenants * FOOTPRINT_BLOCKS // 4, 64)
    service = CacheService(
        capacity_blocks=capacity,
        policy=make_policy(policy),
        accounting=TenantAccounting(sla_miss_rate=SLA_MISS_RATE),
        telemetry=telemetry,
        epoch_refs=max(refs // EPOCHS, 1),
    )
    result = service.run(trace)
    rates = result.tenant_hit_rates()
    return {
        "tenants": tenants,
        "churn": churn,
        "skew": skew,
        "policy": policy,
        "seen": result.tenants_seen,
        "aggregate_hit_rate": result.aggregate_hit_rate(),
        "mean_hit_rate": (
            sum(rates.values()) / len(rates) if rates else 0.0
        ),
        "jain": result.mean_jain(),
        "sla_violations": result.sla_violations,
        "sla_violation_epochs": result.sla_violation_epochs,
        "moved_blocks": result.moved_blocks,
    }


def record_tenancy_cell(
    tenants: int,
    churn: float,
    skew: float,
    policy: str,
    refs: int,
    seed: int,
    path,
) -> tuple[dict, int]:
    """Run one cell with telemetry recorded to a JSONL file.

    Returns ``(payload, events_written)``; the stream replays with
    ``repro inspect`` (tenancy epoch table, SLA summary, hit-rate
    curves).
    """
    from repro.telemetry import EventBus, JsonlSink

    sink = JsonlSink(path)
    bus = EventBus([sink], epoch_refs=0)
    try:
        payload = run_tenancy_cell(
            tenants, churn, skew, policy, refs, seed=seed, telemetry=bus
        )
    finally:
        bus.close()
    return payload, sink.count


def run_tenancy(
    refs_per_app: int = 60_000,
    seed: int = 1,
    tenants=None,
    churn=None,
    skew=None,
    policies=None,
) -> TenancyResult:
    """Sweep the tenancy grid serially."""
    refs = scaled(refs_per_app)
    grid = resolve_grid(
        {"tenants": tenants, "churn": churn, "skew": skew, "policies": policies}
    )
    return assemble_cells(
        [
            run_tenancy_cell(n, c, s, p, refs, seed)
            for n, c, s, p in grid
        ]
    )
