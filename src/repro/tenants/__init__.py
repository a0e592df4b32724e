"""Multi-tenant cache-service subsystem.

Reinterprets the paper's per-application regions as *tenants* of a shared
in-memory cache service (the ROADMAP's "millions of users" scenario):

* :mod:`repro.tenants.accounting` — per-tenant hit-rate-curve sampling
  (SHARDS-style spatially sampled stack distances into power-of-two
  buckets), occupancy and SLA (target miss rate) violation tracking;
* :mod:`repro.tenants.policies` — pluggable capacity-allocation policies
  behind one interface: static proportional split, Memshare-style
  need-driven transfer (greedy marginal-hit-rate reallocation,
  arXiv:1610.08129), and the paper's Algorithm 1 adapted to tenant
  granularity (via :func:`repro.molecular.resize.algorithm1_step`);
* :mod:`repro.tenants.service` — the :class:`CacheService` simulator: a
  shared capacity of blocks, per-tenant LRU partitions, epoch-boundary
  reallocation, telemetry emission and deterministic results.

The tenant workload family itself lives in
:mod:`repro.workloads.tenants`; the ``tenancy`` sweep in
:mod:`repro.sim.experiments.tenancy`.
"""

from repro.tenants.accounting import TenantAccounting
from repro.tenants.policies import (
    Algorithm1Tenancy,
    AllocationPolicy,
    NeedDriven,
    StaticProportional,
    TenantView,
    jain_index,
    make_policy,
    policy_names,
)
from repro.tenants.service import CacheService, TenancyRunResult

__all__ = [
    "Algorithm1Tenancy",
    "AllocationPolicy",
    "CacheService",
    "NeedDriven",
    "StaticProportional",
    "TenancyRunResult",
    "TenantAccounting",
    "TenantView",
    "jain_index",
    "make_policy",
    "policy_names",
]
