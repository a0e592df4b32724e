"""Pluggable tenant capacity-allocation policies.

Every policy implements :class:`AllocationPolicy`: once per epoch the
service hands it the shared capacity and a read-only
:class:`TenantView` per live tenant, and it returns the next allocation
map (blocks per tenant). Three baselines ship:

* :class:`StaticProportional` — equal split among live tenants, the
  static-partitioning strawman every dynamic scheme is measured against;
* :class:`NeedDriven` — Memshare-style greedy reallocation
  (arXiv:1610.08129): each epoch, move a bounded budget of blocks from
  the tenants with the lowest estimated marginal hit-rate utility to the
  ones with the highest, using the accounting HRCs as the need signal;
* :class:`Algorithm1Tenancy` — the paper's Algorithm 1 resize rule
  (:func:`repro.molecular.resize.algorithm1_step`) applied per tenant
  against its SLA miss-rate goal, with grows arbitrated from a shared
  free pool.

All policies are deterministic: tenants are visited in sorted-id order
and ties break on tenant id, so a sweep produces byte-identical output
under serial and parallel campaign execution.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.tenants.accounting import HitRateSampler


@dataclass(frozen=True, slots=True)
class TenantView:
    """Read-only per-tenant snapshot a policy rebalances from."""

    tenant: int
    allocation: int  # blocks currently granted
    occupancy: int  # blocks actually resident
    epoch_accesses: int
    epoch_hits: int
    sampler: HitRateSampler | None  # None when accounting is disabled
    sla_miss_rate: float | None

    def epoch_miss_rate(self) -> float:
        if self.epoch_accesses == 0:
            return 0.0
        return 1.0 - self.epoch_hits / self.epoch_accesses


class AllocationPolicy:
    """Interface every allocation policy implements."""

    name = "abstract"

    def rebalance(
        self, epoch: int, capacity: int, tenants: dict[int, TenantView]
    ) -> dict[int, int]:
        """Return the next allocation (blocks) for every tenant in ``tenants``.

        The returned map must cover exactly the given tenants, grant each
        at least one block, and sum to at most ``capacity`` — the service
        validates and raises :class:`~repro.common.errors.ConfigError`
        otherwise.
        """
        raise NotImplementedError


class StaticProportional(AllocationPolicy):
    """Equal split among live tenants, recomputed only on churn.

    With ``n`` live tenants each gets ``capacity // n`` blocks (remainder
    to the lowest tenant ids). The split ignores demand entirely — it is
    the fairness-maximising, hit-rate-indifferent baseline.
    """

    name = "static"

    def __init__(self) -> None:
        self._last_tenants: tuple[int, ...] = ()
        self._last_split: dict[int, int] = {}

    def rebalance(
        self, epoch: int, capacity: int, tenants: dict[int, TenantView]
    ) -> dict[int, int]:
        ids = tuple(sorted(tenants))
        if ids == self._last_tenants:
            return dict(self._last_split)
        share, remainder = divmod(capacity, len(ids))
        share = max(share, 1)
        split = {
            tenant: share + (1 if i < remainder else 0)
            for i, tenant in enumerate(ids)
        }
        self._last_tenants = ids
        self._last_split = split
        return dict(split)


class NeedDriven(AllocationPolicy):
    """Memshare-style greedy marginal-hit-rate reallocation.

    Each epoch every tenant's *utility per quantum* is estimated as
    ``epoch_accesses * marginal_gain(alloc, alloc + quantum)`` from its
    sampled hit-rate curve, and its *give-up cost* symmetrically as
    ``epoch_accesses * marginal_gain(alloc - quantum, alloc)``. Quanta
    flow from the cheapest donors to the most valuable claimants while
    the claimant's utility exceeds the donor's cost, bounded by
    ``max_move_fraction`` of capacity per epoch so allocations cannot
    thrash. Idle tenants (no epoch accesses) donate down to ``min_blocks``
    unconditionally — that is the arrive/depart reclamation path.
    """

    name = "need"

    def __init__(
        self,
        quantum: int = 8,
        max_move_fraction: float = 0.10,
        min_blocks: int = 1,
    ) -> None:
        if quantum < 1:
            raise ConfigError("quantum must be >= 1")
        if not 0.0 < max_move_fraction <= 1.0:
            raise ConfigError("max_move_fraction must be in (0, 1]")
        self.quantum = quantum
        self.max_move_fraction = max_move_fraction
        self.min_blocks = min_blocks

    def rebalance(
        self, epoch: int, capacity: int, tenants: dict[int, TenantView]
    ) -> dict[int, int]:
        alloc = {t: view.allocation for t, view in sorted(tenants.items())}
        free = capacity - sum(alloc.values())
        budget = max(self.quantum, int(capacity * self.max_move_fraction))
        quantum = self.quantum

        def claim_utility(tenant: int) -> float:
            view = tenants[tenant]
            if view.sampler is None or view.epoch_accesses == 0:
                return 0.0
            current = alloc[tenant]
            return view.epoch_accesses * view.sampler.marginal_gain(
                current, current + quantum
            )

        def donate_cost(tenant: int) -> float:
            view = tenants[tenant]
            if view.epoch_accesses == 0:
                return 0.0  # idle tenants give capacity back for free
            if view.sampler is None:
                return float("inf")
            current = alloc[tenant]
            return view.epoch_accesses * view.sampler.marginal_gain(
                max(current - quantum, 0), current
            )

        # Both phases use lazy-refresh heaps: utilities shift as a
        # tenant's allocation moves, so each pop is re-evaluated and
        # pushed back if it no longer beats the runner-up. Cost per
        # epoch is O(moves * log tenants), not O(moves * tenants).

        # Phase 1 — free capacity is granted outside the move budget:
        # unclaimed blocks cost nobody anything, so the pool drains to
        # whoever shows positive marginal utility, best-first (ties to
        # the lowest tenant id).
        claim_heap = []
        for tenant in alloc:
            utility = claim_utility(tenant)
            if utility > 0.0:
                claim_heap.append((-utility, tenant))
        heapq.heapify(claim_heap)
        while free > 0 and claim_heap:
            _, claimant = heapq.heappop(claim_heap)
            utility = claim_utility(claimant)
            if utility <= 0.0:
                continue
            if claim_heap and -claim_heap[0][0] > utility:
                heapq.heappush(claim_heap, (-utility, claimant))
                continue
            step = min(quantum, free)
            alloc[claimant] += step
            free -= step
            heapq.heappush(claim_heap, (-claim_utility(claimant), claimant))

        # Phase 2 — donor-to-claimant transfers, bounded per epoch.
        donor_heap = []
        for tenant in alloc:
            if alloc[tenant] - quantum >= self.min_blocks:
                donor_heap.append((donate_cost(tenant), tenant))
        heapq.heapify(donor_heap)
        moved = 0
        while moved < budget and claim_heap and donor_heap:
            step = min(quantum, budget - moved)
            neg_utility, claimant = heapq.heappop(claim_heap)
            gain = claim_utility(claimant)
            if gain <= 0.0:
                continue
            if claim_heap and -claim_heap[0][0] > gain:
                heapq.heappush(claim_heap, (-gain, claimant))
                continue
            # Cheapest donor other than the claimant, lazily refreshed.
            skipped = None
            donor = None
            while donor_heap:
                cost, candidate = heapq.heappop(donor_heap)
                if candidate == claimant:
                    skipped = (cost, candidate)
                    continue
                fresh = donate_cost(candidate)
                if alloc[candidate] - step < self.min_blocks:
                    continue  # drained below the donation floor
                if donor_heap and donor_heap[0][0] < fresh:
                    heapq.heappush(donor_heap, (fresh, candidate))
                    continue
                donor = candidate
                cost = fresh
                break
            if skipped is not None:
                heapq.heappush(donor_heap, skipped)
            if donor is None:
                heapq.heappush(claim_heap, (-gain, claimant))
                break
            if cost >= gain:
                heapq.heappush(claim_heap, (-gain, claimant))
                heapq.heappush(donor_heap, (cost, donor))
                break
            alloc[donor] -= step
            alloc[claimant] += step
            moved += step
            heapq.heappush(claim_heap, (-claim_utility(claimant), claimant))
            if alloc[donor] - quantum >= self.min_blocks:
                heapq.heappush(donor_heap, (donate_cost(donor), donor))
        return alloc


class Algorithm1Tenancy(AllocationPolicy):
    """The paper's Algorithm 1 resize rule at tenant granularity.

    Each tenant runs its own grow/withdraw/hold decision against an SLA
    miss-rate goal, exactly the region resizer's branch structure
    (:func:`repro.molecular.resize.algorithm1_step`) in units of
    ``quantum`` blocks. Withdrawn blocks land in a shared free pool;
    grow requests are served from it in worst-miss-rate-first order, so
    a panicking tenant outranks a merely-worsening one.
    """

    name = "alg1"

    def __init__(
        self,
        quantum: int = 8,
        goal_miss_rate: float = 0.4,
        min_blocks: int = 1,
    ) -> None:
        if quantum < 1:
            raise ConfigError("quantum must be >= 1")
        self.quantum = quantum
        self.goal_miss_rate = goal_miss_rate
        self.min_blocks = min_blocks
        self._last_miss: dict[int, float] = {}
        self._last_alloc: dict[int, int] = {}
        self._max_alloc: dict[int, int] = {}

    def rebalance(
        self, epoch: int, capacity: int, tenants: dict[int, TenantView]
    ) -> dict[int, int]:
        # Imported here, not at module level: the tenancy sweep reads
        # this module's policy names to decompose its grid, which must
        # not load the molecular cache (and numpy) behind the resizer.
        from repro.molecular.resize import algorithm1_step

        alloc = {t: view.allocation for t, view in sorted(tenants.items())}
        free = capacity - sum(alloc.values())
        quantum = self.quantum
        requests: list[tuple[float, int, int]] = []  # (-miss, tenant, units)

        for tenant in sorted(tenants):
            view = tenants[tenant]
            if view.epoch_accesses == 0:
                continue  # idle: hold, keep state
            goal = (
                view.sla_miss_rate
                if view.sla_miss_rate is not None
                else self.goal_miss_rate
            )
            miss = view.epoch_miss_rate()
            units = max(alloc[tenant] // quantum, 1)
            max_units = self._max_alloc.get(tenant, max(capacity // quantum, 1))
            action, amount, new_max = algorithm1_step(
                miss_rate=miss,
                goal=goal,
                current=units,
                last_miss_rate=self._last_miss.get(tenant, 1.0),
                max_allocation=max_units,
                last_allocation=self._last_alloc.get(tenant, 0),
            )
            self._max_alloc[tenant] = new_max
            self._last_miss[tenant] = miss
            if action == "withdraw":
                give = min(amount * quantum, alloc[tenant] - self.min_blocks)
                if give > 0:
                    alloc[tenant] -= give
                    free += give
            elif action == "grow":
                self._last_alloc[tenant] = amount
                requests.append((-miss, tenant, amount))

        # Serve grow requests one quantum at a time, worst miss rate
        # first, cycling until the pool or every request is exhausted —
        # a lone panicking tenant cannot drain the whole free pool in
        # one epoch while others queue behind it.
        pending = [
            [tenant, units * quantum] for _, tenant, units in sorted(requests)
        ]
        while free > 0 and pending:
            remaining = []
            for tenant, want in pending:
                grant = min(quantum, want, free)
                if grant > 0:
                    alloc[tenant] += grant
                    free -= grant
                    want -= grant
                if want > 0:
                    remaining.append([tenant, want])
            pending = remaining
        return alloc


def jain_index(values: list[float]) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)``, 1.0 = fair."""
    if not values:
        return 1.0
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares == 0.0:
        return 1.0
    return (total * total) / (len(values) * squares)


_POLICIES = {
    "static": StaticProportional,
    "need": NeedDriven,
    "alg1": Algorithm1Tenancy,
}


def policy_names() -> list[str]:
    return list(_POLICIES)


def make_policy(name: str, **kwargs) -> AllocationPolicy:
    try:
        factory = _POLICIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown allocation policy {name!r}; available: {policy_names()}"
        ) from None
    return factory(**kwargs)
