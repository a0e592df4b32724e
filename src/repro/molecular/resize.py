"""Dynamic partition resizing: Algorithm 1 and its trigger schemes.

The paper's section 3.4 in executable form. Per application partition,
each resize decision does::

    if miss rate > 50%:                 # panic branch
        max_allocation = min(max_allocation, last_allocation)
        grow by max_allocation
    elif miss rate < goal:
        withdraw sqrt(current * miss_rate / goal) molecules   # conservative
    elif miss rate < last miss rate:    # linear model, only while improving
        target = current * miss_rate / goal
        grow by min(target - current, max_allocation)

and afterwards the resize period adapts: doubled when the overall miss
rate meets the goal, cut to 10 % when it does not (clamped to
``[period_floor, period_cap]``).

Interpretation choices (documented in DESIGN.md section 4): ``resize(n)``
grows *toward a target* with the step capped by ``max_allocation``;
``withdraw(n)`` removes ``n`` molecules; ``last_allocation`` is the size
of the previous grant, and the panic branch's clamp only applies once a
grant has happened. *Where* molecules are added or withdrawn is delegated
to the placement policy (per-molecule counters for Random, per-row
counters for Randy — exactly the paper's pairing).

The paper schedules this computation on a processor via an OS daemon
(~1500 cycles per application); we run it synchronously and account the
cycles in :class:`~repro.molecular.stats.MolecularStats`.

*Deciding* and *applying* a capacity change are separate concerns: the
:class:`Resizer` owns the former (Algorithm 1, triggers, periods, the
resize log), while a :class:`ResizeMechanism` owns the latter — how
granted molecules are attached and withdrawn molecules emptied. The
default :class:`FlushMechanism` is the paper's behaviour (withdrawal
flushes the molecule whole); :mod:`repro.molecular.chash` plugs in a
consistent-hashing backend that migrates resident lines instead
(DESIGN.md section 13).
"""

from __future__ import annotations

import math

from repro.common.errors import ConfigError
from repro.molecular.config import ResizePolicy
from repro.molecular.region import CacheRegion
from repro.telemetry.events import (
    MoleculeGranted,
    MoleculeWithdrawn,
    RegionRepaired,
    ResizeDecision,
)

#: Cycles one resize() computation costs per application (paper estimate).
RESIZE_COMPUTE_CYCLES = 1_500


def algorithm1_step(
    miss_rate: float,
    goal: float,
    current: int,
    last_miss_rate: float,
    max_allocation: int,
    last_allocation: int,
    min_units: int = 1,
    panic_miss_rate: float = 0.5,
    withdraw_margin: float = 1.0,
    grow_when_worsening: bool = False,
) -> tuple[str, int, int]:
    """One Algorithm-1 decision as a pure function of the window's numbers.

    Returns ``(action, amount, new_max_allocation)`` where ``action`` is
    ``"grow"``, ``"withdraw"`` or ``"hold"`` and ``new_max_allocation``
    carries the panic branch's clamp back to the caller's state. Units
    are molecules.
    """
    if miss_rate > panic_miss_rate:
        if 0 < last_allocation < max_allocation:
            max_allocation = last_allocation
        return ("grow", max_allocation, max_allocation)
    if miss_rate < goal:
        if goal > 0 and miss_rate < goal * withdraw_margin:
            amount = int(round(math.sqrt(current * miss_rate / goal)))
        else:
            amount = 0
        amount = min(amount, current - min_units)
        if amount > 0:
            return ("withdraw", amount, max_allocation)
        return ("hold", 0, max_allocation)
    if miss_rate < last_miss_rate or grow_when_worsening:
        target = math.ceil(current * miss_rate / goal) if goal > 0 else current
        amount = min(target - current, max_allocation)
        if amount > 0:
            return ("grow", amount, max_allocation)
    return ("hold", 0, max_allocation)


class ResizeMechanism:
    """How the resize engine applies a capacity change to a region.

    The base class owns the mechanism-independent skeleton — allocating
    from Ulmo, attaching via the placement policy, the grant/denied log
    entries and their telemetry — and exposes three hooks:

    * :meth:`_choose_victim` — pick the molecule one withdrawal step
      vacates. The base implementation defers to the placement policy;
      the chash backend picks the cheapest slice to displace.
    * :meth:`_reclaim` — empty one withdrawn molecule and return
      ``(writebacks, moved)``. The base implementation is the paper's
      flush (every resident line dropped, dirty lines written back).
    * :meth:`_after_growth` — run after molecules were granted (growth
      or repair); the chash backend migrates remapped blocks here.
    * :meth:`_after_withdraw` — run after a withdrawal that removed at
      least one molecule; the chash backend emits its remap telemetry.

    Log entries, stats updates and telemetry emissions happen in the
    same order as the pre-interface resizer, so the flush backend stays
    byte-identical to it.
    """

    name = "flush"

    def __init__(self, resizer: "Resizer") -> None:
        self.resizer = resizer
        self.cache = resizer.cache
        self.policy = resizer.policy

    # ------------------------------------------------------------- growth

    def grow(self, region: CacheRegion, amount: int, total_accesses: int) -> None:
        """Grow ``region`` by up to ``amount`` molecules (Algorithm 1)."""
        if amount <= 0:
            return
        cache = self.cache
        cluster = cache.cluster_of_tile(region.home_tile_id)
        granted = cluster.ulmo.allocate(region.asid, amount, region.home_tile_id)
        for molecule in granted:
            row = cache.placement.add_row_index(region)
            region.add_molecule(molecule, row)
        if granted:
            region.last_allocation = len(granted)
            cache.stats.molecules_granted += len(granted)
            self.resizer.log.append(
                (total_accesses, region.asid, "grow", len(granted))
            )
            bus = getattr(cache, "telemetry", None)
            if bus is not None:
                bus.emit(
                    MoleculeGranted(
                        accesses=total_accesses,
                        asid=region.asid,
                        count=len(granted),
                        tiles=sorted({m.tile_id for m in granted}),
                        molecules=region.molecule_count,
                    )
                )
            self._after_growth(region, granted, total_accesses, "grow")
        else:
            self.resizer.log.append(
                (total_accesses, region.asid, "grow-denied", amount)
            )

    def repair(self, region: CacheRegion, total_accesses: int) -> None:
        """Replace molecules lost to hard faults since the last epoch.

        Runs before Algorithm 1's decision so the decision sees a region
        restored (as far as the free pool allows) to its pre-fault size.
        Repair grants do not touch ``last_allocation`` — they are capacity
        restoration, not Algorithm 1 growth, so the panic branch's clamp
        must not learn from them. Partial grants leave the remainder
        pending for the next epoch.
        """
        wanted = region.pending_repair
        if wanted <= 0:
            return
        cache = self.cache
        cluster = cache.cluster_of_tile(region.home_tile_id)
        granted = cluster.ulmo.allocate(region.asid, wanted, region.home_tile_id)
        for molecule in granted:
            row = cache.placement.add_row_index(region)
            region.add_molecule(molecule, row)
        if granted:
            region.pending_repair -= len(granted)
            cache.stats.molecules_repaired += len(granted)
            self.resizer.log.append(
                (total_accesses, region.asid, "repair", len(granted))
            )
            bus = getattr(cache, "telemetry", None)
            if bus is not None:
                bus.emit(
                    RegionRepaired(
                        accesses=total_accesses,
                        asid=region.asid,
                        requested=wanted,
                        granted=len(granted),
                        tiles=sorted({m.tile_id for m in granted}),
                        molecules=region.molecule_count,
                    )
                )
            self._after_growth(region, granted, total_accesses, "repair")
        else:
            self.resizer.log.append(
                (total_accesses, region.asid, "repair-denied", wanted)
            )

    # --------------------------------------------------------- withdrawal

    def withdraw(self, region: CacheRegion, amount: int, total_accesses: int) -> None:
        """Withdraw up to ``amount`` molecules, respecting the floor."""
        withdrawn = 0
        dirty_flushed = 0
        moved_total = 0
        for _ in range(amount):
            if region.molecule_count <= self.policy.min_molecules:
                break
            molecule = self._choose_victim(region)
            writebacks, moved = self._reclaim(region, molecule)
            dirty_flushed += writebacks
            moved_total += moved
            withdrawn += 1
        if withdrawn:
            self.cache.stats.molecules_withdrawn += withdrawn
            self.resizer.log.append(
                (total_accesses, region.asid, "withdraw", withdrawn)
            )
            bus = getattr(self.cache, "telemetry", None)
            if bus is not None:
                bus.emit(
                    MoleculeWithdrawn(
                        accesses=total_accesses,
                        asid=region.asid,
                        count=withdrawn,
                        writebacks=dirty_flushed,
                        molecules=region.molecule_count,
                    )
                )
            self._after_withdraw(
                region, withdrawn, moved_total, dirty_flushed, total_accesses
            )
        else:
            # A fully denied withdrawal (floor reached, or the placement
            # policy had nothing to give) used to vanish from the log,
            # leaving inspect timelines asymmetric with grow-denied.
            self.resizer.log.append(
                (total_accesses, region.asid, "withdraw-denied", amount)
            )

    # -------------------------------------------------------------- hooks

    def _choose_victim(self, region: CacheRegion):
        """The molecule to vacate for one withdrawal step.

        The flush backend defers to the placement policy (the paper's
        rule: withdraw where the miss counters say the least data
        lives); the chash backend overrides this to minimise
        displacement instead.
        """
        return self.cache.placement.choose_withdrawal(region)

    def _reclaim(self, region: CacheRegion, molecule) -> tuple[int, int]:
        """Empty one withdrawn molecule; return ``(writebacks, moved)``.

        The flush behaviour: detach (dropping every resident line),
        release the molecule to the free pool, write dirty lines back.
        """
        flushed = region.detach_molecule(molecule)
        tile = self.cache.tile_of(molecule.tile_id)
        tile.release(molecule)
        dirty = 0
        for block, was_dirty in flushed:
            if was_dirty:
                dirty += 1
            self.cache.placement.on_evict(region, block)
        self.cache.stats.writebacks_to_memory += dirty
        self.cache.stats.flush_writebacks += dirty
        # Every resident line was displaced from its home molecule: the
        # clean ones are refetched from memory on next use, the dirty
        # ones additionally cross the bus now (flush_writebacks above).
        self.cache.stats.resize_blocks_moved += len(flushed)
        return dirty, 0

    def _after_growth(
        self, region: CacheRegion, granted: list, total_accesses: int, action: str
    ) -> None:
        """Post-grant hook (``action`` is ``"grow"`` or ``"repair"``)."""

    def _after_withdraw(
        self,
        region: CacheRegion,
        withdrawn: int,
        moved: int,
        writebacks: int,
        total_accesses: int,
    ) -> None:
        """Post-withdrawal hook (only runs when molecules were removed)."""


class FlushMechanism(ResizeMechanism):
    """The paper's mechanism: withdrawn molecules are flushed whole."""


def make_resize_mechanism(name: str, resizer: "Resizer") -> ResizeMechanism:
    """Build a resize mechanism by name (``flush`` / ``chash``)."""
    if name == "flush":
        return FlushMechanism(resizer)
    if name == "chash":
        from repro.molecular.chash import ConsistentHashMechanism

        return ConsistentHashMechanism(resizer)
    raise ConfigError(
        f"unknown resize mechanism {name!r}; expected 'flush' or 'chash'"
    )


class Resizer:
    """Drives Algorithm 1 for every managed region of a molecular cache."""

    __slots__ = (
        "cache",
        "policy",
        "global_period",
        "next_global_at",
        "global_countdown",
        "log",
        "advisor",
        "mechanism",
    )

    def __init__(self, cache, policy: ResizePolicy) -> None:
        self.cache = cache
        self.policy = policy
        self.global_period = policy.period
        #: The global round fires once ``stats.total.accesses`` reaches
        #: this. Accesses count ``global_countdown`` down to zero, then
        #: check (a ``stats.reset()`` since arming pushes the round back).
        self.next_global_at = policy.period
        self.global_countdown = policy.period
        #: Chronicle of (access_count, asid, action, amount) tuples for
        #: diagnostics and the resize-behaviour tests.
        self.log: list[tuple[int, int, str, int]] = []
        self.advisor = None
        if policy.advisor == "stack":
            from repro.molecular.advisor import StackDistanceAdvisor

            self.advisor = StackDistanceAdvisor(
                cache.config.lines_per_molecule
            )
        self.mechanism = make_resize_mechanism(policy.mechanism, self)

    # ------------------------------------------------------------ triggers

    def register_region(self, region: CacheRegion) -> None:
        """Initialise Algorithm 1 state for a newly assigned region."""
        region.max_allocation = self.policy.max_allocation
        region.last_allocation = region.molecule_count
        region.last_miss_rate = 1.0
        region.resize_period = self.policy.period
        region.resize_countdown = self.policy.period

    def global_due(self) -> None:
        """The global countdown ran out: fire the round, or re-arm when a
        stats reset since arming has pushed it back."""
        total_accesses = self.cache.stats.total.accesses
        if total_accesses >= self.next_global_at:
            self._resize_all(total_accesses)
        else:
            self.global_countdown = self.next_global_at - total_accesses

    # ------------------------------------------------------- global round

    def _managed_regions(self) -> list[CacheRegion]:
        return [r for r in self.cache.regions.values() if r.goal is not None]

    def _resize_all(self, total_accesses: int) -> None:
        regions = self._managed_regions()
        for region in regions:
            self._repair(region, total_accesses)
        for region in regions:
            self._decide(region, total_accesses)

        if self.policy.trigger == "global_adaptive":
            overall = self.cache.stats.window_miss_rate()
            goal = self._aggregate_goal(regions)
            # An idle round (every managed window empty) carries no
            # signal: hold the period instead of treating "0.0 < 0.0"
            # as a missed goal and slashing it 10x.
            if goal is None:
                pass
            elif overall < goal:
                self.global_period = min(self.global_period * 2, self.policy.period_cap)
            else:
                self.global_period = max(
                    int(self.global_period * 0.1), self.policy.period_floor
                )

        for region in regions:
            region.reset_window()
            self.cache.placement.reset_counters(region)
        self.cache.stats.reset_window()
        self.next_global_at = total_accesses + self.global_period
        self.global_countdown = self.global_period
        self.cache.stats.resize_events += 1
        self.cache.stats.resize_compute_cycles += RESIZE_COMPUTE_CYCLES * len(regions)
        # A round resets stats windows even for regions whose membership
        # did not change, so every cached access context is stale.
        self.cache._ctx_epoch += 1

    def _aggregate_goal(self, regions: list[CacheRegion]) -> float | None:
        """Access-weighted mean goal — the "overall miss rate goal".

        Returns ``None`` when every managed region's window was empty:
        there is no miss-rate evidence to adapt the period on.
        """
        weighted = 0.0
        accesses = 0
        for region in regions:
            weighted += (region.goal or 0.0) * region.window_accesses
            accesses += region.window_accesses
        if accesses == 0:
            return None
        return weighted / accesses

    # ------------------------------------------------- per-app round

    def _resize_one(self, region: CacheRegion, total_accesses: int) -> None:
        self._repair(region, total_accesses)
        self._decide(region, total_accesses)
        if region.goal is not None:
            if region.window_miss_rate < region.goal:
                region.resize_period = min(
                    region.resize_period * 2, self.policy.period_cap
                )
            else:
                region.resize_period = max(
                    int(region.resize_period * 0.1), self.policy.period_floor
                )
        region.reset_window()
        self.cache.placement.reset_counters(region)
        region.resize_countdown = region.resize_period
        self.cache.stats.resize_events += 1
        self.cache.stats.resize_compute_cycles += RESIZE_COMPUTE_CYCLES
        self.cache._ctx_epoch += 1

    # ---------------------------------------------------------- Algorithm 1

    def _decide(self, region: CacheRegion, total_accesses: int) -> None:
        if region.goal is None:
            return
        if region.window_accesses < self.policy.min_window_refs:
            return
        miss_rate = region.window_miss_rate
        current = region.molecule_count
        goal = region.goal
        log_mark = len(self.log)

        if self.advisor is not None and miss_rate <= self.policy.panic_miss_rate:
            target = self.advisor.effective_target(region)
            if target is not None:
                if miss_rate > goal:
                    if current < target:
                        amount = min(target - current, region.max_allocation)
                        self._grow(region, amount, total_accesses)
                    else:
                        # Holding the sized capacity yet missing the goal:
                        # the ideal-LRU model underestimates this region's
                        # placement overhead — learn, and keep growing.
                        self.advisor.note_underestimate(region.asid)
                        self._grow(
                            region, region.max_allocation, total_accesses
                        )
                elif miss_rate < goal * self.policy.withdraw_margin:
                    if current > target:
                        amount = min(
                            current - target,
                            region.max_allocation,
                            current - self.policy.min_molecules,
                        )
                        if amount > 0:
                            self._withdraw(region, amount, total_accesses)
                    else:
                        self.advisor.note_overestimate(region.asid)
                region.last_miss_rate = miss_rate
                self._emit_decision(region, total_accesses, miss_rate, log_mark)
                return
            # not enough samples yet: fall through to the linear model

        action, amount, new_max = algorithm1_step(
            miss_rate,
            goal,
            current,
            region.last_miss_rate,
            region.max_allocation,
            region.last_allocation,
            min_units=self.policy.min_molecules,
            panic_miss_rate=self.policy.panic_miss_rate,
            withdraw_margin=self.policy.withdraw_margin,
            grow_when_worsening=self.policy.grow_when_worsening,
        )
        region.max_allocation = new_max
        if action == "grow":
            self._grow(region, amount, total_accesses)
        elif action == "withdraw":
            self._withdraw(region, amount, total_accesses)
        region.last_miss_rate = miss_rate
        self._emit_decision(region, total_accesses, miss_rate, log_mark)

    def _emit_decision(
        self,
        region: CacheRegion,
        total_accesses: int,
        miss_rate: float,
        log_mark: int,
    ) -> None:
        """Publish the branch Algorithm 1 just took (telemetry only)."""
        bus = getattr(self.cache, "telemetry", None)
        if bus is None:
            return
        if len(self.log) > log_mark:
            _, _, action, amount = self.log[-1]
        else:
            action, amount = "hold", 0
        if self.policy.trigger == "per_app_adaptive":
            period = region.resize_period
        else:
            period = self.global_period
        bus.emit(
            ResizeDecision(
                accesses=total_accesses,
                asid=region.asid,
                action=action,
                amount=amount,
                window_miss_rate=miss_rate,
                molecules=region.molecule_count,
                period=period,
            )
        )

    # ------------------------------------------------------------- actions
    #
    # Thin delegates: the decision layer (and a handful of tests) call
    # these; the configured ResizeMechanism applies the change.

    def _repair(self, region: CacheRegion, total_accesses: int) -> None:
        self.mechanism.repair(region, total_accesses)

    def _grow(self, region: CacheRegion, amount: int, total_accesses: int) -> None:
        self.mechanism.grow(region, amount, total_accesses)

    def _withdraw(self, region: CacheRegion, amount: int, total_accesses: int) -> None:
        self.mechanism.withdraw(region, amount, total_accesses)

    def force_resize(self) -> None:
        """Run a resize round immediately (test/diagnostic hook)."""
        if self.policy.trigger == "per_app_adaptive":
            for region in self._managed_regions():
                self._resize_one(region, self.cache.stats.total.accesses)
        else:
            self._resize_all(self.cache.stats.total.accesses)

    def check_consistency(self) -> None:
        """Raise if any cache bookkeeping is inconsistent (test hook).

        Delegates to the full-state auditor (:mod:`repro.audit.invariants`),
        which absorbed and extended the original tile-index check; the
        :class:`~repro.audit.invariants.AuditError` it raises is a
        :class:`~repro.common.errors.SimulationError`, so existing callers
        are unaffected.
        """
        from repro.audit.invariants import assert_invariants

        assert_invariants(self.cache)
