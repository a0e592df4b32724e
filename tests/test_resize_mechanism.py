"""Resize-mechanism tests: flush byte-identity and the chash backend.

Two suites:

* **Byte identity** — the refactor that extracted
  :class:`~repro.molecular.resize.ResizeMechanism` from the resizer must
  not change the flush backend's observable behaviour. A
  ``_LegacyMechanism`` embeds the pre-refactor ``_grow`` / ``_withdraw``
  / ``_repair`` bodies verbatim (commit ``bae4421``) and replays the
  same stream as the current flush backend across placements, triggers
  and fault injection; stats, occupancy, resize logs and telemetry must
  match. Two deliberate deltas are excluded: the new data-movement
  counters (``resize_blocks_moved`` / ``resize_spill_writebacks`` /
  ``resize_remap_work`` — the legacy resizer never counted displaced
  lines) and the ``withdraw-denied`` log entries the legacy resizer
  silently dropped (the ISSUE's bugfix).
* **chash** — ring determinism and probing, victim selection,
  occupancy-preserving withdrawal, differential-oracle agreement across
  all access paths, and the experiment's headline verdict.
"""

import random

import pytest

from repro.audit.invariants import assert_invariants
from repro.audit.oracle import AppSpec, Scenario, run_oracle
from repro.common.errors import ConfigError
from repro.faults.injector import apply_fault
from repro.faults.spec import FaultSpec
from repro.molecular.cache import MolecularCache
from repro.molecular.chash import (
    PROBE_LIMIT,
    ConsistentHashMechanism,
    MoleculeRing,
    mix64,
    ring_points,
)
from repro.molecular.config import MolecularCacheConfig, ResizePolicy
from repro.molecular.resize import ResizeMechanism
from repro.sim.experiments.resize_mechanism import run_resize_mechanism_cell
from repro.telemetry.bus import EventBus
from repro.telemetry.events import (
    MoleculeGranted,
    MoleculeRemapped,
    MoleculeWithdrawn,
    RegionRepaired,
    event_from_dict,
)
from repro.telemetry.sinks import RingBufferSink

#: Counters the refactor introduced — the legacy resizer never kept
#: them, so the byte-identity comparison excludes exactly this set.
NEW_STATS_KEYS = frozenset(
    {"resize_blocks_moved", "resize_spill_writebacks", "resize_remap_work"}
)


class _LegacyMechanism(ResizeMechanism):
    """The pre-refactor resizer actions, bodies verbatim from bae4421.

    ``self.log`` became ``self.resizer.log`` (the only mechanical
    adaptation); behaviour — including the silent fully-denied
    withdrawal — is otherwise untouched.
    """

    def grow(self, region, amount, total_accesses):
        if amount <= 0:
            return
        cluster = self.cache.cluster_of_tile(region.home_tile_id)
        granted = cluster.ulmo.allocate(region.asid, amount, region.home_tile_id)
        for molecule in granted:
            row = self.cache.placement.add_row_index(region)
            region.add_molecule(molecule, row)
        if granted:
            region.last_allocation = len(granted)
            self.cache.stats.molecules_granted += len(granted)
            self.resizer.log.append((total_accesses, region.asid, "grow", len(granted)))
            bus = getattr(self.cache, "telemetry", None)
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
        else:
            self.resizer.log.append((total_accesses, region.asid, "grow-denied", amount))

    def repair(self, region, total_accesses):
        wanted = region.pending_repair
        if wanted <= 0:
            return
        cluster = self.cache.cluster_of_tile(region.home_tile_id)
        granted = cluster.ulmo.allocate(region.asid, wanted, region.home_tile_id)
        for molecule in granted:
            row = self.cache.placement.add_row_index(region)
            region.add_molecule(molecule, row)
        if granted:
            region.pending_repair -= len(granted)
            self.cache.stats.molecules_repaired += len(granted)
            self.resizer.log.append((total_accesses, region.asid, "repair", len(granted)))
            bus = getattr(self.cache, "telemetry", None)
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
        else:
            self.resizer.log.append((total_accesses, region.asid, "repair-denied", wanted))

    def withdraw(self, region, amount, total_accesses):
        withdrawn = 0
        dirty_flushed = 0
        for _ in range(amount):
            if region.molecule_count <= self.policy.min_molecules:
                break
            molecule = self.cache.placement.choose_withdrawal(region)
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
            dirty_flushed += dirty
            withdrawn += 1
        if withdrawn:
            self.cache.stats.molecules_withdrawn += withdrawn
            self.resizer.log.append((total_accesses, region.asid, "withdraw", withdrawn))
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


# ------------------------------------------------------------ byte identity


def _identity_cache(placement: str, trigger: str):
    config = MolecularCacheConfig(
        molecule_bytes=512,
        line_bytes=64,
        molecules_per_tile=8,
        tiles_per_cluster=2,
        clusters=1,
        strict=False,
    )
    policy = ResizePolicy(
        period=300,
        trigger=trigger,
        period_floor=100,
        min_window_refs=16,
        max_allocation=4,
        mechanism="flush",
    )
    cache = MolecularCache(config, policy, placement=placement)
    cache.assign_application(0, goal=0.2, tile_id=0)
    cache.assign_application(1, goal=0.2, tile_id=1)
    sink = RingBufferSink(capacity=100_000)
    cache.attach_telemetry(EventBus([sink], epoch_refs=1_000))
    return cache, sink


def _identity_ops(count: int, seed: int, faults: bool):
    """A phased, write-heavy stream that grows, shrinks and (optionally)
    faults — plus direct floor-withdrawals to exercise the denied path."""
    rng = random.Random(f"{seed}/resize-identity")
    ops = []
    for index in range(count):
        if faults and index in (count // 3, 2 * count // 3):
            ops.append(("fault", rng.randrange(16)))
        if index and index % (count // 4) == 0:
            # A deliberate over-withdrawal: at or near the floor the
            # current backend logs withdraw-denied, the legacy one says
            # nothing — the comparison filters exactly that entry.
            ops.append(("force_withdraw", rng.randrange(2), 8))
        phase = index // 400
        asid = rng.randrange(2)
        base = 1 + asid * 100_000
        span = 96 if (phase + asid) % 2 else 12
        if rng.random() < 0.85:
            block = base + rng.randrange(span)
        else:
            block = base + span + rng.randrange(span * 4)
        ops.append(("access", asid, block, rng.random() < 0.5))
    return ops


def _drive_identity(cache, ops):
    bus, accesses = cache.telemetry, 0
    for op in ops:
        if op[0] == "access":
            cache.access_block(op[2], op[1], op[3])
            accesses += 1
            if accesses % bus.epoch_refs == 0:
                bus.rollover(accesses)  # the epoch clock a driver keeps
        elif op[0] == "fault":
            apply_fault(cache, FaultSpec(kind="hard", at=0, target=op[1]))
        elif op[0] == "force_withdraw":
            region = cache.regions.get(op[1])
            if region is not None and region.goal is not None:
                cache.resizer._withdraw(
                    region, op[2], cache.stats.total.accesses
                )


@pytest.mark.parametrize("placement", ["random", "randy", "lru_direct"])
@pytest.mark.parametrize(
    "trigger", ["constant", "global_adaptive", "per_app_adaptive"]
)
@pytest.mark.parametrize("faults", [False, True])
def test_flush_backend_is_byte_identical_to_legacy(placement, trigger, faults):
    ops = _identity_ops(2_500, seed=7, faults=faults)

    current, current_sink = _identity_cache(placement, trigger)
    legacy, legacy_sink = _identity_cache(placement, trigger)
    legacy.resizer.mechanism = _LegacyMechanism(legacy.resizer)

    _drive_identity(current, ops)
    _drive_identity(legacy, ops)

    current_stats = {
        k: v for k, v in current.stats.as_dict().items()
        if k not in NEW_STATS_KEYS
    }
    legacy_stats = {
        k: v for k, v in legacy.stats.as_dict().items()
        if k not in NEW_STATS_KEYS
    }
    assert current_stats == legacy_stats
    assert current.occupancy_report() == legacy.occupancy_report()
    current_log = [
        entry for entry in current.resizer.log
        if entry[2] != "withdraw-denied"
    ]
    assert current_log == list(legacy.resizer.log)
    assert [e.as_dict() for e in current_sink] == [
        e.as_dict() for e in legacy_sink
    ]
    assert sum(e.kind == "epoch_rollover" for e in current_sink) == 2
    assert_invariants(current)
    assert_invariants(legacy)


# ------------------------------------------------------------------- ring


class _FakeMolecule:
    __slots__ = ("molecule_id",)

    def __init__(self, molecule_id):
        self.molecule_id = molecule_id


class TestRing:
    def test_mix64_is_deterministic_and_64_bit(self):
        assert mix64(0) == mix64(0)
        for value in (0, 1, 2**40, 2**63):
            assert 0 <= mix64(value) < 2**64
        assert len({mix64(v) for v in range(1_000)}) == 1_000

    def test_ring_points_count(self):
        assert len(ring_points(3)) == 32
        assert ring_points(3) == ring_points(3)
        assert ring_points(3) != ring_points(4)

    def test_identical_membership_builds_identical_rings(self):
        molecules = [_FakeMolecule(i) for i in range(6)]
        a = MoleculeRing(molecules)
        b = MoleculeRing(reversed(molecules))
        assert a.points == b.points
        assert [m.molecule_id for m in a.owners] == [
            m.molecule_id for m in b.owners
        ]

    def test_no_key_moves_between_survivors_on_growth(self):
        """The consistent-hashing property the migration pass relies on."""
        old = MoleculeRing([_FakeMolecule(i) for i in range(5)])
        new = MoleculeRing([_FakeMolecule(i) for i in range(6)])
        for key in range(2_000):
            before = old.owner(key).molecule_id
            after = new.owner(key).molecule_id
            if after != before:
                assert after == 5  # moved keys only ever land on the newcomer

    def test_slices_are_reasonably_balanced(self):
        ring = MoleculeRing([_FakeMolecule(i) for i in range(8)])
        counts = {i: 0 for i in range(8)}
        for key in range(8_000):
            counts[ring.owner(key).molecule_id] += 1
        assert min(counts.values()) > 0
        assert max(counts.values()) / min(counts.values()) < 4.0

    def test_owners_from_yields_each_molecule_once(self):
        molecules = [_FakeMolecule(i) for i in range(7)]
        ring = MoleculeRing(molecules)
        for key in (0, 17, 99_991):
            sequence = [m.molecule_id for m in ring.owners_from(key)]
            assert sequence[0] == ring.owner(key).molecule_id
            assert len(sequence) == 7
            assert sorted(sequence) == list(range(7))

    def test_probe_limit_is_sane(self):
        assert 1 <= PROBE_LIMIT <= 64


# ------------------------------------------------------------ chash backend


def _chash_cache(mechanism="chash", trigger="constant", molecules_per_tile=8):
    config = MolecularCacheConfig(
        molecule_bytes=512,
        line_bytes=64,
        molecules_per_tile=molecules_per_tile,
        tiles_per_cluster=2,
        clusters=1,
        strict=False,
    )
    policy = ResizePolicy(
        period=10_000_000,  # resizes only via direct calls
        trigger=trigger,
        mechanism=mechanism,
    )
    cache = MolecularCache(config, policy, placement="randy")
    cache.assign_application(0, goal=0.2, tile_id=0)
    return cache


class TestDropCleanLine:
    def test_drops_clean_occupant_and_returns_it(self):
        cache = _chash_cache(mechanism="flush")
        region = cache.regions[0]
        cache.access_block(5, 0, write=False)  # clean resident line
        molecule = region.presence[5]
        index = molecule.index_of(5)
        assert region.drop_clean_line(molecule, index) == 5
        assert 5 not in region.presence
        assert molecule.lines[index] is None

    def test_refuses_dirty_occupant(self):
        cache = _chash_cache(mechanism="flush")
        region = cache.regions[0]
        cache.access_block(5, 0, write=True)
        molecule = region.presence[5]
        assert region.drop_clean_line(molecule, molecule.index_of(5)) is None
        assert 5 in region.presence

    def test_refuses_empty_slot(self):
        cache = _chash_cache(mechanism="flush")
        region = cache.regions[0]
        molecule = next(iter(region.molecules()))
        assert region.drop_clean_line(molecule, 0) is None


class TestChashWithdraw:
    def _fill(self, cache, blocks, write=True):
        for block in blocks:
            cache.access_block(block, 0, write=write)

    def test_withdraw_remaps_instead_of_flushing(self):
        """A lightly loaded region loses no dirty data on withdrawal."""
        cache = _chash_cache()
        region = cache.regions[0]
        self._fill(cache, range(1, 9))  # 8 dirty lines, region half-full
        resident_before = set(region.presence)
        cache.resizer._withdraw(region, 2, cache.stats.total.accesses)
        assert cache.stats.molecules_withdrawn == 2
        # With survivor slots available (and PROBE_LIMIT probing) every
        # dirty line must be adopted on-chip, not written back.
        assert set(region.presence) == resident_before
        assert cache.stats.flush_writebacks == 0
        assert cache.stats.resize_spill_writebacks == 0
        assert_invariants(cache)

    def test_reclaim_adopts_a_loaded_molecules_lines(self):
        """Emptying a molecule with resident dirty data spills nothing."""
        cache = _chash_cache()
        region = cache.regions[0]
        self._fill(cache, range(1, 9))
        molecule = region.presence[5]
        resident = sum(1 for line in molecule.lines if line is not None)
        assert resident > 0
        writebacks, moved = cache.resizer.mechanism._reclaim(region, molecule)
        assert (writebacks, moved) == (0, resident)
        assert cache.stats.resize_blocks_moved == resident
        assert 5 in region.presence  # adopted by a survivor, still dirty
        assert region.presence[5].dirty[region.presence[5].index_of(5)]

    def test_flush_withdraw_writes_back_what_chash_keeps(self):
        def dirty_resident(cache):
            return sum(
                1
                for m in cache.regions[0].molecules()
                for i, line in enumerate(m.lines)
                if line is not None and m.dirty[i]
            )

        chash = _chash_cache(mechanism="chash")
        flush = _chash_cache(mechanism="flush")
        for cache in (chash, flush):
            # Fill the region completely; the %3 stride keeps each
            # direct-mapped index a clean/dirty mix so swap-adoption
            # (drop a clean occupant, keep the dirty line) can fire.
            for block in range(1, 33):
                cache.access_block(block, 0, write=(block % 3 == 0))
            region = cache.regions[0]
            cache.resizer._withdraw(region, 2, cache.stats.total.accesses)
        assert chash.stats.flush_writebacks < flush.stats.flush_writebacks
        assert dirty_resident(chash) > dirty_resident(flush)

    def test_victim_selection_prefers_emptiest_molecule(self):
        cache = _chash_cache()
        region = cache.regions[0]
        for block in range(1, 30):
            cache.access_block(block, 0, write=True)
        mechanism = cache.resizer.mechanism
        assert isinstance(mechanism, ConsistentHashMechanism)
        victim = mechanism._choose_victim(region)
        lightest = min(
            sum(1 for line in m.lines if line is not None)
            + sum(
                1
                for i, line in enumerate(m.lines)
                if line is not None and m.dirty[i]
            )
            for m in region.molecules()
        )
        cost = sum(
            1 for line in victim.lines if line is not None
        ) + sum(
            1
            for i, line in enumerate(victim.lines)
            if line is not None and victim.dirty[i]
        )
        assert cost == lightest

    def test_grow_migrates_only_dirty_remapped_lines(self):
        cache = _chash_cache()
        region = cache.regions[0]
        for block in range(1, 50):
            cache.access_block(block, 0, write=(block % 2 == 0))
        moved_before = cache.stats.resize_blocks_moved
        cache.resizer._grow(region, 4, cache.stats.total.accesses)
        migrated = cache.stats.resize_blocks_moved - moved_before
        dirty_total = sum(
            1
            for m in region.molecules()
            for i, line in enumerate(m.lines)
            if line is not None and m.dirty[i]
        )
        assert 0 <= migrated <= dirty_total
        assert cache.stats.flush_writebacks == 0  # migration is on-chip
        assert_invariants(cache)


class TestChashEndToEnd:
    def test_invariants_hold_under_churn(self):
        config = MolecularCacheConfig(
            molecule_bytes=512,
            line_bytes=64,
            molecules_per_tile=8,
            tiles_per_cluster=2,
            clusters=1,
            strict=False,
        )
        policy = ResizePolicy(
            period=250,
            trigger="global_adaptive",
            period_floor=100,
            min_window_refs=16,
            max_allocation=4,
            mechanism="chash",
        )
        cache = MolecularCache(config, policy, placement="randy")
        cache.assign_application(0, goal=0.2, tile_id=0)
        cache.assign_application(1, goal=0.2, tile_id=1)
        rng = random.Random("chash-churn")
        for index in range(6_000):
            asid = rng.randrange(2)
            span = 96 if (index // 500 + asid) % 2 else 12
            block = 1 + asid * 100_000 + rng.randrange(span)
            cache.access_block(block, asid, rng.random() < 0.5)
            if index in (2_000, 4_000):
                apply_fault(
                    cache, FaultSpec(kind="hard", at=0, target=rng.randrange(16))
                )
            if index % 500 == 0:
                assert_invariants(cache)
        assert cache.stats.molecules_withdrawn > 0
        assert cache.stats.resize_blocks_moved > 0
        assert_invariants(cache)

    def test_all_access_paths_agree_under_chash(self):
        """The differential oracle holds with the chash backend active."""
        scenario = Scenario(
            apps=(
                AppSpec(asid=0, goal=0.1, tile_id=0, initial_molecules=2),
                AppSpec(asid=1, goal=0.2, tile_id=1, initial_molecules=2),
            ),
            placement="randy",
            trigger="global_adaptive",
            mechanism="chash",
        )
        rng = random.Random("chash-oracle")
        ops = []
        for index in range(1_500):
            asid = rng.randrange(2)
            span = 48 if (index // 300 + asid) % 2 else 8
            block = 1 + asid * 100_000 + rng.randrange(span)
            ops.append(("access", asid, block, rng.random() < 0.4))
        report = run_oracle(scenario, ops, audit_every=500)
        assert report.divergences == []


# ----------------------------------------------------------- configuration


def test_resize_policy_rejects_unknown_mechanism():
    with pytest.raises(ConfigError):
        ResizePolicy(mechanism="teleport")


def test_molecule_remapped_round_trips_through_the_registry():
    event = MoleculeRemapped(
        accesses=123,
        asid=1,
        action="withdraw",
        count=2,
        moved=9,
        spilled=1,
        molecules=6,
    )
    assert event_from_dict(event.as_dict()) == event


def test_idle_global_round_holds_the_period():
    """An all-empty window must not slash the global-adaptive period 10x."""
    cache = _chash_cache(mechanism="flush", trigger="global_adaptive")
    resizer = cache.resizer
    before = resizer.global_period
    resizer.force_resize()  # no accesses: every managed window is empty
    assert resizer.global_period == before


# -------------------------------------------------------------- experiment


def test_chash_moves_strictly_less_than_flush_on_the_churn_cell():
    """The ISSUE's acceptance bar, pinned on the constant-trigger cell."""
    flush = run_resize_mechanism_cell("flush", "constant", 30_000, seed=1)
    chash = run_resize_mechanism_cell("chash", "constant", 30_000, seed=1)
    assert chash["data_moved"] < flush["data_moved"]
    assert flush["repaired"] > 0 and chash["repaired"] > 0  # faults fired
