"""Flush vs consistent-hashing resize mechanisms under churn.

Not a paper table: the evaluation for the second resize backend
(:mod:`repro.molecular.chash`, DESIGN.md section 13). Two applications
walk a *phased* footprint — the hot set alternates between one that fits
a freshly shrunk partition and one several times larger — with
write-heavy traffic, so Algorithm 1 keeps cycling grow/withdraw; a burst
of hard faults at mid-run exercises the repair path too. Every cell
replays the **same** access stream (the generator is seeded
independently of mechanism and trigger), so the backends differ only in
how they apply each capacity change.

Per ``trigger x mechanism`` cell the experiment reports:

* **data moved** — the resize traffic a backend caused, in base lines:
  ``resize_blocks_moved`` (lines a resize displaced from their home
  molecule, under either backend — see
  :class:`repro.molecular.stats.MolecularStats`) plus
  ``flush_writebacks`` (dirty lines the resize pushed across the memory
  bus). A dirty line a flush discards is counted twice — once displaced,
  once written back — because it crosses the bus twice (writeback now,
  refill later); a chash adoption keeps it on-chip and counts once. The
  acceptance bar for the chash backend is moving *strictly less* than
  flush here.
* **miss-rate recovery** — for every grow/withdraw/repair in the resize
  log, the references until the windowed miss rate first returns to the
  run's median; reported as the mean per action class.
"""

from __future__ import annotations

import random
from statistics import mean, median

from repro.common.errors import ConfigError
from repro.faults.injector import apply_fault
from repro.faults.spec import FaultSpec
from repro.molecular.cache import MolecularCache
from repro.molecular.config import MolecularCacheConfig, ResizePolicy
from repro.sim.experiments.defs.resize_mechanism import (  # noqa: F401  (re-exported)
    MECHANISMS,
    TRIGGERS,
    ResizeMechanismResult,
    resolve_grid,
)

#: Miss-rate goal both applications are managed towards.
GOAL = 0.25
#: Window (references) for the recovery-time miss-rate series.
WINDOW = 250
#: Fixed footprint-phase length in references. Fixed (rather than a
#: fraction of the run) so churn density — and with it the flush/chash
#: comparison — is scale-invariant in ``refs``.
PHASE_LEN = 3_750
#: Hard-fault bursts: (position as a fraction of refs, molecules hit).
FAULT_BURSTS = ((0.45, 2), (0.7, 2))


def mechanism_config() -> MolecularCacheConfig:
    """Two 16-molecule tiles of 1 KB molecules (16 lines each).

    Small enough that the phased footprints actually overflow and drain
    partitions — the point is resize churn, not steady state.
    """
    return MolecularCacheConfig(
        molecule_bytes=1024,
        line_bytes=64,
        molecules_per_tile=16,
        tiles_per_cluster=2,
        clusters=1,
        placement="randy",
        strict=False,
    )


def churn_trace(refs: int, seed: int) -> list[tuple[int, int, bool]]:
    """``(block, asid, write)`` triples with anti-phase hot sets.

    Deterministic in ``(refs, seed)`` only — every cell of the grid
    replays the identical stream. The two applications' hot sets swap
    sizes every :data:`PHASE_LEN` references (one walks 32 blocks while
    the other walks 160, then they trade), so capacity must shuttle
    between the regions all run long; 60% of references write, so the
    capacity being shuttled is dirty when the resizer takes it.
    """
    rng = random.Random(f"{seed}/resize-mechanism-churn")
    ops: list[tuple[int, int, bool]] = []
    for index in range(refs):
        phase = index // PHASE_LEN
        asid = 0 if rng.random() < 0.6 else 1
        base = 1 + asid * 1_000_000
        if asid == 0:
            span = 160 if phase % 2 else 32
        else:
            span = 32 if phase % 2 else 160
        if rng.random() < 0.85:
            block = base + rng.randrange(span)
        else:
            block = base + span + rng.randrange(span * 4)
        ops.append((block, asid, rng.random() < 0.6))
    return ops


def _inject_burst(cache: MolecularCache, count: int) -> None:
    """Retire ``count`` of region 0's molecules (deterministic choice)."""
    region = cache.regions.get(0)
    if region is None:
        return
    owned = sorted(m.molecule_id for m in region.molecules())[:count]
    for molecule_id in owned:
        apply_fault(cache, FaultSpec(kind="hard", at=0, target=molecule_id))


def _recovery(
    log: list[tuple[int, int, str, int]],
    windows: list[tuple[int, float]],
    refs: int,
) -> dict[str, float | None]:
    """Mean references-to-recovery per resize action class.

    Recovery of one event at access ``a``: the gap to the end of the
    first later window whose miss rate is back at (or below) the run's
    median. Events that never recover are censored at end-of-run, which
    biases *against* the backend that caused the damage — exactly the
    comparison we want.
    """
    if not windows:
        return {"grow": None, "withdraw": None, "repair": None, "overall": None}
    baseline = median(rate for _, rate in windows)
    samples: dict[str, list[int]] = {"grow": [], "withdraw": [], "repair": []}
    for accesses, _asid, action, _amount in log:
        if action not in samples:
            continue
        for end, rate in windows:
            if end <= accesses:
                continue
            if rate <= baseline:
                samples[action].append(end - accesses)
                break
        else:
            samples[action].append(max(refs - accesses, 0))
    out: dict[str, float | None] = {
        action: (mean(values) if values else None)
        for action, values in samples.items()
    }
    merged = [value for values in samples.values() for value in values]
    out["overall"] = mean(merged) if merged else None
    return out


def run_resize_mechanism_cell(
    mechanism: str, trigger: str, refs: int, seed: int = 1
) -> dict:
    """One grid cell; returns a JSON-able metrics payload."""
    if mechanism not in MECHANISMS:
        raise ConfigError(
            f"unknown resize mechanism {mechanism!r}; expected one of "
            f"{MECHANISMS}"
        )
    if trigger not in TRIGGERS:
        raise ConfigError(
            f"unknown trigger {trigger!r}; expected one of {TRIGGERS}"
        )
    config = mechanism_config()
    policy = ResizePolicy(
        period=1_000,
        trigger=trigger,
        period_floor=500,
        # A low cap keeps the adaptive triggers actively resizing (an
        # idle converged period would measure nothing) so every cell
        # compares the mechanisms under sustained churn.
        period_cap=4_000,
        min_window_refs=32,
        max_allocation=2,
        mechanism=mechanism,
    )
    cache = MolecularCache(config, policy, placement="randy")
    cache.assign_application(0, goal=GOAL, tile_id=0)
    cache.assign_application(1, goal=GOAL, tile_id=1)

    ops = churn_trace(refs, seed)
    bursts = {
        max(1, int(refs * position)): count for position, count in FAULT_BURSTS
    }
    stats = cache.stats
    access = cache.access_session().access
    windows: list[tuple[int, float]] = []
    window_mark_acc = window_mark_miss = 0
    for index, (block, asid, write) in enumerate(ops):
        burst = bursts.get(index)
        if burst:
            _inject_burst(cache, burst)
        access(block, asid, write)
        if (index + 1) % WINDOW == 0:
            accesses = stats.total.accesses
            misses = stats.total.misses
            delta_acc = accesses - window_mark_acc
            delta_miss = misses - window_mark_miss
            windows.append(
                (accesses, delta_miss / delta_acc if delta_acc else 0.0)
            )
            window_mark_acc, window_mark_miss = accesses, misses

    log = list(cache.resizer.log)
    blocks_moved = stats.resize_blocks_moved
    flush_writebacks = stats.flush_writebacks
    return {
        "mechanism": mechanism,
        "trigger": trigger,
        "miss_rate": stats.total.miss_rate,
        "granted": stats.molecules_granted,
        "withdrawn": stats.molecules_withdrawn,
        "repaired": stats.molecules_repaired,
        "blocks_moved": blocks_moved,
        "flush_writebacks": flush_writebacks,
        "spill_writebacks": stats.resize_spill_writebacks,
        "remap_work": stats.resize_remap_work,
        "data_moved": blocks_moved + flush_writebacks,
        "recovery": _recovery(log, windows, refs),
    }


def run_cell(params: dict, seed: int) -> dict:
    """One job of the grid (:func:`run_resize_mechanism_cell`)."""
    return run_resize_mechanism_cell(
        params["mechanism"], params["trigger"], params["refs"], seed=seed
    )
