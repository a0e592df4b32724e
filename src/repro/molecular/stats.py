"""Statistics specific to molecular caches.

Extends the common :class:`~repro.caches.stats.CacheStats` with the probe
accounting the power model integrates (Table 4's "average mixed workload"
column is computed from exactly these counters) and resize-engine activity.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.caches.stats import CacheStats


@dataclass(slots=True)
class MolecularStats(CacheStats):
    """Event counters for a molecular cache run.

    Attributes
    ----------
    molecules_probed_local / molecules_probed_remote:
        Total ASID-matching molecules probed in home tiles / via Ulmo.
        Dynamic data-array energy is proportional to these.
    asid_comparisons:
        Total ASID-comparator activations (every molecule of a searched
        tile performs the comparison — Figure 3's gate — even when it does
        not proceed to the data array).
    lines_fetched:
        Base lines brought in from memory (> misses when a region uses a
        larger line size).
    flush_writebacks:
        Dirty lines written back because a molecule was flushed on
        withdrawal (the remainder of ``writebacks_to_memory`` is dirty
        replacement evictions, counted per ASID in ``total.writebacks``).
        Under the ``chash`` mechanism only *spilled* lines (resident data
        that found no empty slot on the survivors) land here.
    resize_events / molecules_granted / molecules_withdrawn:
        Resize-engine activity.
    resize_blocks_moved / resize_spill_writebacks / resize_remap_work:
        Resize data-movement accounting (DESIGN.md section 13).
        ``resize_blocks_moved`` counts resident lines a resize action
        displaced from their home molecule, under *either* backend: the
        flush backend displaces every resident line of a withdrawn
        molecule (clean lines are refetched from memory later, dirty
        ones also cross the bus now), the chash backend counts lines
        migrated on a grow plus lines adopted-or-spilled on a withdraw.
        ``resize_spill_writebacks`` is the chash backend's dirty lines
        spilled to memory for want of a survivor slot (a subset of
        ``flush_writebacks``); ``resize_remap_work`` its ring-ownership
        evaluations (one per resident block considered for remap).
    faults_injected / molecules_retired / molecules_repaired /
    lines_invalidated:
        Fault-injection activity: faults applied, molecules retired by
        hard faults, replacement molecules granted by region repair, and
        lines dropped by transient (detected-uncorrectable) faults.
    resize_compute_cycles:
        Accounted cost of the resize computation (~1500 cycles per
        application per resize, per the paper).
    """

    molecules_probed_local: int = 0
    molecules_probed_remote: int = 0
    asid_comparisons: int = 0
    lines_fetched: int = 0
    writebacks_to_memory: int = 0
    flush_writebacks: int = 0
    resize_events: int = 0
    molecules_granted: int = 0
    molecules_withdrawn: int = 0
    resize_blocks_moved: int = 0
    resize_spill_writebacks: int = 0
    resize_remap_work: int = 0
    resize_compute_cycles: int = 0
    latency_cycles: int = 0
    faults_injected: int = 0
    molecules_retired: int = 0
    molecules_repaired: int = 0
    lines_invalidated: int = 0

    @property
    def molecules_probed(self) -> int:
        return self.molecules_probed_local + self.molecules_probed_remote

    def mean_molecules_probed(self) -> float:
        """Average molecules probed per access — the power model's input."""
        if self.total.accesses == 0:
            return 0.0
        return self.molecules_probed / self.total.accesses

    def mean_latency_cycles(self) -> float:
        """Average access latency (cycles) per the attached latency model."""
        if self.total.accesses == 0:
            return 0.0
        return self.latency_cycles / self.total.accesses

    def as_dict(self) -> dict:
        # Explicit base call: zero-arg super() breaks under
        # @dataclass(slots=True), which replaces the class object.
        base = CacheStats.as_dict(self)
        base.update(
            {
                "molecules_probed_local": self.molecules_probed_local,
                "molecules_probed_remote": self.molecules_probed_remote,
                "mean_molecules_probed": self.mean_molecules_probed(),
                "asid_comparisons": self.asid_comparisons,
                "lines_fetched": self.lines_fetched,
                "writebacks_to_memory": self.writebacks_to_memory,
                "flush_writebacks": self.flush_writebacks,
                "resize_events": self.resize_events,
                "molecules_granted": self.molecules_granted,
                "molecules_withdrawn": self.molecules_withdrawn,
                "resize_blocks_moved": self.resize_blocks_moved,
                "resize_spill_writebacks": self.resize_spill_writebacks,
                "resize_remap_work": self.resize_remap_work,
                "resize_compute_cycles": self.resize_compute_cycles,
                "latency_cycles": self.latency_cycles,
                "mean_latency_cycles": self.mean_latency_cycles(),
                "faults_injected": self.faults_injected,
                "molecules_retired": self.molecules_retired,
                "molecules_repaired": self.molecules_repaired,
                "lines_invalidated": self.lines_invalidated,
            }
        )
        return base
