"""Statistics specific to molecular caches.

Extends the common :class:`~repro.caches.stats.CacheStats` with the probe
accounting the power model integrates (Table 4's "average mixed workload"
column is computed from exactly these counters) and resize-engine activity.
Sessions charge the probe, comparator, fetch and latency counters in bulk
from per-context outcome counts (:mod:`repro.molecular.engine`); reading a
settled counter (:func:`settled`) settles those first.
"""

from __future__ import annotations

from repro.caches.stats import CacheStats


def settled(slot: str) -> property:
    """A counter charged in bulk: reading it settles its owner first."""

    def read(owner) -> int:
        owner.settle()
        return getattr(owner, slot)

    return property(read, lambda owner, value: setattr(owner, slot, value))


#: Every counter of :class:`MolecularStats`, in report order.
FIELDS = (
    "molecules_probed_local", "molecules_probed_remote", "asid_comparisons",
    "lines_fetched", "writebacks_to_memory", "flush_writebacks",
    "resize_events", "molecules_granted", "molecules_withdrawn",
    "resize_blocks_moved", "resize_spill_writebacks", "resize_remap_work",
    "resize_compute_cycles", "latency_cycles", "faults_injected",
    "molecules_retired", "molecules_repaired", "lines_invalidated",
)
_SETTLED = FIELDS[:4] + ("latency_cycles",)


class MolecularStats(CacheStats):
    """Event counters for a molecular cache run.

    * ``molecules_probed_local``/``_remote``: ASID-matching molecules
      probed in home tiles / via Ulmo (dynamic data-array energy).
    * ``asid_comparisons``: comparator activations; every molecule of a
      searched tile compares (Figure 3's gate), matching or not.
    * ``lines_fetched``: base lines brought in from memory (> misses when
      a region uses a larger line size).
    * ``flush_writebacks``: dirty lines written back because a molecule
      was flushed on withdrawal (under ``chash``, only spilled lines); the
      rest of ``writebacks_to_memory`` is dirty replacement evictions,
      counted per ASID in ``total.writebacks``.
    * ``resize_*``, ``molecules_granted``/``_withdrawn``: resize activity
      and data movement (DESIGN.md section 13). ``resize_blocks_moved``
      counts resident lines a resize displaced from their home molecule
      under either backend; ``resize_spill_writebacks`` (a subset of
      ``flush_writebacks``) and ``resize_remap_work`` (ring-ownership
      evaluations) are the chash backend's; ``resize_compute_cycles``
      costs each decision ~1500 cycles per application, per the paper.
    * ``faults_injected``, ``molecules_retired``/``_repaired``,
      ``lines_invalidated``: fault-injection activity.
    * ``contexts``: each ASID's live access context, shared by every
      session; :meth:`settle` folds their outcome counts in.
    """

    __slots__ = tuple(
        "_" + name if name in _SETTLED else name for name in FIELDS
    ) + ("contexts",)

    molecules_probed_local = settled("_molecules_probed_local")
    molecules_probed_remote = settled("_molecules_probed_remote")
    asid_comparisons = settled("_asid_comparisons")
    lines_fetched = settled("_lines_fetched")
    latency_cycles = settled("_latency_cycles")

    def __init__(self) -> None:
        CacheStats.__init__(self)
        for name in FIELDS:
            setattr(self, name, 0)
        self.contexts: dict = {}

    def settle(self) -> None:
        for context in self.contexts.values():
            context.settle()

    def charge(self, probed_local: int, probed_remote: int, comparisons: int,
               fetched: int, cycles: int) -> None:
        """Add one settlement's charges (without settling again)."""
        self._molecules_probed_local += probed_local
        self._molecules_probed_remote += probed_remote
        self._asid_comparisons += comparisons
        self._lines_fetched += fetched
        self._latency_cycles += cycles

    def reset(self) -> None:
        # The contexts go too: each ASID's next access rebuilds its
        # context and so touches its counters again.
        self.settle()
        self.contexts.clear()
        CacheStats.reset(self)

    @property
    def molecules_probed(self) -> int:
        return self.molecules_probed_local + self.molecules_probed_remote

    def mean_molecules_probed(self) -> float:
        """Average molecules probed per access — the power model's input."""
        accesses = self.total.accesses
        return self.molecules_probed / accesses if accesses else 0.0

    def mean_latency_cycles(self) -> float:
        """Average access latency (cycles) per the attached latency model."""
        accesses = self.total.accesses
        return self.latency_cycles / accesses if accesses else 0.0

    def _key(self) -> tuple:
        return CacheStats._key(self) + tuple(getattr(self, f) for f in FIELDS)

    def as_dict(self) -> dict:
        snapshot = CacheStats.as_dict(self)
        snapshot.update((name, getattr(self, name)) for name in FIELDS)
        snapshot["mean_molecules_probed"] = self.mean_molecules_probed()
        snapshot["mean_latency_cycles"] = self.mean_latency_cycles()
        return snapshot
