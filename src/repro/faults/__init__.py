"""Deterministic fault injection and chaos testing.

Two layers of sabotage, both seeded and reproducible:

* **Cache-level faults** (:mod:`repro.faults.spec`,
  :mod:`repro.faults.injector`) — timed :class:`FaultSpec` entries in a
  :class:`FaultPlan` fire against a live
  :class:`~repro.molecular.cache.MolecularCache`: hard faults retire
  molecules, transient faults drop single lines, degraded faults inflate
  a tile's port latency. The drivers (:func:`repro.sim.driver.run_trace`,
  :class:`~repro.sim.cmp.CMPRunner`) fire due faults between references,
  so every access entry point sees identical fault timing.
* **Worker chaos** (:mod:`repro.faults.chaos`) — a
  :class:`WorkerChaos` makes one campaign worker die, hang or return a
  corrupted outcome, exercising the lease drain's reclaim/fencing/
  validation machinery end to end.
"""

from repro.faults.chaos import WorkerChaos
from repro.faults.injector import FaultInjector, apply_fault
from repro.faults.spec import FaultPlan, FaultSpec

__all__ = [
    "WorkerChaos",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "apply_fault",
]
