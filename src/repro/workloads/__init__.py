"""Synthetic workload models (SPEC / NetBench / MediaBench stand-ins).

Real SPEC traces are not available offline, so each benchmark is modelled
as a *ring mixture*: several rings of blocks (working-set tiers) accessed
with configurable probability, sequential-run length (spatial locality) and
optional per-phase drift. DESIGN.md section 3 documents the substitution
and the calibration targets (Table 1 of the paper).
"""

from repro.workloads.model import BenchmarkModel, RingComponent
from repro.workloads.spec import SPEC_QUARTET, spec_model
from repro.workloads.mixed import MIXED_SUITE, mixed_model
from repro.workloads.registry import (
    WorkloadFamily,
    available_families,
    available_models,
    get_family,
    get_model,
)

__all__ = [
    "BenchmarkModel",
    "MIXED_SUITE",
    "RingComponent",
    "SPEC_QUARTET",
    "WorkloadFamily",
    "available_families",
    "available_models",
    "get_family",
    "get_model",
    "mixed_model",
    "spec_model",
]
