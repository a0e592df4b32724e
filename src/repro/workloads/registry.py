"""Unified lookup over every bundled benchmark model and workload family.

Two kinds of entries live here:

* **models** — ring-mixture :class:`~repro.workloads.model.BenchmarkModel`
  stand-ins (the SPEC quartet and the mixed suite), looked up with
  :func:`get_model`;
* **families** — named groups of models, the unit ``repro workloads``
  lists.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.workloads.mixed import MIXED_SUITE, mixed_model
from repro.workloads.model import BenchmarkModel
from repro.workloads.spec import SPEC_QUARTET, spec_model


def available_models() -> list[str]:
    """Names of every bundled model (SPEC quartet + mixed suite)."""
    names = set(SPEC_QUARTET) | set(MIXED_SUITE)
    return sorted(names)


def get_model(name: str) -> BenchmarkModel:
    """Look a model up by name across both suites.

    ``parser`` exists in both suites with identical parameters; the SPEC
    variant is returned.
    """
    if name in SPEC_QUARTET:
        return spec_model(name)
    if name in MIXED_SUITE:
        return mixed_model(name)
    raise KeyError(f"unknown model {name!r}; available: {available_models()}")


# ----------------------------------------------------------------- families

@dataclass(frozen=True, slots=True)
class WorkloadFamily:
    """One listed workload family: a suite of bundled models."""

    name: str
    description: str
    members: tuple[str, ...]


FAMILIES: dict[str, WorkloadFamily] = {
    "spec": WorkloadFamily(
        name="spec",
        description="SPEC CPU2000 stand-ins (Table 1 / Figure 5 quartet)",
        members=tuple(SPEC_QUARTET),
    ),
    "mixed": WorkloadFamily(
        name="mixed",
        description="mixed 12-benchmark suite (Table 2: SPEC/NetBench/MediaBench)",
        members=tuple(MIXED_SUITE),
    ),
}


def available_families() -> list[WorkloadFamily]:
    """Every registered family, in registration order."""
    return list(FAMILIES.values())


def get_family(name: str) -> WorkloadFamily:
    try:
        return FAMILIES[name]
    except KeyError:
        raise KeyError(
            f"unknown workload family {name!r}; available: {sorted(FAMILIES)}"
        ) from None
