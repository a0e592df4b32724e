"""Table 1 — inter-application interference on a shared 1 MB 4-way L2.

The paper's motivating experiment: art, ammp, parser and mcf run alone, in
every pair, and all four together; the observed per-benchmark miss rate
depends strongly on the co-runners, demonstrating cache pollution.
"""

from __future__ import annotations

from repro.sim.experiments.common import build_traces, run_traditional_workload
from repro.sim.experiments.defs.table1 import (  # noqa: F401  (re-exported)
    PAPER_TABLE1,
    QUARTET,
    Table1Result,
    table1_combos,
)


def run_table1_combo(
    combo: tuple[str, ...],
    refs: int,
    seed: int = 1,
    size_bytes: int = 1 << 20,
    associativity: int = 4,
) -> dict[str, float]:
    """One cell of Table 1: the given benchmarks sharing the cache.

    ``refs`` is the already-scaled per-application reference count. Each
    combination is an independent simulation (its traces are regenerated
    from the seed), which is what lets ``repro.campaign`` run the cells
    of this table as parallel jobs with byte-identical results.
    """
    traces = build_traces(list(combo), refs, seed)
    run = run_traditional_workload(traces, size_bytes, associativity)
    return {name: run.miss_rate(asid) for asid, name in enumerate(combo)}


def run_cell(params: dict, seed: int) -> dict:
    """One job of the table: a combination's per-benchmark miss rates."""
    rates = run_table1_combo(
        tuple(params["combo"]),
        params["refs"],
        seed=seed,
        size_bytes=params["size_bytes"],
        associativity=params["associativity"],
    )
    return {"rates": rates}
