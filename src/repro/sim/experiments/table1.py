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
from repro.sim.scale import scaled


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


def run_table1(
    refs_per_app: int = 500_000,
    seed: int = 1,
    size_bytes: int = 1 << 20,
    associativity: int = 4,
) -> Table1Result:
    """Reproduce Table 1: alone, all pairs, and all four concurrently."""
    refs = scaled(refs_per_app)
    result = Table1Result(
        cache_label=f"{size_bytes >> 20}MB {associativity}-way L2"
    )
    for combo in table1_combos():
        result.combos[combo] = run_table1_combo(
            combo, refs, seed, size_bytes, associativity
        )
    return result
