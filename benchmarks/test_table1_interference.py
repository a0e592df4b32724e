"""Bench: Table 1 — inter-application interference on a shared 1 MB 4-way L2.

Regenerates the paper's motivating table: art/ammp/parser/mcf alone, in
every pair, and all four concurrently. Shape assertions: the interference
pattern (who gets hurt, by roughly how much) — absolute rates differ
because the workloads are synthetic stand-ins (DESIGN.md section 3).

The checks hold from ``REPRO_SCALE=0.1`` (50,000 refs per application),
the smallest scale at which they were measured to pass; they pass at
0.25, 0.5 and 1.0 too. At 0.05 (25,000 refs) art's miss rate alone is
0.244, above the 0.15 bound.
"""

from conftest import emit, run_once

from repro.campaign import get_experiment
from repro.sim.experiments.table1 import QUARTET

ALL_FOUR = QUARTET


def test_table1_interference(benchmark):
    target = get_experiment("table1")
    result = run_once(benchmark, lambda: target.run_serial(refs=500_000))
    emit("table1", result.format())

    alone = {name: result.miss_rate((name,), name) for name in QUARTET}

    # Paper Table 1, row by row, as shape checks -------------------------
    # Alone: mcf is capacity-starved, ammp is tiny, art and parser modest.
    assert alone["mcf"] > 0.5
    assert alone["ammp"] < 0.05
    assert alone["art"] < 0.15
    assert alone["parser"] < 0.15

    # art survives one co-runner but collapses with all four (0.064 ->
    # 0.734 in the paper).
    art_all = result.miss_rate(ALL_FOUR, "art")
    assert art_all > 2.5 * alone["art"]

    # parser degrades progressively (0.086 -> 0.253 in the paper).
    parser_all = result.miss_rate(ALL_FOUR, "parser")
    assert parser_all > 1.5 * alone["parser"]

    # ammp barely moves (0.008 -> 0.013 in the paper).
    ammp_all = result.miss_rate(ALL_FOUR, "ammp")
    assert ammp_all < 0.08

    # mcf's rate moves the least in relative terms: it never held much
    # cache to begin with.
    mcf_all = result.miss_rate(ALL_FOUR, "mcf")
    assert mcf_all < 1.5 * alone["mcf"]

    # The headline of the table: the miss rate depends on the co-runners.
    parser_rates = {
        combo: rates["parser"]
        for combo, rates in result.combos.items()
        if "parser" in combo
    }
    assert max(parser_rates.values()) > 2 * min(parser_rates.values())
