"""Experiment harnesses — one module per table/figure of the paper.

Each ``run_*`` function is self-contained: it builds the workloads, runs
the simulations, and returns a structured result object with a
``format()`` method printing the same rows/series the paper reports.
Reference counts scale with the ``REPRO_SCALE`` environment variable.

The names in ``__all__`` are imported on first use
(:mod:`repro.common.lazy`). Grids and result types live in
:mod:`repro.sim.experiments.defs`, which imports no simulator.
"""

from repro.common.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sim.experiments.common": (
        "build_traces",
        "run_molecular_workload",
        "run_traditional_workload",
    ),
    "repro.sim.experiments.defs.figure5": ("Figure5Result", "figure5_series"),
    "repro.sim.experiments.defs.table1": ("Table1Result", "table1_combos"),
    "repro.sim.experiments.figure5": ("run_figure5", "run_figure5_cell"),
    "repro.sim.experiments.figure6": ("Figure6Result", "run_figure6"),
    "repro.sim.experiments.table1": ("run_table1", "run_table1_combo"),
    "repro.sim.experiments.table2": ("Table2Result", "run_table2"),
    "repro.sim.experiments.table4": ("Table4Result", "run_table4"),
    "repro.sim.experiments.table5": ("Table5Result", "run_table5"),
})
