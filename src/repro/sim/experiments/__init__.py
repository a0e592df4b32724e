"""Experiment harnesses — one module per table/figure of the paper.

Every experiment returns a structured result object with a ``format()``
method printing the same rows/series the paper reports. Every
experiment is a grid of independent cells: its numpy-free
:mod:`repro.sim.experiments.defs` module lists the cells and assembles
the result, and an experiment module's ``run_cell(params, seed)``
simulates one cell. Figure 6, Table 4 and Table 5 read Table 2's cells,
which :mod:`repro.sim.experiments.table2` simulates. Run them through
the registry (``repro.campaign.get_experiment(name).run_serial()``, or
``repro experiment`` / ``repro sweep``). Reference counts scale with
the ``REPRO_SCALE`` environment variable.

The names in ``__all__`` are imported on first use
(:mod:`repro.common.lazy`).
"""

from repro.common.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sim.experiments.common": (
        "build_traces",
        "run_molecular_workload",
        "run_traditional_workload",
    ),
    "repro.sim.experiments.defs.figure5": ("Figure5Result", "figure5_series"),
    "repro.sim.experiments.defs.figure6": ("Figure6Result",),
    "repro.sim.experiments.defs.table1": ("Table1Result", "table1_combos"),
    "repro.sim.experiments.defs.table2": ("Table2Result",),
    "repro.sim.experiments.defs.table4": ("Table4Result",),
    "repro.sim.experiments.defs.table5": ("Table5Result",),
    "repro.sim.experiments.figure5": ("run_figure5_cell",),
    "repro.sim.experiments.table1": ("run_table1_combo",),
})
