"""Experiment harnesses — one module per table/figure of the paper.

Every experiment returns a structured result object with a ``format()``
method printing the same rows/series the paper reports. Table 1,
Figure 5, the degradation curve and the resize-mechanism comparison are
grids of independent cells: their numpy-free
:mod:`repro.sim.experiments.defs` module lists the cells and assembles
the result, and the experiment module's ``run_cell(params, seed)``
simulates one cell. Run them through the registry
(``repro.campaign.get_experiment(name).run_serial()``, or ``repro
experiment`` / ``repro sweep``). Tables 2, 4 and 5 and Figure 6 keep
one self-contained ``run_*`` function each. Reference counts scale with
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
    "repro.sim.experiments.defs.table1": ("Table1Result", "table1_combos"),
    "repro.sim.experiments.figure5": ("run_figure5_cell",),
    "repro.sim.experiments.figure6": ("Figure6Result", "run_figure6"),
    "repro.sim.experiments.table1": ("run_table1_combo",),
    "repro.sim.experiments.table2": ("Table2Result", "run_table2"),
    "repro.sim.experiments.table4": ("Table4Result", "run_table4"),
    "repro.sim.experiments.table5": ("Table5Result", "run_table5"),
})
