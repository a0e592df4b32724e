"""Experiment definitions: the grids and result types of the sweeps.

A campaign decomposes an experiment into jobs and assembles their stored
payloads into the printed result; neither step simulates. The modules
here hold exactly that half of each experiment — grid constants, the
job grid, the result type with its ``format()`` and the assembly
function — and import neither numpy nor the simulator, so a resumed
sweep of a complete store loads neither. The experiment module of the
same name (``repro.sim.experiments.figure5`` for ``defs.figure5``) holds
the ``run_*`` functions that simulate and re-exports every name defined
here.
"""
