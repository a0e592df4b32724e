"""Experiment definitions: the cells and result types of the grids.

An experiment made of independent cells is one pipeline: list the
cells, simulate each, fold the payloads into the printed result.
``repro experiment`` runs the cells in process and ``repro sweep`` in
lease workers; listing and folding do not simulate, and they are all a
resumed sweep of a complete store does. The modules here hold exactly
that half of each experiment, and import neither numpy nor the
simulator. Each defines

* ``JOB`` — the job kind of one cell (``combo``, ``cell``, ...);
* ``cells(refs, options)`` — the cells' parameter dicts, in result
  order, for the scaled per-application reference count ``refs``;
* ``assemble(params, payloads, options)`` — the result object, with
  its ``format()``, from the cells' parameters and payloads in that
  order;

plus the grid constants and the result type. The experiment module of
the same name (``repro.sim.experiments.figure5`` for ``defs.figure5``)
holds ``run_cell(params, seed)``, which simulates one cell and returns
its JSON payload, and re-exports the grid constants and result type.
"""
