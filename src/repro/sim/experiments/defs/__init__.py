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
* ``payload_shape(params)`` — what ``assemble`` and ``format`` read of
  one cell's payload, as a shape :func:`shape_problem` checks: a stored
  payload of another shape is set aside and its cell re-run, not
  assembled;

plus the grid constants and the result type. The experiment module of
the same name (``repro.sim.experiments.figure5`` for ``defs.figure5``)
holds ``run_cell(params, seed)``, which simulates one cell and returns
its JSON payload, and re-exports the grid constants and result type.
A module that reads another experiment's cells names it
(``EXPERIMENT = "table2"`` in ``defs.figure6``, ``defs.table4`` and
``defs.table5``), shares its ``JOB`` and ``payload_shape``, and has no
experiment module: its jobs are that experiment's.
"""

from __future__ import annotations

import sys
from typing import Any

_FLOAT_MAX = sys.float_info.max

#: The leaves of a shape: JSON types, by name. A bool is no number. Every
#: numeric payload field is a rate, deviation, count, mean or throughput,
#: so a number is finite and not negative: it formats, divides and
#: assembles (a field that may be negative would need a leaf of its own).
_LEAVES = {
    "number": lambda value: (
        isinstance(value, float) or type(value) is int
    ) and 0 <= value <= _FLOAT_MAX,
    "integer": lambda value: type(value) is int and 0 <= value <= _FLOAT_MAX,
    "string": lambda value: isinstance(value, str),
}


def shape_problem(value: Any, shape: Any, where: str = "result") -> str | None:
    """Why ``value`` does not have ``shape``, or None when it does.

    A shape is a leaf name (``"number"``, ``"integer"``, ``"string"``),
    a leaf name ending in ``" or null"``, or a dict: an object holding
    at least those keys, each value of its own shape.
    """
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            return f"{where}: expected an object"
        for key, inner in shape.items():
            if key not in value:
                return f"{where}: no {key!r}"
            problem = shape_problem(value[key], inner, f"{where}.{key}")
            if problem is not None:
                return problem
        return None
    leaf = shape.removesuffix(" or null")
    if (value is None and leaf != shape) or _LEAVES[leaf](value):
        return None
    return f"{where}: expected {shape}"
