"""Simulation drivers and the experiment harnesses for every table/figure.

The names in ``__all__`` are imported on first use
(:mod:`repro.common.lazy`): ``repro.sim.scale`` and ``repro.sim.report``
import without the simulator.
"""

from repro.common.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sim.cmp": ("CMPRunConfig", "CMPRunner", "CMPRunResult"),
    "repro.sim.driver": ("run_trace",),
})
