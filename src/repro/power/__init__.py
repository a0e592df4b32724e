"""CACTI-like timing/power model and energy accounting (replaces CACTI 3.2).

The paper derives Table 4 from CACTI at 0.07 µm. This package implements an
analytical component model (decoder + wordline + bitline + sense + tag
compare + output, with sub-banking and port scaling) whose coefficients are
*calibrated against the paper's own Table 4 rows* — see
:mod:`repro.power.tables` for the fit provenance. Energy accounting for
molecular caches integrates the probe counters recorded by the simulator.

The names in ``__all__`` are imported on first use
(:mod:`repro.common.lazy`): Table 4 and Table 5 assemble from stored
payloads without the simulator.
"""

from repro.common.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.power.energy": ("MolecularEnergyModel", "power_watts"),
    "repro.power.metrics": ("power_deviation_product",),
    "repro.power.model": ("CacheOrganization", "CactiModel", "Evaluation"),
})
