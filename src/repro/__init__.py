"""Molecular Caches (MICRO 2006) — a full reproduction library.

Varadarajan et al., "Molecular Caches: A caching structure for dynamic
creation of application-specific Heterogeneous cache regions".

Public API highlights
---------------------
* :class:`repro.molecular.MolecularCache` — the paper's cache: molecules,
  tiles, clusters/Ulmo, Random/Randy placement, Algorithm-1 resizing.
* :class:`repro.caches.SetAssociativeCache` — the traditional baselines.
* :mod:`repro.workloads` — SPEC/NetBench/MediaBench stand-in models.
* :class:`repro.sim.CMPRunner` — the throttled CMP execution model.
* :mod:`repro.power` — the CACTI-like timing/power model.
* :mod:`repro.sim.experiments` — one harness per table/figure, run
  through the experiment registry:
  ``repro.campaign.get_experiment("figure5").run_serial()`` (``repro
  experiment``), or as a parallel, resumable campaign (``repro sweep``).

Quick start::

    from repro import MolecularCache, MolecularCacheConfig
    cache = MolecularCache(MolecularCacheConfig())
    cache.assign_application(asid=0, goal=0.10)
    cache.access_block(block=1234, asid=0)

The names in ``__all__`` are imported on first use
(:mod:`repro.common.lazy`), so ``import repro.cli`` or ``import
repro.campaign`` loads neither numpy nor the simulator.
"""

from repro.common.lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.caches": ("CacheHierarchy", "SetAssociativeCache"),
    "repro.common": ("Access", "AccessResult", "AccessType"),
    "repro.molecular": (
        "MolecularCache",
        "MolecularCacheConfig",
        "ResizePolicy",
    ),
    "repro.power": (
        "CacheOrganization",
        "CactiModel",
        "MolecularEnergyModel",
    ),
    "repro.sim": ("CMPRunConfig", "CMPRunner"),
    "repro.telemetry": (
        "EventBus",
        "MetricsTimeline",
        "RingBufferSink",
    ),
    "repro.trace": ("Trace",),
    "repro.workloads": ("BenchmarkModel", "RingComponent", "get_model"),
})
__all__.append("__version__")
