"""Molecular Caches — the paper's contribution.

A molecular cache aggregates small direct-mapped caching units
(*molecules*) into per-application cache regions with adaptive size,
per-row associativity and variable line size. The package mirrors the
paper's structure:

* :mod:`~repro.molecular.molecule` — the 8-32 KB direct-mapped unit with
  ASID gating and a shared bit (paper section 3, Figure 3);
* :mod:`~repro.molecular.tile` / :mod:`~repro.molecular.cluster` — the
  physical organisation (Figure 2) and the Ulmo tile controller;
* :mod:`~repro.molecular.region` — a cache partition and its *replacement
  view*, the 2-D sparse matrix of Figure 4;
* :mod:`~repro.molecular.placement` — Random and Randy molecule-selection
  policies (section 3.3) plus the LRU-Direct extension the paper lists as
  future work;
* :mod:`~repro.molecular.resize` — Algorithm 1 and the constant / global
  adaptive / per-application adaptive triggers (section 3.4);
* :mod:`~repro.molecular.cache` — the full cache front end with
  hierarchical lookup and probe-energy accounting.

The names in ``__all__`` are imported on first use
(:mod:`repro.common.lazy`): the configuration and the statistics import
without the cache models.
"""

from repro.common.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.molecular.advisor": ("StackDistanceAdvisor",),
    "repro.molecular.cache": ("MolecularCache",),
    "repro.molecular.cluster": ("TileCluster", "Ulmo"),
    "repro.molecular.config": ("MolecularCacheConfig", "ResizePolicy"),
    "repro.molecular.latency": ("LatencyModel", "LatencyParameters"),
    "repro.molecular.molecule": ("Molecule",),
    "repro.molecular.placement": (
        "LRUDirectPlacement",
        "PlacementPolicy",
        "RandomPlacement",
        "RandyPlacement",
        "make_placement_policy",
    ),
    "repro.molecular.region": ("CacheRegion",),
    "repro.molecular.resize": ("Resizer",),
    "repro.molecular.stats": ("MolecularStats",),
    "repro.molecular.tile": ("Tile",),
})
