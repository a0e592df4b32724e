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
"""

from repro.molecular.advisor import StackDistanceAdvisor
from repro.molecular.cache import MolecularCache
from repro.molecular.config import MolecularCacheConfig, ResizePolicy
from repro.molecular.latency import LatencyModel, LatencyParameters
from repro.molecular.molecule import Molecule
from repro.molecular.placement import (
    LRUDirectPlacement,
    PlacementPolicy,
    RandomPlacement,
    RandyPlacement,
    make_placement_policy,
)
from repro.molecular.region import CacheRegion
from repro.molecular.resize import Resizer
from repro.molecular.stats import MolecularStats
from repro.molecular.tile import Tile
from repro.molecular.cluster import TileCluster, Ulmo

__all__ = [
    "CacheRegion",
    "LRUDirectPlacement",
    "LatencyModel",
    "LatencyParameters",
    "MolecularCache",
    "MolecularCacheConfig",
    "MolecularStats",
    "Molecule",
    "PlacementPolicy",
    "RandomPlacement",
    "RandyPlacement",
    "ResizePolicy",
    "Resizer",
    "StackDistanceAdvisor",
    "Tile",
    "TileCluster",
    "Ulmo",
    "make_placement_policy",
]
