"""Traditional set-associative cache simulator (the paper's baselines).

This package is the modified-Dinero equivalent the paper runs its traces
through: direct-mapped and N-way set-associative caches with LRU / FIFO /
Random replacement, per-ASID statistics for shared-cache studies, and the
Modified LRU and column-caching partitioned baselines of the paper's
section 2. Every cache here is the shared last level: the workloads are
post-L1 miss streams (DESIGN.md section 3), so there is no L1 level and
no coherence protocol to model.
"""

from repro.caches.partitioned import ColumnCache, ModifiedLRUCache
from repro.caches.setassoc import POLICIES, SetAssociativeCache
from repro.caches.stats import AsidCounters, CacheStats

__all__ = [
    "AsidCounters",
    "CacheStats",
    "ColumnCache",
    "ModifiedLRUCache",
    "POLICIES",
    "SetAssociativeCache",
]
