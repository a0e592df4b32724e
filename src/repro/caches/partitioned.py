"""Partitioned shared caches from the paper's related work (Suh et al.).

Section 2 positions molecular caches against "the state of the art" in
cache partitioning — Suh, Rudolph and Devadas' two schemes:

* **Modified LRU** — replacement depends on the requesting process's
  quota: "If the process has not exceeded its predefined space threshold,
  a global replacement is performed, else a local replacement is
  performed" (a victim from the process's own lines).
* **Column caching** — "restricts some processes to place data in some
  'columns' (i.e. ways) of a multi-way associative cache"; lookups still
  search every way, placement is confined to the permitted columns.

Both share :class:`~repro.caches.setassoc.PackedSets` (geometry, stats and
the per-set ``block -> asid << 1 | dirty`` maps) with
:class:`~repro.caches.SetAssociativeCache`, so they drop into every runner
and experiment in the library. A comparison bench
(`benchmarks/test_ablation_partitioning.py`) pits them against the
molecular cache on the SPEC quartet.
"""

from __future__ import annotations

from repro.caches.setassoc import DIRTY, PackedSets, line_owner, line_state
from repro.common.errors import ConfigError
from repro.common.types import AccessResult


class ModifiedLRUCache(PackedSets):
    """Suh et al.'s Modified LRU: quota-gated global/local replacement.

    Parameters
    ----------
    quotas:
        ``asid -> maximum resident lines``. Applications without an entry
        are unconstrained (always global replacement). Quotas may be
        changed at run time via :meth:`set_quota` (Suh's scheme re-derives
        them periodically from marginal-gain counters; supplying that
        outer loop is the caller's choice).
    """

    def __init__(
        self,
        size_bytes: int,
        associativity: int,
        line_bytes: int = 64,
        quotas: dict[int, int] | None = None,
        name: str = "",
    ) -> None:
        super().__init__(size_bytes, associativity, line_bytes,
                         name or f"{size_bytes >> 10}KB modified-LRU")
        self.quotas: dict[int, int] = dict(quotas or {})
        self._resident: dict[int, int] = {}

    def set_quota(self, asid: int, lines: int | None) -> None:
        """Set (or clear, with ``None``) an application's line quota."""
        if lines is None:
            self.quotas.pop(asid, None)
        elif lines < 0:
            raise ConfigError("quota cannot be negative")
        else:
            self.quotas[asid] = lines

    def resident_lines(self, asid: int) -> int:
        return self._resident.get(asid, 0)

    def _over_quota(self, asid: int) -> bool:
        quota = self.quotas.get(asid)
        return quota is not None and self._resident.get(asid, 0) >= quota

    def access_block(self, block: int, asid: int = 0, write: bool = False) -> AccessResult:
        cache_set = self._sets[block & self._set_mask]
        state = cache_set.pop(block, None)
        if state is not None:
            self.stats.record_access(asid, hit=True)
            cache_set[block] = state | write
            return AccessResult(hit=True)

        self.stats.record_access(asid, hit=False)
        evicted_block: int | None = None
        writeback = False
        if len(cache_set) >= self.associativity:
            evicted_block = self._choose_victim(cache_set, asid)
            victim = cache_set.pop(evicted_block)
            owner = line_owner(victim)
            writeback = bool(victim & DIRTY)
            self._resident[owner] = self._resident.get(owner, 1) - 1
            self.stats.record_eviction(owner, writeback)
        cache_set[block] = line_state(asid, write)
        self._resident[asid] = self._resident.get(asid, 0) + 1
        return AccessResult(hit=False, evicted_block=evicted_block, writeback=writeback)

    def _choose_victim(self, cache_set: dict[int, int], asid: int) -> int:
        if self._over_quota(asid):
            # Local replacement: the requester's own LRU line, if it has
            # one in this set; otherwise fall back to global LRU.
            for block, state in cache_set.items():
                if line_owner(state) == asid:
                    return block
        return next(iter(cache_set))


class ColumnCache(PackedSets):
    """Suh et al.'s column caching: way-restricted placement.

    Parameters
    ----------
    columns:
        ``asid -> tuple of way indices`` the application may *place* lines
        into. Applications without an entry may use every way. Lookups
        always search the whole set (data placed before a re-assignment
        remains reachable, as in the original proposal).
    """

    def __init__(
        self,
        size_bytes: int,
        associativity: int,
        line_bytes: int = 64,
        columns: dict[int, tuple[int, ...]] | None = None,
        name: str = "",
    ) -> None:
        super().__init__(size_bytes, associativity, line_bytes,
                         name or f"{size_bytes >> 10}KB column-cache")
        self._columns: dict[int, tuple[int, ...]] = {}
        # way occupancy is tracked per set: way index -> block
        self._ways: list[list[int | None]] = [
            [None] * associativity for _ in range(self.num_sets)
        ]
        self._way_of: list[dict[int, int]] = [dict() for _ in range(self.num_sets)]
        for asid, ways in (columns or {}).items():
            self.assign_columns(asid, ways)

    def assign_columns(self, asid: int, ways: tuple[int, ...]) -> None:
        """Restrict an application's placement to the given ways."""
        if not ways:
            raise ConfigError("an application needs at least one column")
        if any(not 0 <= w < self.associativity for w in ways):
            raise ConfigError(
                f"ways must be in [0, {self.associativity}), got {ways}"
            )
        self._columns[asid] = tuple(sorted(set(ways)))

    def columns_of(self, asid: int) -> tuple[int, ...]:
        return self._columns.get(asid, tuple(range(self.associativity)))

    def access_block(self, block: int, asid: int = 0, write: bool = False) -> AccessResult:
        set_index = block & self._set_mask
        cache_set = self._sets[set_index]
        state = cache_set.pop(block, None)
        if state is not None:
            self.stats.record_access(asid, hit=True)
            cache_set[block] = state | write
            return AccessResult(hit=True)

        self.stats.record_access(asid, hit=False)
        ways = self._ways[set_index]
        way_of = self._way_of[set_index]
        permitted = self.columns_of(asid)

        evicted_block: int | None = None
        writeback = False
        target_way = None
        for way in permitted:  # an empty permitted column first
            if ways[way] is None:
                target_way = way
                break
        if target_way is None:
            # Evict the least-recently-used line among the permitted ways.
            for candidate in cache_set:  # insertion order: oldest first
                way = way_of[candidate]
                if way in permitted:
                    target_way = way
                    evicted_block = candidate
                    break
            if target_way is None:  # pragma: no cover - permitted non-empty
                raise ConfigError("no evictable line in permitted columns")
            victim = cache_set.pop(evicted_block)
            writeback = bool(victim & DIRTY)
            del way_of[evicted_block]
            self.stats.record_eviction(line_owner(victim), writeback)

        ways[target_way] = block
        way_of[block] = target_way
        cache_set[block] = line_state(asid, write)
        return AccessResult(hit=False, evicted_block=evicted_block, writeback=writeback)
