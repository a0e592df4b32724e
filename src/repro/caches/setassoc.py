"""Set-associative cache simulator (direct-mapped is associativity 1).

This is the workhorse baseline: the paper's DM / 2-way / 4-way / 8-way
shared L2 configurations (Table 1, Figure 5, Table 2) are all instances of
:class:`SetAssociativeCache`. Per-ASID statistics come for free because
every access carries its application's ASID, which is how the shared-cache
interference study (Table 1) and the deviation metric are computed.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.caches.line import CacheLine
from repro.caches.replacement import ReplacementPolicy, make_replacement_policy
from repro.caches.stats import CacheStats
from repro.common.bitops import ilog2, is_power_of_two
from repro.common.errors import ConfigError
from repro.common.refs import iter_refs
from repro.common.rng import DeterministicRNG
from repro.common.types import Access, AccessResult


class SetAssociativeCache:
    """A classic N-way set-associative cache with pluggable replacement.

    Parameters
    ----------
    size_bytes:
        Total data capacity; must be a power of two.
    associativity:
        Ways per set (1 = direct mapped). Must divide the number of lines.
    line_bytes:
        Line (block) size in bytes; the paper uses 64 B throughout.
    policy:
        Replacement policy name (``"lru"``, ``"fifo"``, ``"random"``) or a
        :class:`ReplacementPolicy` instance.
    rng:
        Deterministic RNG handed to the Random policy when ``policy`` is
        given by name.
    name:
        Label used in reports (e.g. ``"8MB 4way"``).
    """

    def __init__(
        self,
        size_bytes: int,
        associativity: int,
        line_bytes: int = 64,
        policy: str | ReplacementPolicy = "lru",
        rng: DeterministicRNG | None = None,
        name: str = "",
    ) -> None:
        if not is_power_of_two(size_bytes):
            raise ConfigError(f"cache size must be a power of two, got {size_bytes}")
        if not is_power_of_two(line_bytes):
            raise ConfigError(f"line size must be a power of two, got {line_bytes}")
        if associativity < 1:
            raise ConfigError(f"associativity must be >= 1, got {associativity}")
        total_lines = size_bytes // line_bytes
        if total_lines == 0 or total_lines % associativity != 0:
            raise ConfigError(
                f"{size_bytes} B / {line_bytes} B lines does not divide into "
                f"{associativity}-way sets"
            )
        num_sets = total_lines // associativity
        if not is_power_of_two(num_sets):
            raise ConfigError(
                f"number of sets ({num_sets}) must be a power of two "
                f"(size {size_bytes}, {associativity}-way, {line_bytes} B lines)"
            )

        self.size_bytes = size_bytes
        self.associativity = associativity
        self.line_bytes = line_bytes
        self.num_sets = num_sets
        self.name = name or f"{size_bytes // 1024}KB {associativity}way"
        self.stats = CacheStats()

        if isinstance(policy, ReplacementPolicy):
            self._policy = policy
        else:
            self._policy = make_replacement_policy(policy, rng)

        self._line_shift = ilog2(line_bytes)
        self._set_mask = num_sets - 1
        self._sets: list[OrderedDict[int, CacheLine]] = [
            OrderedDict() for _ in range(num_sets)
        ]

    # ------------------------------------------------------------------ API

    @property
    def policy(self) -> ReplacementPolicy:
        return self._policy

    def block_of(self, address: int) -> int:
        """Block number for a byte address."""
        return address >> self._line_shift

    def access(self, access: Access) -> AccessResult:
        """Simulate one memory reference given as an :class:`Access`."""
        return self.access_block(
            access.address >> self._line_shift, access.asid, access.is_write
        )

    def access_block(self, block: int, asid: int = 0, write: bool = False) -> AccessResult:
        """Fast-path access by pre-computed block number.

        Bulk drivers use this to avoid constructing an :class:`Access`
        object per reference.
        """
        cache_set = self._sets[block & self._set_mask]
        line = cache_set.get(block)
        if line is not None:
            self.stats.record_access(asid, hit=True)
            self._policy.touch(cache_set, block)
            if write:
                line.dirty = True
            return AccessResult(hit=True)

        self.stats.record_access(asid, hit=False)
        evicted_block: int | None = None
        writeback = False
        if len(cache_set) >= self.associativity:
            evicted_block = self._policy.victim(cache_set)
            victim_line = cache_set.pop(evicted_block)
            writeback = victim_line.dirty
            self.stats.record_eviction(victim_line.asid, writeback)
        cache_set[block] = CacheLine(block=block, asid=asid, dirty=write)
        return AccessResult(hit=False, evicted_block=evicted_block, writeback=writeback)

    def access_many(self, blocks, asids=0, writes=False) -> int:
        """Bulk access: stream a whole reference column through a session.

        ``blocks`` is a block-number column (list, tuple, 1-D ndarray or
        iterable); ``asids``/``writes`` are parallel columns or scalars
        broadcast to every reference (:func:`repro.common.refs.
        iter_refs` checks the shapes). Stats are byte-identical to
        calling :meth:`access_block` per element
        (``tests/test_prop_batched.py`` checks the equivalence). Returns
        the number of accesses simulated.
        """
        n, refs = iter_refs(blocks, asids, writes)
        access = self.access_session().access
        for block, asid, write in refs:
            access(block, asid, write)
        return n

    def access_session(self) -> "_SetAssocSession":
        """Allocation-free per-access session (``access(...) -> bool``).

        The set-associative twin of the molecular cache's session: the
        same stats updates as :meth:`access_block` without the
        ``AccessResult``, for feedback drivers that interleave
        applications one reference at a time.
        """
        return _SetAssocSession(self)

    def run(self, blocks, asids=None, writes=None) -> CacheStats:
        """Feed an iterable of block numbers through the cache.

        ``asids``/``writes`` are optional parallel iterables; scalars are
        broadcast. Delegates to :meth:`access_many` (byte-identical to
        the scalar loop). Returns :attr:`stats` for convenience.
        """
        self.access_many(
            blocks, 0 if asids is None else asids, False if writes is None else writes
        )
        return self.stats

    # --------------------------------------------------------- introspection

    def contains_block(self, block: int) -> bool:
        """True if the block is currently resident (no state update)."""
        return block in self._sets[block & self._set_mask]

    def iter_sets(self):
        """Iterate the sets in index order (read-only audit hook).

        The audit subsystem (:mod:`repro.audit.invariants`) walks every
        set to check structural invariants; the dispatch there keys off
        this method's presence.
        """
        return iter(self._sets)

    def resident_blocks(self) -> list[int]:
        """All resident block numbers (test/diagnostic helper)."""
        resident: list[int] = []
        for cache_set in self._sets:
            resident.extend(cache_set.keys())
        return resident

    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(len(cache_set) for cache_set in self._sets)

    def occupancy_by_asid(self) -> dict[int, int]:
        """Resident line count per owning ASID (shared-cache diagnostics)."""
        counts: dict[int, int] = {}
        for cache_set in self._sets:
            for line in cache_set.values():
                counts[line.asid] = counts.get(line.asid, 0) + 1
        return counts

    def flush(self) -> int:
        """Invalidate everything; returns the number of dirty lines dropped."""
        dirty = 0
        for cache_set in self._sets:
            for line in cache_set.values():
                if line.dirty:
                    dirty += 1
            cache_set.clear()
        return dirty

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"SetAssociativeCache(name={self.name!r}, size={self.size_bytes}, "
            f"assoc={self.associativity}, line={self.line_bytes}, "
            f"policy={self._policy.name})"
        )


class _SetAssocSession:
    """Per-access fast path bound to one :class:`SetAssociativeCache`."""

    __slots__ = ("_cache", "_counters")

    def __init__(self, cache: SetAssociativeCache) -> None:
        self._cache = cache
        # (cumulative, window) counter pairs per ASID. Valid for the
        # session's lifetime: set-associative windows are only reset by
        # external callers, and the contract (as for the molecular
        # session) is that stats are not reset while a session is live.
        self._counters: dict[int, tuple] = {}

    def access(self, block: int, asid: int = 0, write: bool = False) -> bool:
        cache = self._cache
        stats = cache.stats
        pair = self._counters.get(asid)
        if pair is None:
            pair = stats.counters_for(asid)
            self._counters[asid] = pair
        tc, wc = pair
        tot = stats.total
        wtot = stats.window_total
        cache_set = cache._sets[block & cache._set_mask]
        line = cache_set.get(block)
        tot.accesses += 1
        wtot.accesses += 1
        tc.accesses += 1
        wc.accesses += 1
        if line is not None:
            tot.hits += 1
            wtot.hits += 1
            tc.hits += 1
            wc.hits += 1
            cache._policy.touch(cache_set, block)
            if write:
                line.dirty = True
            return True
        if len(cache_set) >= cache.associativity:
            evicted_block = cache._policy.victim(cache_set)
            victim_line = cache_set.pop(evicted_block)
            stats.record_eviction(victim_line.asid, victim_line.dirty)
        cache_set[block] = CacheLine(block=block, asid=asid, dirty=write)
        return False
