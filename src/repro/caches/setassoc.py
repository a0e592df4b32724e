"""Set-associative cache simulator (direct-mapped is associativity 1).

This is the workhorse baseline: the paper's DM / 2-way / 4-way / 8-way
shared L2 configurations (Table 1, Figure 5, Table 2) are all instances of
:class:`SetAssociativeCache`. Per-ASID statistics come for free because
every access carries its application's ASID, which is how the shared-cache
interference study (Table 1) and the deviation metric are computed.

A set is a plain ``dict`` from block number to one int per line, its
*line state* ``asid << 1 | dirty``. A dict keeps insertion order, so the
oldest line is ``next(iter(set))`` and popping a line and storing it again
moves it to the young end. This module is the one definition of that
encoding; the partitioned caches and the auditor use it.

The access rule has one body, :class:`_SetAssocSession`; ``access_many``
loops over it and ``access_block`` runs it once (DESIGN.md 7.1).
"""

from __future__ import annotations

from itertools import islice

from repro.caches.stats import CacheStats
from repro.common.bitops import ilog2, is_power_of_two
from repro.common.errors import ConfigError
from repro.common.refs import iter_refs
from repro.common.rng import DeterministicRNG, XorShift64
from repro.common.types import Access, AccessResult

#: The dirty bit of a line state; the owning ASID sits above it.
DIRTY = 1

#: Replacement policies, by name; the paper's baselines use LRU, the best
#: of the three (section 3.3).
POLICIES = ("lru", "fifo", "random")


def line_state(asid: int, dirty: bool) -> int:
    """The packed state of a line owned by ``asid``."""
    return asid << 1 | dirty


def line_owner(state: int) -> int:
    """The ASID that owns a line in ``state``."""
    return state >> 1


class PackedSets:
    """Geometry, per-ASID statistics and the packed sets of a set-indexed
    cache; subclasses supply ``access_block``. The set-associative cache
    and the partitioned caches (:mod:`repro.caches.partitioned`) share it.
    """

    def __init__(
        self, size_bytes: int, associativity: int, line_bytes: int, name: str
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
        self.name = name
        self.stats = CacheStats()
        self._line_shift = ilog2(line_bytes)
        self._set_mask = num_sets - 1
        self._sets: list[dict[int, int]] = [{} for _ in range(num_sets)]

    def access(self, access: Access) -> AccessResult:
        """Simulate one memory reference given as an :class:`Access`."""
        return self.access_block(
            access.address >> self._line_shift, access.asid, access.is_write
        )

    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(len(cache_set) for cache_set in self._sets)

    def occupancy_by_asid(self) -> dict[int, int]:
        """Resident line count per owning ASID (shared-cache diagnostics)."""
        counts: dict[int, int] = {}
        for cache_set in self._sets:
            for state in cache_set.values():
                owner = line_owner(state)
                counts[owner] = counts.get(owner, 0) + 1
        return counts


class SetAssociativeCache(PackedSets):
    """A classic N-way set-associative cache with LRU, FIFO or Random
    replacement.

    Parameters
    ----------
    size_bytes:
        Total data capacity; must be a power of two.
    associativity:
        Ways per set (1 = direct mapped). Must divide the number of lines.
    line_bytes:
        Line (block) size in bytes; the paper uses 64 B throughout.
    policy:
        Replacement policy name, one of :data:`POLICIES`. Anything else
        (a policy object included) is a :class:`ConfigError`.
    rng:
        Deterministic RNG the Random policy draws its victims from;
        ignored by LRU and FIFO.
    name:
        Label used in reports (e.g. ``"8MB 4way"``).
    """

    def __init__(
        self,
        size_bytes: int,
        associativity: int,
        line_bytes: int = 64,
        policy: str = "lru",
        rng: DeterministicRNG | None = None,
        name: str = "",
    ) -> None:
        super().__init__(
            size_bytes,
            associativity,
            line_bytes,
            name or f"{size_bytes // 1024}KB {associativity}way",
        )
        kind = policy.lower() if isinstance(policy, str) else None
        if kind not in POLICIES:
            raise ConfigError(
                f"unknown replacement policy {policy!r}; expected a name, "
                f"one of {sorted(POLICIES)}"
            )
        self.policy = kind
        self.rng = (rng if rng is not None else XorShift64()) if kind == "random" else None
        self._session = _SetAssocSession(self)

    # ------------------------------------------------------------------ API

    def access_block(self, block: int, asid: int = 0, write: bool = False) -> AccessResult:
        """One reference through the session rule, with its outcome.

        A miss in a full set evicts one line; it is the one line of the
        set as it was that the set no longer holds.
        """
        cache_set = self._sets[block & self._set_mask]
        before = None
        if block not in cache_set and len(cache_set) >= self.associativity:
            before = dict(cache_set)
        if self._session.access(block, asid, write):
            return AccessResult(hit=True)
        if before is None:
            return AccessResult(hit=False)
        (evicted,) = before.keys() - cache_set.keys()
        return AccessResult(
            hit=False, evicted_block=evicted, writeback=bool(before[evicted] & DIRTY)
        )

    def access_many(self, blocks, asids=0, writes=False) -> int:
        """Bulk access: stream a whole reference column through a session.

        ``blocks`` is a block-number column (list, tuple, 1-D ndarray or
        iterable); ``asids``/``writes`` are parallel columns or scalars
        broadcast to every reference (:func:`repro.common.refs.
        iter_refs` checks the shapes). Stats are byte-identical to
        calling :meth:`access_block` per element
        (``tests/test_setassoc_model.py`` holds both to a list model).
        Returns the number of accesses simulated.
        """
        n, refs = iter_refs(blocks, asids, writes)
        access = self.access_session().access
        for block, asid, write in refs:
            access(block, asid, write)
        return n

    def access_session(self) -> "_SetAssocSession":
        """Allocation-free per-access session (``access(...) -> bool``).

        The one body of the access rule, for feedback drivers that
        interleave applications one reference at a time: the same stats
        updates as :meth:`access_block` without the ``AccessResult``.
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
        """Iterate the sets, ``block -> line state``, in index order
        (read-only audit hook).

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

    def flush(self) -> int:
        """Invalidate everything; returns the number of dirty lines dropped."""
        dirty = 0
        for cache_set in self._sets:
            for state in cache_set.values():
                dirty += state & DIRTY
            cache_set.clear()
        return dirty

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"SetAssociativeCache(name={self.name!r}, size={self.size_bytes}, "
            f"assoc={self.associativity}, line={self.line_bytes}, "
            f"policy={self.policy})"
        )


class _SetAssocSession:
    """The access rule of one :class:`SetAssociativeCache`.

    It bumps the raw per-ASID counters: accesses and hits for the
    accessing ASID, evictions and writebacks for the victim's owner.
    Those counters are never replaced, so a session stays valid across
    ``stats.reset()`` and ``reset_window()``.

    The policy is read once, as data: LRU pops a hit and stores it again
    at the young end, dirty bit included; Random evicts entry
    ``rng.randrange(len(set))``; LRU and FIFO evict the oldest line,
    ``next(iter(set))``.
    """

    __slots__ = ("_sets", "_set_mask", "_ways", "_stats", "_live", "_refresh", "_rng")

    def __init__(self, cache: SetAssociativeCache) -> None:
        self._sets = cache._sets
        self._set_mask = cache._set_mask
        self._ways = cache.associativity
        self._stats = cache.stats
        self._live = cache.stats.live
        self._refresh = cache.policy == "lru"
        self._rng = cache.rng

    def access(self, block: int, asid: int = 0, write: bool = False) -> bool:
        live = self._live
        counters = live.get(asid)
        if counters is None:
            counters = self._stats.counters(asid)
        cache_set = self._sets[block & self._set_mask]
        counters.accesses += 1
        if self._refresh:
            state = cache_set.pop(block, None)
            if state is not None:
                counters.hits += 1
                cache_set[block] = state | write
                return True
        else:
            state = cache_set.get(block)
            if state is not None:
                counters.hits += 1
                if write:
                    cache_set[block] = state | DIRTY
                return True
        if len(cache_set) >= self._ways:
            rng = self._rng
            if rng is None:
                victim = cache_set.pop(next(iter(cache_set)))
            else:
                index = rng.randrange(len(cache_set))
                victim = cache_set.pop(next(islice(cache_set, index, None)))
            owner = live.get(victim >> 1)
            if owner is None:
                owner = self._stats.counters(victim >> 1)
            owner.evictions += 1
            if victim & DIRTY:
                owner.writebacks += 1
        cache_set[block] = asid << 1 | write
        return False
