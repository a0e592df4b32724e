"""Cache statistics: one raw counter set per ASID, every other figure a view.

``CacheStats.lifetime`` maps each ASID to an :class:`AsidCounters` bumped
once per event and never replaced or zeroed. Totals sum ASIDs; cumulative
counts (the paper's tables) subtract the values at the last ``reset()``
(warm-up), window counts (Algorithm 1's input) those at the last
``reset_window()``. Views list the ASIDs touched since ``reset()`` in
first-touch order: sessions look counters up in ``live``, which
``reset()`` empties in place, so an ASID re-enters it on its next event.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class AsidCounters:
    """Event counters for one ASID (or for the whole cache)."""

    accesses: int = 0
    hits: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def miss_rate(self) -> float:
        """Miss ratio; 0.0 when no accesses were recorded."""
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def copy(self) -> "AsidCounters":
        return AsidCounters(self.accesses, self.hits, self.evictions, self.writebacks)

    def add(self, other: "AsidCounters") -> None:
        self.accesses += other.accesses
        self.hits += other.hits
        self.evictions += other.evictions
        self.writebacks += other.writebacks

    def minus(self, base: "AsidCounters") -> "AsidCounters":
        """The counts accumulated since ``base`` was copied."""
        return AsidCounters(*(getattr(self, f) - getattr(base, f) for f in _FIELDS))


_FIELDS = ("accesses", "hits", "evictions", "writebacks")


def summed(table: dict[int, AsidCounters]) -> AsidCounters:
    total = AsidCounters()
    for counters in table.values():
        total.add(counters)
    return total


class CacheStats:
    """Raw per-ASID counters with cumulative and window views."""

    __slots__ = ("lifetime", "live", "_reset_base", "_window_base")

    def __init__(self) -> None:
        self.lifetime: dict[int, AsidCounters] = {}
        self.live: dict[int, AsidCounters] = {}
        self._reset_base: dict[int, AsidCounters] = {}
        self._window_base: dict[int, AsidCounters] = {}

    def counters(self, asid: int) -> AsidCounters:
        """The raw counters of one ASID, touching it."""
        counters = self.live.get(asid)
        if counters is None:
            counters = self.lifetime.setdefault(asid, AsidCounters())
            self.live[asid] = counters
        return counters

    def record_access(self, asid: int, hit: bool) -> None:
        counters = self.counters(asid)
        counters.accesses += 1
        if hit:
            counters.hits += 1

    def record_eviction(self, asid: int, writeback: bool) -> None:
        counters = self.counters(asid)
        counters.evictions += 1
        if writeback:
            counters.writebacks += 1

    def _since(self, base: dict[int, AsidCounters]) -> dict[int, AsidCounters]:
        return {
            asid: counters.minus(base[asid]) if asid in base else counters.copy()
            for asid, counters in self.live.items()
        }

    @property
    def per_asid(self) -> dict[int, AsidCounters]:
        """Per-ASID counts since the last :meth:`reset` (fresh copies)."""
        return self._since(self._reset_base)

    @property
    def total(self) -> AsidCounters:
        return summed(self.per_asid)

    @property
    def window_total(self) -> AsidCounters:
        return summed(self._since(self._window_base))

    def reset_window(self) -> None:
        """Start a new window (called at every resize decision)."""
        self._window_base = {a: c.copy() for a, c in self.lifetime.items()}

    def reset(self) -> None:
        """Start the cumulative counts over (e.g. after a warm-up phase)."""
        self.reset_window()
        self._reset_base = self._window_base
        self.live.clear()

    def miss_rate(self, asid: int | None = None) -> float:
        """Cumulative miss rate, overall or for one ASID."""
        if asid is None:
            return self.total.miss_rate
        return self.per_asid.get(asid, AsidCounters()).miss_rate

    def window_miss_rate(self, asid: int | None = None) -> float:
        """Miss rate since the last window reset."""
        if asid is None:
            return self.window_total.miss_rate
        return self._since(self._window_base).get(asid, AsidCounters()).miss_rate

    def _key(self) -> tuple:
        return (self.per_asid, self._since(self._window_base))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def as_dict(self) -> dict:
        """Plain-dict snapshot (handy for reports and JSON dumps)."""
        per_asid = self.per_asid
        total = summed(per_asid)
        return {
            "accesses": total.accesses,
            "hits": total.hits,
            "misses": total.misses,
            "miss_rate": total.miss_rate,
            "evictions": total.evictions,
            "writebacks": total.writebacks,
            "per_asid": {
                asid: {"accesses": c.accesses, "hits": c.hits,
                       "misses": c.misses, "miss_rate": c.miss_rate}
                for asid, c in sorted(per_asid.items())
            },
        }
