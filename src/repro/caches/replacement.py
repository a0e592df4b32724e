"""Replacement policies for set-associative caches.

The paper's baselines use LRU (the best of FIFO/Random/LRU, per section
3.3); FIFO and Random are provided for completeness and for the replacement
comparison studies. A policy operates on one set at a time; sets are
plain ``dict[block -> line state]`` (:mod:`repro.caches.setassoc`) so LRU
recency is encoded by insertion order (oldest first), which makes `touch`
and `victim` O(1). ``access_block`` calls these methods; the access
session reads a built-in policy as data instead.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import islice

from repro.common.errors import ConfigError
from repro.common.rng import DeterministicRNG, XorShift64


class ReplacementPolicy(ABC):
    """Strategy interface: how a set reacts to hits and chooses victims."""

    name: str = "abstract"

    @abstractmethod
    def touch(self, cache_set: dict[int, int], block: int) -> None:
        """Update recency state after a hit on ``block``."""

    @abstractmethod
    def victim(self, cache_set: dict[int, int]) -> int:
        """Return the block number to evict from a full set."""


class LRUReplacement(ReplacementPolicy):
    """Least-recently-used: dictionary order *is* the recency stack."""

    name = "lru"

    def touch(self, cache_set: dict[int, int], block: int) -> None:
        cache_set[block] = cache_set.pop(block)

    def victim(self, cache_set: dict[int, int]) -> int:
        return next(iter(cache_set))


class FIFOReplacement(ReplacementPolicy):
    """First-in-first-out: insertion order, hits do not refresh."""

    name = "fifo"

    def touch(self, cache_set: dict[int, int], block: int) -> None:
        return None

    def victim(self, cache_set: dict[int, int]) -> int:
        return next(iter(cache_set))


class RandomReplacement(ReplacementPolicy):
    """Uniform random victim, driven by a deterministic RNG.

    The RNG is injectable so the RNG-entropy ablation can substitute the
    low-entropy :class:`~repro.common.rng.LFSR16`.
    """

    name = "random"

    def __init__(self, rng: DeterministicRNG | None = None) -> None:
        self.rng = rng if rng is not None else XorShift64()

    def touch(self, cache_set: dict[int, int], block: int) -> None:
        return None

    def victim(self, cache_set: dict[int, int]) -> int:
        index = self.rng.randrange(len(cache_set))
        return next(islice(iter(cache_set), index, None))


_POLICIES = {
    "lru": LRUReplacement,
    "fifo": FIFOReplacement,
    "random": RandomReplacement,
}


def make_replacement_policy(
    name: str, rng: DeterministicRNG | None = None
) -> ReplacementPolicy:
    """Build a replacement policy by name (``"lru"``, ``"fifo"``, ``"random"``)."""
    try:
        cls = _POLICIES[name.lower()]
    except KeyError:
        raise ConfigError(
            f"unknown replacement policy {name!r}; expected one of {sorted(_POLICIES)}"
        ) from None
    if cls is RandomReplacement:
        return RandomReplacement(rng)
    return cls()
