"""Deterministic random number generators.

The paper's Random replacement policy depends on a *hardware* random number
generator and explicitly notes that its load-balancing quality "is highly
dependent on the entropy of the random number generator implemented in
hardware". To study that dependence (and to keep every simulation
reproducible), this module provides:

* :class:`XorShift64` — a good-quality, fast 64-bit xorshift generator; the
  default used by all replacement policies.
* :class:`LFSR16` — a deliberately weak 16-bit linear-feedback shift
  register, standing in for a cheap hardware RNG. Used by the RNG-entropy
  ablation bench.

Both implement the small :class:`DeterministicRNG` interface, which is all
the simulators need (uniform integers below a bound and choice from a
sequence).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence, TypeVar

from repro.common.errors import ConfigError

T = TypeVar("T")

_MASK64 = (1 << 64) - 1


class DeterministicRNG(ABC):
    """Minimal RNG interface used by replacement and placement policies."""

    @abstractmethod
    def next_u64(self) -> int:
        """Return the next raw value in ``[0, 2**64)``."""

    def randrange(self, bound: int) -> int:
        """Uniform-ish integer in ``[0, bound)``.

        Uses simple modulo reduction — the bias is negligible for the small
        bounds (way counts, molecule counts) used by the simulators, and
        matches what trivial hardware would do.
        """
        if bound <= 0:
            raise ConfigError(f"randrange bound must be positive, got {bound!r}")
        return self.next_u64() % bound

    def choice(self, seq: Sequence[T]) -> T:
        """Return a pseudo-randomly chosen element of a non-empty sequence
        (the one :meth:`randrange` would index, from the same draw)."""
        if not seq:
            raise ConfigError("choice from an empty sequence")
        return seq[self.next_u64() % len(seq)]

    def random(self) -> float:
        """Float in ``[0, 1)`` with 53 bits of precision."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))


class XorShift64(DeterministicRNG):
    """Marsaglia xorshift64* generator — fast and good enough for simulation."""

    def __init__(self, seed: int = 0x9E3779B97F4A7C15) -> None:
        seed &= _MASK64
        if seed == 0:
            # xorshift has an all-zero fixed point; remap to a fixed non-zero
            # state so seed=0 is usable.
            seed = 0xDEADBEEFCAFEF00D
        self._state = seed

    def next_u64(self) -> int:
        x = self._state
        x ^= (x << 13) & _MASK64
        x ^= x >> 7
        x ^= (x << 17) & _MASK64
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64


class LFSR16(DeterministicRNG):
    """A 16-bit Fibonacci LFSR (taps 16,15,13,4) — a *low-entropy* RNG.

    Period is at most 2**16 - 1 and successive outputs are strongly
    correlated, which is exactly the kind of cheap hardware generator the
    paper warns about. Provided for the RNG-sensitivity ablation.
    """

    def __init__(self, seed: int = 0xACE1) -> None:
        seed &= 0xFFFF
        if seed == 0:
            seed = 0xACE1
        self._state = seed

    def _step(self) -> int:
        s = self._state
        bit = ((s >> 0) ^ (s >> 2) ^ (s >> 3) ^ (s >> 5)) & 1
        self._state = (s >> 1) | (bit << 15)
        return self._state

    def next_u64(self) -> int:
        # Concatenate four successive 16-bit states. This keeps the weak
        # statistical structure (which is the point) while satisfying the
        # 64-bit interface.
        value = 0
        for _ in range(4):
            value = (value << 16) | self._step()
        return value
