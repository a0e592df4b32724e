"""Ring-mixture workload model and its vectorised trace generator.

A benchmark is a weighted mixture of :class:`RingComponent`\\ s. Each
component is a ring of ``blocks`` cache blocks; a reference to the
component either continues the current sequential run (probability
``1 - 1/run_length``) or restarts the run at a uniformly random position in
the ring. This gives independent control over:

* **capacity behaviour** — ring sizes and weights shape the miss-rate vs
  cache-size curve (a ring that fits is all hits after warm-up; a ring much
  larger than the cache misses at roughly its weight);
* **spatial locality** — ``run_length`` sets how much a larger fetch line
  helps (the variable-line-size experiments);
* **phase behaviour** — a ``drift`` component moves to fresh blocks each
  phase, which is what exercises dynamic repartitioning.

Generation is fully vectorised (numpy) and deterministic given a seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.bitops import ilog2
from repro.common.errors import ConfigError
from repro.trace.container import Trace

#: Each application's address space starts at ``asid * APP_SPACE_BYTES`` so
#: shared traditional caches never see aliasing between applications.
APP_SPACE_BYTES = 1 << 40

#: Application address spaces that fit int64 addresses: ASIDs 0 to 2**23 - 1.
APP_SPACES = (1 << 63) // APP_SPACE_BYTES


@dataclass(frozen=True, slots=True)
class RingComponent:
    """One working-set tier of a benchmark model.

    Parameters
    ----------
    weight:
        Relative probability that a reference targets this ring.
    blocks:
        Ring size in cache blocks (64 B each by default).
    run_length:
        Mean sequential-run length; 1 means every reference jumps to a
        random position (pointer chasing), larger values mean streaming.
    drift:
        If true the ring occupies fresh addresses in every phase (working
        set migration). Drifting rings model program phases; they force a
        partition-resizing policy to react.
    """

    weight: float
    blocks: int
    run_length: int = 1
    drift: bool = False

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ConfigError(f"component weight must be positive, got {self.weight}")
        if self.blocks < 1:
            raise ConfigError(f"ring must contain at least one block, got {self.blocks}")
        if self.run_length < 1:
            raise ConfigError(f"run length must be >= 1, got {self.run_length}")


@dataclass(frozen=True)
class BenchmarkModel:
    """A named ring-mixture benchmark.

    Parameters
    ----------
    name:
        Benchmark label (used in reports and plots).
    components:
        The ring mixture. Weights are normalised internally.
    phases:
        Number of equal-length phases per generated trace; drifting rings
        change position at phase boundaries.
    write_fraction:
        Probability that a reference is a write.
    """

    name: str
    components: tuple[RingComponent, ...]
    phases: int = 1
    write_fraction: float = 0.25

    def __post_init__(self) -> None:
        if not self.components:
            raise ConfigError(f"model {self.name!r} needs at least one component")
        if self.phases < 1:
            raise ConfigError(f"model {self.name!r}: phases must be >= 1")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ConfigError(
                f"model {self.name!r}: write fraction must be in [0, 1]"
            )

    # ------------------------------------------------------------ geometry

    @property
    def weights(self) -> np.ndarray:
        raw = np.array([c.weight for c in self.components], dtype=np.float64)
        return raw / raw.sum()

    def footprint_blocks(self) -> int:
        """Total distinct blocks the model can touch across all phases."""
        total = 0
        for component in self.components:
            span = component.blocks * (self.phases if component.drift else 1)
            total += span
        return total

    def _ring_bases(self) -> tuple[list[int], int]:
        """Disjoint base block numbers for each component's address
        range, and the blocks all the (padded) ranges span."""
        bases: list[int] = []
        cursor = 0
        for component in self.components:
            bases.append(cursor)
            span = component.blocks * (self.phases if component.drift else 1)
            # Pad each ring's range to the next 4K-block boundary so rings
            # start at varied set indices without overlapping.
            cursor += span + (-span % 4096)
        return bases, cursor

    # ----------------------------------------------------------- generation

    def generate(
        self,
        n_refs: int,
        seed: int = 0,
        asid: int = 0,
        line_bytes: int = 64,
    ) -> Trace:
        """Generate a trace of ``n_refs`` references.

        The trace is deterministic in ``(n_refs, seed, asid)``. Addresses
        live in the application's private space
        ``[asid * APP_SPACE_BYTES, (asid + 1) * APP_SPACE_BYTES)``; only
        ASIDs below :data:`APP_SPACES` have one that int64 addresses reach,
        and a model whose padded rings span more than one is refused.
        The address column is built in place (DESIGN.md section 7).
        """
        if n_refs < 1:
            raise ConfigError(f"n_refs must be >= 1, got {n_refs}")
        if not 0 <= asid < APP_SPACES:
            raise ConfigError(
                f"asid must be in [0, {APP_SPACES}) for its address space "
                f"to fit int64 addresses, got {asid}"
            )
        line_shift = ilog2(line_bytes)
        bases, span = self._ring_bases()
        if span << line_shift > APP_SPACE_BYTES:
            raise ConfigError(
                f"model {self.name!r} spans {span} padded blocks of "
                f"{line_bytes} B, past one application's address space"
            )
        rng = np.random.default_rng((seed * 1_000_003 + asid * 97 + 1) & 0x7FFFFFFF)

        choice = rng.choice(len(self.components), size=n_refs, p=self.weights)
        choice = choice.astype(np.min_scalar_type(len(self.components)))
        addresses = np.empty(n_refs, dtype=np.int64)
        for index, component in enumerate(self.components):
            positions = np.flatnonzero(choice == index)
            if positions.size:
                addresses[positions] = self._component_blocks(
                    component, bases[index], positions, n_refs, rng
                )
        del choice, positions

        addresses += (asid * APP_SPACE_BYTES) >> line_shift
        addresses <<= line_shift
        writes = rng.random(n_refs) < self.write_fraction
        return Trace(addresses, asid, writes)

    def _component_blocks(
        self,
        component: RingComponent,
        base: int,
        positions: np.ndarray,
        n_refs: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Block numbers for this component's references (vectorised runs)."""
        m = positions.size
        if component.run_length == 1:
            blocks = rng.integers(0, component.blocks, size=m, dtype=np.int64)
        else:
            restart = rng.random(m) < (1.0 / component.run_length)
            restart[0] = True
            # A reference's offset in its run: its index minus the index of
            # the run's restart. Its run number picks the run's start.
            blocks = np.arange(m, dtype=np.int64)
            run = np.where(restart, blocks, 0)
            np.maximum.accumulate(run, out=run)
            blocks -= run
            np.cumsum(restart, out=run)
            run -= 1
            starts = rng.integers(
                0, component.blocks, size=int(run[-1]) + 1, dtype=np.int64
            )
            blocks += starts[run]
            blocks %= component.blocks

        if component.drift and self.phases > 1:
            phase = np.minimum(positions * self.phases // n_refs, self.phases - 1)
            blocks += phase * component.blocks
        blocks += base
        return blocks

    # ------------------------------------------------------------- analysis

    def expected_miss_rate(self, cache_blocks: int) -> float:
        """Rough analytic miss rate on a ``cache_blocks``-block LRU cache.

        Greedy model: rings are cached hottest-per-block first; a ring
        granted ``g`` of its ``S`` blocks hits on a ``g/S`` fraction of its
        references. Used for sanity tests and documentation — the
        simulators measure the real thing.
        """
        if cache_blocks < 0:
            raise ConfigError("cache_blocks must be non-negative")
        weights = self.weights
        order = sorted(
            range(len(self.components)),
            key=lambda i: weights[i] / self.components[i].blocks,
            reverse=True,
        )
        remaining = cache_blocks
        miss = 0.0
        for index in order:
            ring = self.components[index]
            granted = min(ring.blocks, remaining)
            remaining -= granted
            miss += weights[index] * (1.0 - granted / ring.blocks)
        # weight normalisation can leave ~1e-16 excess; clamp to [0, 1]
        return min(1.0, max(0.0, miss))

    def scaled(self, factor: float, name: str | None = None) -> "BenchmarkModel":
        """A copy with every ring size scaled by ``factor`` (>= keeps >=1)."""
        if factor <= 0:
            raise ConfigError(f"scale factor must be positive, got {factor}")
        components = tuple(
            RingComponent(
                weight=c.weight,
                blocks=max(1, int(round(c.blocks * factor))),
                run_length=c.run_length,
                drift=c.drift,
            )
            for c in self.components
        )
        return BenchmarkModel(
            name=name or self.name,
            components=components,
            phases=self.phases,
            write_fraction=self.write_fraction,
        )
