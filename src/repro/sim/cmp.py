"""CMP execution model: cores issuing their traces against a shared cache.

The paper gathers its traces on SESC, a cycle-level CMP simulator, where a
core that misses in the shared L2 *stalls* while the line is fetched. That
feedback matters: a capacity-starved application (mcf) issues references
more slowly than a cache-friendly one, and therefore pollutes the shared
cache far less than a rate-equal interleaving would suggest. Table 1's
pattern (art survives a pair with mcf but collapses with three co-runners)
only emerges with this throttling.

:class:`CMPRunner` reproduces the effect with a simple timing model:

* each core issues its next reference one time unit after the previous one
  *hits*, or ``1 + miss_penalty`` units after a *miss*;
* the shared cache services references in global time order;
* the run ends when the first core exhausts its trace (all applications are
  co-running for the entire measured window);
* per-application miss rates are measured from a post-warm-up snapshot
  (``warmup_refs`` total references) to exclude cold-start effects that the
  paper's 3.9 M-reference traces amortise away.

Each core streams block numbers shifted from its trace's addresses, and
its write column, through :func:`repro.common.refs.iter_refs` one slice
at a time, so a run holds no whole-trace block column or list.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from repro.caches.stats import AsidCounters
from repro.common.errors import ConfigError
from repro.common.refs import iter_refs
from repro.faults.spec import FaultPlan
from repro.sim.schedule import RunSchedule
from repro.telemetry.bus import EventBus
from repro.trace.container import Trace


@dataclass(frozen=True, slots=True)
class CMPRunConfig:
    """Timing parameters for a CMP run.

    ``miss_penalty`` is the stall, in units of the inter-reference gap of a
    hitting core, that a shared-cache miss inflicts on its core. 10 is a
    reasonable ratio of memory latency to the mean time between post-L1
    references of a well-cached application; it must be finite. The run
    must issue more than ``warmup_refs`` references.

    ``audit_every`` runs the full-state invariant auditor every that many
    issued references and at the end of the run (``None`` consults
    ``$REPRO_AUDIT``; 0 disables).

    ``faults`` schedules a :class:`~repro.faults.spec.FaultPlan` against
    the run; a spec's ``at`` counts *globally issued* references (the
    interleaved stream, not any one core's).

    Both run through the run's schedule (:mod:`repro.sim.schedule`),
    which the issue loop consults only at the counts where something is
    due.
    """

    miss_penalty: float = 10.0
    warmup_refs: int = 100_000
    audit_every: int | None = None
    faults: FaultPlan | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.miss_penalty) or self.miss_penalty < 0:
            raise ConfigError(
                f"miss penalty must be finite and >= 0, got {self.miss_penalty}"
            )
        if self.warmup_refs < 0:
            raise ConfigError("warmup_refs cannot be negative")
        if self.audit_every is not None and self.audit_every < 0:
            raise ConfigError("audit_every cannot be negative")


@dataclass(slots=True)
class CMPRunResult:
    """Measured (post-warm-up) statistics of one CMP run."""

    per_asid: dict[int, AsidCounters] = field(default_factory=dict)
    total_refs: int = 0
    measured_refs: int = 0
    end_time: float = 0.0

    def miss_rate(self, asid: int) -> float:
        counters = self.per_asid.get(asid)
        if counters is None or counters.accesses == 0:
            return 0.0
        return counters.miss_rate

    def overall_miss_rate(self) -> float:
        accesses = sum(c.accesses for c in self.per_asid.values())
        misses = sum(c.misses for c in self.per_asid.values())
        return misses / accesses if accesses else 0.0

    def miss_rates(self) -> dict[int, float]:
        return {asid: c.miss_rate for asid, c in sorted(self.per_asid.items())}


class CMPRunner:
    """Run several applications concurrently against one shared cache.

    The cache may be a :class:`~repro.caches.SetAssociativeCache`, a
    :class:`~repro.molecular.MolecularCache`, or anything else exposing
    ``access_block(block, asid, write) -> AccessResult`` and a ``stats``
    attribute with ``per_asid`` counters; one with ``access_session()``
    is driven through its session's ``access(...) -> bool`` instead.
    """

    def __init__(
        self,
        cache,
        config: CMPRunConfig | None = None,
        telemetry: EventBus | None = None,
    ) -> None:
        self.cache = cache
        self.config = config or CMPRunConfig()
        #: Optional event bus: the run samples its accesses into it, and
        #: a cache that takes it (the molecular cache) adds its events and
        #: epochs. The runner flushes the tail epoch after the run.
        self.telemetry = telemetry

    def run(self, traces: dict[int, Trace], line_bytes: int = 64) -> CMPRunResult:
        """Execute the traces concurrently; returns post-warm-up statistics.

        ``traces`` maps each application's ASID to its (private) trace.
        """
        if not traces:
            raise ConfigError("CMPRunner.run needs at least one trace")
        # (time, asid, refs left, references): one entry per core, so
        # ordering never looks past the distinct ASIDs, and heapreplace
        # issues in the order heappop + heappush would.
        heap = []
        for asid, trace in traces.items():
            if len(trace) == 0:
                raise ConfigError(f"trace for asid {asid} is empty")
            count, refs = iter_refs(trace.block_column(line_bytes), asid, trace.writes)
            heap.append((0.0, asid, count, refs))
        heapq.heapify(heap)
        cache = self.cache
        config = self.config
        warmup = config.warmup_refs
        snapshot: dict[int, AsidCounters] = {}
        schedule = RunSchedule(
            cache, self.telemetry, config.audit_every, config.faults, warmup,
            on_warmup=lambda: snapshot.update(cache.stats.per_asid),
        )
        mark = schedule.reach(0)
        access = schedule.access
        issued = 0
        miss_gap = 1.0 + config.miss_penalty
        replace = heapq.heapreplace

        while True:
            time_now, asid, left, refs = heap[0]
            block, _, write = next(refs)
            hit = access(block, asid, write)
            issued += 1
            if left == 1:
                end_time = time_now
                break
            if issued == mark:
                mark = schedule.reach(issued)
                access = schedule.access
            next_time = time_now + (1.0 if hit else miss_gap)
            replace(heap, (next_time, asid, left - 1, refs))

        if warmup >= issued:
            raise ConfigError(
                f"warmup_refs ({warmup}) must be smaller than the {issued} "
                f"references the run issued; nothing would be measured"
            )
        schedule.finish(issued)
        return self._collect(snapshot, issued, end_time)

    def _collect(
        self,
        snapshot: dict[int, AsidCounters],
        issued: int,
        end_time: float,
    ) -> CMPRunResult:
        result = CMPRunResult(total_refs=issued, end_time=end_time)
        measured = 0
        for asid, counters in self.cache.stats.per_asid.items():
            base = snapshot.get(asid)
            net = counters if base is None else counters.minus(base)
            if net.accesses > 0:
                result.per_asid[asid] = net
                measured += net.accesses
        result.measured_refs = measured
        return result
