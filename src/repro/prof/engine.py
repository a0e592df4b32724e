"""The sampling wrapper around the access session.

:class:`ProfiledAccessEngine` is what ``MolecularCache.access_session``
(and so ``access_many``) builds when a :class:`~repro.prof.profiler.
HotPathProfiler` is attached and enabled. It subclasses the ordinary
:class:`~repro.molecular.engine.AccessEngine` and changes *when things
are measured*, never *what happens*:

* :meth:`access` counts every reference and, with the profiler's
  countdown, routes one per ``sample_every`` through :meth:`sample`;
  the rest go straight to the parent's session body.
* :meth:`stream` is the parent's session loop with the same countdown
  inlined, inside a wall-clock measurement — so a profiled
  ``access_many`` runs exactly the path an unprofiled one does, plus
  one sampled access per ``sample_every``.
* :meth:`sample` calls the unmodified :meth:`AccessEngine.access`,
  times the whole call and classifies it by outcome from counter
  deltas. There is no instrumented copy of the access rule: the
  profiler measures the path that runs.

Outcome classes (see DESIGN.md section 10): the return value says hit or
miss; a hit is *remote* when the settled Ulmo ``remote_hits`` (summed
over clusters) grew during the call, and a miss is *dirty* when the
ASID's lifetime ``writebacks`` grew. Neither reads a live per-context
count, which a settle inside the call (a resize fire, an epoch rollover)
would zero, nor ``writebacks_to_memory``, which also counts a resize's
flush writebacks. The resize time the resizer adds to ``resize_s``
during the call is taken off the sample, so a fire is counted once, in
the exactly-timed resize row.
"""

from __future__ import annotations

from repro.common.clock import tick
from repro.common.refs import iter_refs
from repro.molecular.engine import AccessEngine
from repro.prof.profiler import HotPathProfiler


class ProfiledAccessEngine(AccessEngine):
    """An :class:`AccessEngine` that feeds an attached profiler."""

    __slots__ = ("profiler",)

    def __init__(self, cache) -> None:
        super().__init__(cache)
        profiler = cache.profiler
        if profiler is None:
            profiler = HotPathProfiler()
        self.profiler = profiler

    # ------------------------------------------------------------ streaming

    def stream(self, blocks, asids=0, writes=False) -> int:
        """The session loop, timed, with the sampling countdown inlined.

        Unsampled references call the parent's session body directly —
        one frame per reference, exactly as unprofiled — rather than
        through :meth:`access`, whose extra frame alone would exceed the
        profiler's overhead budget.
        """
        prof = self.profiler
        t_start = tick()
        n, refs = iter_refs(blocks, asids, writes)
        plain = super().access
        sample_every = prof.sample_every
        countdown = prof.countdown
        try:
            for block, asid, write in refs:
                countdown -= 1
                if countdown:
                    plain(block, asid, write)
                else:
                    countdown = sample_every
                    self.sample(block, asid, write)
        finally:
            prof.countdown = countdown
        prof.refs += n
        prof.add_stream(tick() - t_start)
        return n

    # ------------------------------------------------------------- sessions

    def access(self, block: int, asid: int = 0, write: bool = False) -> bool:
        prof = self.profiler
        prof.refs += 1
        prof.countdown -= 1
        if prof.countdown > 0:
            return AccessEngine.access(self, block, asid, write)
        prof.countdown = prof.sample_every
        return self.sample(block, asid, write)

    # ------------------------------------------------------ sampled access

    def sample(self, block: int, asid: int = 0, write: bool = False) -> bool:
        """One :meth:`AccessEngine.access`, timed whole and classified."""
        prof = self.profiler
        clusters = self.cache.clusters
        remote = sum(cluster.ulmo.stats.remote_hits for cluster in clusters)
        counters = self.stats.lifetime.get(asid)
        writebacks = counters.writebacks if counters is not None else 0
        resize_s = prof.resize_s
        started = tick()
        hit = AccessEngine.access(self, block, asid, write)
        elapsed = max(tick() - started - (prof.resize_s - resize_s), 0.0)
        if hit:
            remote_now = sum(c.ulmo.stats.remote_hits for c in clusters)
            outcome = "remote_hit" if remote_now != remote else "local_hit"
        elif self.stats.lifetime[asid].writebacks != writebacks:
            outcome = "dirty_miss"
        else:
            outcome = "clean_miss"
        prof.add_sample(asid, outcome, elapsed)
        return hit
