"""Guard: fault injection is strictly pay-per-use — zero cost when off.

Two contracts, mirroring ``test_perf_audit_overhead.py``:

* **Structural**: with no :class:`~repro.faults.spec.FaultPlan`,
  ``run_trace`` issues exactly the same calls as before the fault
  subsystem existed — one ``access_many`` per trace segment, no injector
  constructed. A call-count proof, immune to timing noise.
* **Timing**: a faults-free ``run_trace`` stays within noise of the raw
  batched stream, and a run with a scheduled plan stays within a
  generous envelope (a plan splits the stream only at its firing points,
  so the extra cost is a handful of segment boundaries, not per-access
  work).

Timings use min-of-repeats; thresholds are deliberately loose for CI.
"""

from __future__ import annotations

import timeit

from repro.common.rng import XorShift64
from repro.faults import FaultPlan
from repro.molecular import MolecularCache, MolecularCacheConfig, ResizePolicy
from repro.sim.driver import run_trace
from repro.trace.container import Trace

N_REFS = 20_000
REPEATS = 5

#: Faults-free run_trace vs the raw access_many stream it delegates to.
#: The structural call-count test is the real zero-cost guarantee; this
#: timing check only has to catch gross regressions.
DISABLED_OVERHEAD_BUDGET = 0.35
#: A scheduled fault plan splits the stream at its firing points; the
#: envelope absorbs those boundaries plus the faults' own cache work.
ENABLED_OVERHEAD_BUDGET = 1.00


def build_cache() -> MolecularCache:
    config = MolecularCacheConfig.for_total_size(
        1 << 20, clusters=1, tiles_per_cluster=4, strict=False
    )
    cache = MolecularCache(config, resize_policy=ResizePolicy(), rng=XorShift64(5))
    cache.assign_application(0, goal=None, tile_id=0, initial_molecules=16)
    return cache


def make_trace() -> Trace:
    rng = XorShift64(11)
    return Trace([rng.randrange(1 << 11) * 64 for _ in range(N_REFS)])


def make_plan() -> FaultPlan:
    """A three-kind plan firing inside the measured window."""
    return FaultPlan.parse(
        f"transient@{N_REFS // 2}:m3,"
        f"degraded@{N_REFS // 2 + 1000}:t1+8,"
        f"hard@{N_REFS // 2 + 2000}:m40"
    )


def test_no_plan_issues_identical_calls(monkeypatch):
    """Call-count proof: no injector and no stream splitting without a plan."""
    injectors = []

    import repro.sim.schedule as schedule_mod

    real_injector = schedule_mod.FaultInjector
    monkeypatch.setattr(
        schedule_mod,
        "FaultInjector",
        lambda *args: injectors.append(1) or real_injector(*args),
    )
    cache = build_cache()
    batches = []
    real = cache.access_many
    cache.access_many = lambda *args: batches.append(len(args[0])) or real(*args)

    trace = make_trace()
    run_trace(cache, trace, warmup_refs=N_REFS // 4)
    assert injectors == []
    assert batches == [N_REFS // 4, N_REFS - N_REFS // 4]


def test_plan_splits_only_at_firing_points():
    """With a plan, the stream is chunked exactly at the fault times."""
    cache = build_cache()
    batches = []
    real = cache.access_many
    cache.access_many = lambda *args: batches.append(len(args[0])) or real(*args)

    run_trace(cache, make_trace(), warmup_refs=N_REFS // 4, faults=make_plan())
    # warm-up segment, then measured segments split at the three faults
    assert batches == [
        N_REFS // 4,
        N_REFS // 2 - N_REFS // 4,
        1000,
        1000,
        N_REFS - (N_REFS // 2 + 2000),
    ]
    assert cache.stats.faults_injected == 3


def test_no_plan_within_noise_of_raw_stream():
    trace = make_trace()
    blocks = trace.block_list()
    asids = trace.asid_list()
    writes = trace.write_list()

    def time_once(func) -> float:
        return min(
            timeit.repeat(func, number=1, repeat=REPEATS)
        ) / N_REFS

    raw = time_once(
        lambda: build_cache().access_many(blocks, asids, writes)
    )
    wrapped = time_once(lambda: run_trace(build_cache(), trace))

    overhead = wrapped / raw - 1.0
    print(
        f"\nraw={raw * 1e9:.0f}ns run_trace={wrapped * 1e9:.0f}ns "
        f"overhead={overhead:+.1%}"
    )
    assert overhead <= DISABLED_OVERHEAD_BUDGET, (
        f"faults-free run_trace adds {overhead:.1%} per access "
        f"(budget {DISABLED_OVERHEAD_BUDGET:.0%})"
    )


def test_scheduled_plan_within_envelope():
    trace = make_trace()

    def time_once(func) -> float:
        return min(
            timeit.repeat(func, number=1, repeat=REPEATS)
        ) / N_REFS

    clean = time_once(lambda: run_trace(build_cache(), trace))
    faulted = time_once(
        lambda: run_trace(build_cache(), trace, faults=make_plan())
    )

    overhead = faulted / clean - 1.0
    print(
        f"\nclean={clean * 1e9:.0f}ns faulted={faulted * 1e9:.0f}ns "
        f"overhead={overhead:+.1%}"
    )
    assert overhead <= ENABLED_OVERHEAD_BUDGET, (
        f"a three-fault plan adds {overhead:.1%} per access "
        f"(envelope {ENABLED_OVERHEAD_BUDGET:.0%})"
    )
