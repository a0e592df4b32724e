"""Guard: telemetry must never silently tax the simulator's hot path.

The access session (``AccessEngine.access``, the loop ``CMPRunner``
runs) carries exactly one ``cache.telemetry is None`` attribute check
per access for telemetry. Two assertions keep that contract:

* the measured cost of that guard is within noise (<= 5 %) of one
  measured access — i.e. the instrumented-but-disabled path is
  indistinguishable from the seed hot path;
* even an *attached* bus with every feature idle (no sinks, sampling and
  epochs off) stays within a generous envelope, so recording never
  becomes the dominant cost of a run.

Timings use min-of-repeats (the stable estimator for Python loops);
thresholds are deliberately loose for CI jitter.
"""

from __future__ import annotations

import timeit

from repro.common.rng import XorShift64
from repro.molecular import MolecularCache, MolecularCacheConfig, ResizePolicy
from repro.telemetry import EventBus

N_REFS = 20_000
REPEATS = 5

#: The disabled-path instrumentation budget: guard cost <= 5 % of an access.
DISABLED_OVERHEAD_BUDGET = 0.05
#: Envelope for an attached-but-idle bus (method call + two modulo checks).
IDLE_BUS_OVERHEAD_BUDGET = 0.50


def build_cache() -> MolecularCache:
    config = MolecularCacheConfig.for_total_size(
        1 << 20, clusters=1, tiles_per_cluster=4, strict=False
    )
    cache = MolecularCache(config, resize_policy=ResizePolicy(), rng=XorShift64(5))
    # Unmanaged single-tile region: no resize rounds, no remote searches —
    # the loop isolates the access path itself.
    cache.assign_application(0, goal=None, tile_id=0, initial_molecules=16)
    return cache


def make_blocks() -> list[int]:
    rng = XorShift64(11)
    return [rng.randrange(1 << 11) for _ in range(N_REFS)]


def time_access_loop(cache, blocks) -> float:
    """Seconds per session access, min over REPEATS runs of the full loop."""
    access = cache.access_session().access

    def run():
        for block in blocks:
            access(block, 0)

    return min(timeit.repeat(run, number=1, repeat=REPEATS)) / len(blocks)


def test_disabled_guard_within_noise_of_seed_path():
    """The per-access cost of ``self.telemetry is None`` is <= 5 % of an
    access — the only instrumentation the disabled hot path carries."""
    cache = build_cache()
    blocks = make_blocks()
    per_access = time_access_loop(cache, blocks)

    probe = cache  # the same attribute load the hot path performs
    guard_timer = timeit.Timer("probe.telemetry is None", globals=locals())
    baseline_timer = timeit.Timer("pass")
    loops = 200_000
    guard = min(guard_timer.repeat(repeat=REPEATS, number=loops)) / loops
    empty = min(baseline_timer.repeat(repeat=REPEATS, number=loops)) / loops
    guard_cost = max(guard - empty, 0.0)

    ratio = guard_cost / per_access
    print(
        f"\naccess={per_access * 1e9:.0f}ns guard={guard_cost * 1e9:.1f}ns "
        f"ratio={ratio:.4f}"
    )
    assert ratio <= DISABLED_OVERHEAD_BUDGET, (
        f"telemetry guard costs {ratio:.1%} of an access "
        f"(budget {DISABLED_OVERHEAD_BUDGET:.0%}) — the disabled hot path "
        "is no longer a single attribute check"
    )


def test_idle_bus_overhead_bounded():
    """An attached bus with everything off must stay within its envelope."""
    blocks = make_blocks()

    disabled = build_cache()
    disabled_time = time_access_loop(disabled, blocks)

    idle = build_cache()
    idle.attach_telemetry(EventBus([], epoch_refs=0, sample_interval=0))
    idle_time = time_access_loop(idle, blocks)

    overhead = idle_time / disabled_time - 1.0
    print(
        f"\ndisabled={disabled_time * 1e9:.0f}ns idle-bus="
        f"{idle_time * 1e9:.0f}ns overhead={overhead:+.1%}"
    )
    assert overhead <= IDLE_BUS_OVERHEAD_BUDGET, (
        f"attached-but-idle bus adds {overhead:.1%} per access "
        f"(envelope {IDLE_BUS_OVERHEAD_BUDGET:.0%})"
    )
