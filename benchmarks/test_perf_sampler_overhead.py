"""Guard: the access sampler costs a recorded CMP run at most 5 %.

A driver given a bus samples every ``SAMPLE_EVERY``-th issued reference
(:mod:`repro.sim.schedule`): one session access timed whole, classed
from counter deltas and recorded as an ``AccessSampled`` instant. The
rest of the run is the unsampled issue loop. This bench runs one
four-application molecular cell (the ``simulate`` defaults) through
``CMPRunner`` with and without a bus, and holds the sampled run within
``SAMPLED_OVERHEAD_BUDGET`` of the unsampled one: the median, over
back-to-back pairs that alternate which side runs first, of the pair's
time ratio (on a shared host it drifts less than a min of repeats). The
bus has no sinks and no epochs, so the difference is the
sampler's own: two schedule consultations, the timed and classed access,
and one event built and dispatched per sample. What a sink does with the
event is the sink's cost.

``tests/test_prof_zero_cost.py`` holds the other half of the contract:
with nothing to observe, the drivers consult their schedule a fixed
number of times, whatever the run's length.
"""

from __future__ import annotations

import gc
import statistics

from conftest import emit
from repro.common.clock import tick
from repro.molecular import MolecularCache, MolecularCacheConfig, ResizePolicy
from repro.sim.cmp import CMPRunConfig, CMPRunner
from repro.sim.schedule import SAMPLE_EVERY
from repro.telemetry import EventBus
from repro.workloads import get_model

REFS_PER_APP = 40_000
PAIRS = 31
APPS = ("art", "ammp", "parser", "mcf")

#: Sampled vs unsampled CMP run, median pair ratio.
SAMPLED_OVERHEAD_BUDGET = 0.05


def build_cache() -> MolecularCache:
    config = MolecularCacheConfig.for_total_size(
        4 << 20, clusters=1, tiles_per_cluster=4, strict=False
    )
    cache = MolecularCache(config, resize_policy=ResizePolicy())
    for asid in range(len(APPS)):
        cache.assign_application(asid, goal=0.10, tile_id=asid)
    return cache


def time_run(traces, sampled: bool) -> tuple[float, int]:
    """(seconds, issued references) of one CMP run on a fresh cache."""
    bus = EventBus([], epoch_refs=0) if sampled else None
    runner = CMPRunner(
        build_cache(), CMPRunConfig(warmup_refs=REFS_PER_APP // 4), telemetry=bus
    )
    gc.collect()  # the previous run's cache is not collected inside this one
    started = tick()
    result = runner.run(traces)
    return tick() - started, result.total_refs


def test_sampled_cmp_run_within_budget():
    traces = {
        asid: get_model(name).generate(REFS_PER_APP, seed=1, asid=asid)
        for asid, name in enumerate(APPS)
    }
    ratios, plain, sampled = [], [], []
    for pair in range(PAIRS):
        order = (False, True) if pair % 2 else (True, False)
        times = {side: time_run(traces, side) for side in order}
        plain.append(times[False][0])
        sampled.append(times[True][0])
        ratios.append(times[True][0] / times[False][0])
    issued = times[True][1]
    base, recorded = statistics.median(plain), statistics.median(sampled)
    overhead = statistics.median(ratios) - 1.0
    emit(
        "perf_sampler_overhead",
        "Access sampler overhead "
        f"({issued} refs through CMPRunner, molecular 4MB/4-tile, "
        f"1/{SAMPLE_EVERY} sampled)\n"
        f"  unsampled run : {base:.3f}s ({issued / base:,.0f} refs/s)\n"
        f"  sampled run   : {recorded:.3f}s ({issued / recorded:,.0f} refs/s)\n"
        f"  overhead      : {overhead:+.1%} "
        f"(budget {SAMPLED_OVERHEAD_BUDGET:.0%})",
        metrics=[
            {
                "metric": "sampler_overhead",
                "value": max(overhead, 0.0),
                "unit": "fraction",
                "direction": "lower",
            },
        ],
    )
    assert overhead <= SAMPLED_OVERHEAD_BUDGET, (
        f"sampling adds {overhead:.1%} to a CMP run "
        f"(budget {SAMPLED_OVERHEAD_BUDGET:.0%})"
    )
