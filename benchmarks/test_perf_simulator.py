"""Simulator-throughput microbenchmarks.

Unlike the experiment benches (one long run each), these measure the
library's own performance — accesses per second through each simulator
layer — with proper multi-round statistics. Useful for catching
performance regressions in the hot paths.
"""

import os
import time

import numpy as np
import pytest

from conftest import emit
from repro.caches.setassoc import SetAssociativeCache
from repro.common.rng import XorShift64
from repro.analysis.reuse import StackDistanceAnalyzer
from repro.molecular import MolecularCache, MolecularCacheConfig, ResizePolicy
from repro.workloads import spec_model

N_REFS = 50_000

#: Absolute throughput floor (refs/s) of the access session, as a CI
#: smoke guard; overridable by environment for unusual hardware.
MIN_BATCHED_THROUGHPUT = float(
    os.environ.get("REPRO_MIN_BATCHED_THROUGHPUT", "100000")
)


@pytest.fixture(scope="module")
def blocks():
    rng = np.random.default_rng(1)
    return rng.integers(0, 1 << 14, size=N_REFS).tolist()


def _molecular_config():
    return MolecularCacheConfig.for_total_size(
        1 << 20, clusters=1, tiles_per_cluster=4, strict=False
    )


def _molecular_cache(config):
    cache = MolecularCache(
        config,
        resize_policy=ResizePolicy(),
        rng=XorShift64(5),
    )
    cache.assign_application(0, goal=0.2, tile_id=0)
    return cache


def test_perf_setassoc_access(benchmark, blocks):
    def run():
        cache = SetAssociativeCache(1 << 20, 4)
        cache.access_many(blocks)
        return cache.stats.total.accesses

    assert benchmark(run) == N_REFS


def test_perf_setassoc_access_scalar(benchmark, blocks):
    """The per-reference ``access_block`` entry point: one session access
    plus its ``AccessResult``."""

    def run():
        cache = SetAssociativeCache(1 << 20, 4)
        access = cache.access_block
        for block in blocks:
            access(block)
        return cache.stats.total.accesses

    assert benchmark(run) == N_REFS


def test_perf_molecular_access(benchmark, blocks):
    config = _molecular_config()

    def run():
        cache = _molecular_cache(config)
        cache.access_many(blocks, 0)
        return cache.stats.total.accesses

    assert benchmark(run) == N_REFS


def test_perf_molecular_access_scalar(benchmark, blocks):
    """The per-reference ``access_block`` entry point: one session access
    plus its ``AccessResult``."""
    config = _molecular_config()

    def run():
        cache = _molecular_cache(config)
        access = cache.access_block
        for block in blocks:
            access(block, 0)
        return cache.stats.total.accesses

    assert benchmark(run) == N_REFS


def test_molecular_session_throughput(blocks):
    """Guard: the access session serves >= 100k refs/s.

    Plain min-of-three wall timing (no benchmark fixture) so the guard
    also runs under ``--benchmark-disable`` in the CI perf smoke.
    """
    config = _molecular_config()

    def session_run():
        cache = _molecular_cache(config)
        cache.access_many(blocks, 0)
        return cache.stats.total.accesses

    session_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        assert session_run() == N_REFS
        session_s = min(session_s, time.perf_counter() - start)
    throughput = N_REFS / session_s
    emit(
        "perf_molecular_session",
        f"Access session throughput ({N_REFS} refs, molecular 1MB/4-tile)\n"
        f"  session access_many : {session_s:.3f}s "
        f"({throughput:,.0f} refs/s, floor {MIN_BATCHED_THROUGHPUT:,.0f})",
        metrics=[
            {
                "metric": "molecular_session_refs_per_sec",
                "value": throughput,
                "unit": "refs/s",
                "direction": "higher",
            },
        ],
    )
    assert throughput >= MIN_BATCHED_THROUGHPUT, (
        f"session throughput {throughput:,.0f} refs/s below floor "
        f"{MIN_BATCHED_THROUGHPUT:,.0f}"
    )


def test_perf_trace_generation(benchmark):
    model = spec_model("parser")

    def run():
        return len(model.generate(N_REFS, seed=3))

    assert benchmark(run) == N_REFS


def test_perf_stack_distance(benchmark, blocks):
    def run():
        analyzer = StackDistanceAnalyzer(capacity_hint=1 << 16)
        analyzer.run(blocks)
        return analyzer.references

    assert benchmark(run) == N_REFS
