"""Guard: auditing is strictly pay-per-use — zero cost when disabled.

Two contracts:

* **Structural**: with auditing disabled, ``run_trace`` issues exactly
  the same calls as before the audit subsystem existed — one
  ``access_many`` per trace segment, zero auditor invocations. This is a
  call-count proof, immune to timing noise.
* **Timing**: a disabled-audit ``run_trace`` stays within noise of the
  raw batched stream it wraps, and an *enabled* audit at the default
  cadence stays within a generous envelope (the auditor runs a handful
  of times per run; its cost must not rival the simulation's).

Timings use min-of-repeats; thresholds are deliberately loose for CI.
"""

from __future__ import annotations

import timeit

from repro.audit import invariants
from repro.common.rng import XorShift64
from repro.molecular import MolecularCache, MolecularCacheConfig, ResizePolicy
from repro.sim.driver import run_trace
from repro.trace.container import Trace

N_REFS = 20_000
REPEATS = 5

#: Disabled-audit run_trace vs the raw access_many stream it delegates to.
#: The structural call-count test above is the real zero-cost guarantee;
#: this timing check only has to catch gross regressions, so the budget
#: absorbs shared-runner noise.
DISABLED_OVERHEAD_BUDGET = 0.35
#: Enabled audit at the default cadence (a few audits per run) envelope.
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


def test_disabled_audit_issues_identical_calls(monkeypatch):
    """Call-count proof: no audit work and no stream chunking when off."""
    monkeypatch.delenv(invariants.AUDIT_ENV, raising=False)
    audits = []
    monkeypatch.setattr(
        "repro.sim.driver.audit_and_emit",
        lambda cache: audits.append(1),
    )
    cache = build_cache()
    batches = []
    real = cache.access_many
    cache.access_many = lambda *args: batches.append(len(args[0])) or real(*args)

    trace = make_trace()
    run_trace(cache, trace, warmup_refs=N_REFS // 4)
    assert audits == []
    assert batches == [N_REFS // 4, N_REFS - N_REFS // 4]


def test_disabled_audit_within_noise_of_raw_stream(monkeypatch):
    monkeypatch.delenv(invariants.AUDIT_ENV, raising=False)
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
        f"disabled-audit run_trace adds {overhead:.1%} per access "
        f"(budget {DISABLED_OVERHEAD_BUDGET:.0%})"
    )


def test_default_cadence_audit_within_envelope(monkeypatch):
    monkeypatch.delenv(invariants.AUDIT_ENV, raising=False)
    trace = make_trace()

    def time_once(func) -> float:
        return min(
            timeit.repeat(func, number=1, repeat=REPEATS)
        ) / N_REFS

    disabled = time_once(lambda: run_trace(build_cache(), trace))
    audited = time_once(
        lambda: run_trace(
            build_cache(), trace, audit_every=invariants.DEFAULT_CADENCE
        )
    )

    overhead = audited / disabled - 1.0
    print(
        f"\ndisabled={disabled * 1e9:.0f}ns audited={audited * 1e9:.0f}ns "
        f"overhead={overhead:+.1%}"
    )
    assert overhead <= ENABLED_OVERHEAD_BUDGET, (
        f"default-cadence auditing adds {overhead:.1%} per access "
        f"(envelope {ENABLED_OVERHEAD_BUDGET:.0%})"
    )
