"""Guard: the campaign executor is exact, scales with cores, costs little.

Three contracts of the one campaign executor (lease workers behind
:func:`repro.campaign.run_campaign`):

* a ``figure5`` campaign (one job per design x size cell) reassembles to
  the *byte-identical* ``format()`` output of the serial ``run_serial``
  path at ``--jobs 1`` and at ``--jobs 4``;
* with >= 4 usable cores, ``--jobs 4`` beats ``--jobs 1`` on wall clock
  (the speedup assertion is skipped on smaller machines — forked workers
  cannot beat one in-process worker without cores to run on);
* the in-process drain (``--jobs 1``) lands within ``MAX_OVERHEAD`` of a
  bare ``execute_spec`` + ``ResultStore.save`` loop over the same specs:
  both pay the simulation cost, so the delta is pure lease bookkeeping
  (lease files, heartbeats, scandir passes). It lands in the benchmark
  ledger as ``lease_overhead`` for `repro bench-report` trend tracking.

Scale with ``REPRO_SCALE`` like every other bench; the equality checks
are exact at any scale because jobs regenerate their traces from the
seed. ``REPRO_PERF_SOFT=1`` reports the overhead without failing (CI
soft gate), like the other perf guards.
"""

from __future__ import annotations

import os
import time

from conftest import emit

from repro.campaign import (
    ResultStore,
    execute_spec,
    get_experiment,
    run_campaign,
)
from repro.campaign.worker import usable_cpus

#: Required wall-clock advantage of --jobs 4 over --jobs 1 on a >=4-core
#: machine. Deliberately modest: worker start-up and result I/O are real
#: costs, and CI boxes are noisy.
MIN_SPEEDUP = 1.2
#: Allowed wall-clock overhead of the lease drain over a bare loop.
MAX_OVERHEAD = float(os.environ.get("REPRO_MAX_LEASE_OVERHEAD", "0.10"))
PERF_SOFT = os.environ.get("REPRO_PERF_SOFT", "") == "1"
GRAPH = "A"
REFS_PER_APP = 400_000
OVERHEAD_REFS_PER_APP = 200_000
#: Timed repetitions per side of the overhead comparison; min-of-N
#: screens out machine noise, which at a ~1s drain is far larger than
#: the protocol cost being measured.
ROUNDS = 2


def _campaign(tmp_dir, specs, jobs: int) -> tuple[list, float]:
    """One fresh figure5 campaign; returns (results in order, seconds)."""
    start = time.perf_counter()
    outcome = run_campaign(
        ResultStore(tmp_dir), specs, campaign="figure5", jobs=jobs,
        resume=False, options={"graph": GRAPH},
    )
    elapsed = time.perf_counter() - start
    return outcome.results_in_order(), elapsed


def test_campaign_figure5_byte_identical_and_parallel_speedup(tmp_path):
    target = get_experiment("figure5")
    specs = target.jobs(refs=REFS_PER_APP, graph=GRAPH)
    serial_start = time.perf_counter()
    reference = target.run_serial(refs=REFS_PER_APP, graph=GRAPH).format()
    serial_elapsed = time.perf_counter() - serial_start

    one, one_elapsed = _campaign(tmp_path / "one", specs, jobs=1)
    four, four_elapsed = _campaign(tmp_path / "four", specs, jobs=4)
    for results, jobs in ((one, 1), (four, 4)):
        text = target.assemble_results(specs, results, graph=GRAPH).format()
        assert text == reference, (
            f"a jobs={jobs} campaign must reproduce run_serial "
            "byte-for-byte"
        )

    cores = usable_cpus()
    speedup = one_elapsed / max(four_elapsed, 1e-9)
    emit(
        "perf_campaign",
        "Campaign figure5 sweep (graph A, lease workers)\n"
        f"  usable cores          : {cores}\n"
        f"  serial run_serial     : {serial_elapsed:.1f}s\n"
        f"  campaign --jobs 1     : {one_elapsed:.1f}s (in process)\n"
        f"  campaign --jobs 4     : {four_elapsed:.1f}s "
        f"({min(4, cores)} forked worker(s))\n"
        f"  speedup (jobs 4 vs 1) : {speedup:.2f}x\n"
        f"  byte-identical output : yes",
    )

    if cores >= 4:
        assert speedup >= MIN_SPEEDUP, (
            f"--jobs 4 managed only {speedup:.2f}x over --jobs 1 on a "
            f"{cores}-core machine (need >= {MIN_SPEEDUP}x)"
        )


def test_single_worker_lease_overhead_within_budget(tmp_path):
    target = get_experiment("figure5")
    specs = target.jobs(refs=OVERHEAD_REFS_PER_APP, graph=GRAPH)

    bare_elapsed = float("inf")
    for round_ in range(ROUNDS):
        store = ResultStore(tmp_path / f"bare{round_}")
        start = time.perf_counter()
        for spec in specs:
            outcome = execute_spec(spec.as_payload())
            store.save(spec, outcome["result"], outcome["elapsed"], 1)
        bare_elapsed = min(bare_elapsed, time.perf_counter() - start)
    bare_text = target.assemble_results(
        specs,
        [store.load_result(s.content_hash()) for s in specs],
        graph=GRAPH,
    ).format()

    lease_elapsed = float("inf")
    for round_ in range(ROUNDS):
        results, elapsed = _campaign(tmp_path / f"leased{round_}", specs, 1)
        lease_elapsed = min(lease_elapsed, elapsed)
    lease_text = target.assemble_results(specs, results, graph=GRAPH).format()
    assert lease_text == bare_text, (
        "the lease drain must reproduce the bare loop's output "
        "byte-for-byte"
    )

    overhead = lease_elapsed / max(bare_elapsed, 1e-9) - 1.0
    emit(
        "perf_lease",
        "Lease protocol overhead (figure5, one in-process worker)\n"
        f"  jobs                  : {len(specs)}\n"
        f"  bare execute+save loop: {bare_elapsed:.2f}s\n"
        f"  campaign --jobs 1     : {lease_elapsed:.2f}s\n"
        f"  overhead              : {overhead * 100:+.1f}% "
        f"(budget {MAX_OVERHEAD * 100:.0f}%)\n"
        f"  byte-identical output : yes",
        metrics=[
            {
                "metric": "lease_overhead",
                "value": overhead,
                "unit": "fraction",
                "direction": "lower",
            }
        ],
    )
    if not PERF_SOFT:
        assert overhead <= MAX_OVERHEAD, (
            f"lease bookkeeping cost {overhead * 100:.1f}% over the bare "
            f"loop (budget {MAX_OVERHEAD * 100:.0f}%); set "
            "REPRO_PERF_SOFT=1 to report without failing"
        )
