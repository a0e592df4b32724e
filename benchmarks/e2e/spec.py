"""What the end-to-end benchmark runs: workload sizes, seeds and metric tables.

The metric names, units, directions and regression bounds live in
``BENCHMARK.json`` at the repository root; this module reads them from
there so the driver, the traced run and the self-test cannot disagree.
The workload sizes live here, not in ``BENCHMARK.json``, whose layout is
fixed. Nothing here imports ``repro``: the driver (``run.py``) must be
able to refuse to run, and to report why, in a tree without sources.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

#: The repository (or benchmark checkout) root.
ROOT = Path(__file__).resolve().parents[2]

#: Where the workloads import the simulator from.
SRC = ROOT / "src"

#: Scratch space for the sweep's result stores; each run deletes its own.
WORK_DIR = ROOT / ".bench_work"

#: Per-application reference counts (``refs_per_app``) of each workload.
SIZES = {
    "figure5": 150_000,
    "table1": 500_000,
    "trace-mix": 150_000,
    "sweep": 120_000,
}

#: trace-mix interleaves the 12 mixed-suite traces in quanta this long.
TRACE_MIX_QUANTUM = 1024

#: The sweep's fixed cost per invocation is the median of this many
#: ``--resume`` runs over the completed store.
SWEEP_RESUMES = 5

#: ``setup_s`` is the median of at least this many set-ups per workload.
SETUP_SAMPLES = 5

#: Every seed with golden digests. ``--seed S`` runs the inputs of
#: ``input_seed(S)``, so every run, whatever its seed, is checked exactly.
GOLDEN_SEEDS = tuple(range(1, 11))

#: Environment variables that silently change workload size or add audit
#: cost; the benchmark refuses to run while any is set.
AMBIENT_KNOBS = ("REPRO_SCALE", "REPRO_AUDIT", "REPRO_PERF_SOFT")


def input_seed(seed: int) -> int:
    """The golden seed whose inputs ``--seed seed`` runs."""
    return GOLDEN_SEEDS[(seed - 1) % len(GOLDEN_SEEDS)]


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def sweep_jobs() -> int:
    """Worker processes for the sweep workload: J = min(2, nproc)."""
    return min(2, nproc())


def load_benchmark() -> dict:
    """``BENCHMARK.json``: workloads and the metric tables."""
    with (ROOT / "BENCHMARK.json").open("r", encoding="utf-8") as fh:
        return json.load(fh)


def workload_names() -> list[str]:
    return [workload["name"] for workload in load_benchmark()["workloads"]]


def layer_metric_names() -> list[str]:
    return [metric["name"] for metric in load_benchmark()["per_layer"]]
