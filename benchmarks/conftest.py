"""Shared plumbing for the benchmark suite.

Every bench runs its experiment exactly once (``benchmark.pedantic`` with
one round — these are minutes-long simulations, not microbenchmarks),
prints the same rows/series the paper's table or figure reports, and saves
the text into ``benchmarks/results/`` for EXPERIMENTS.md.

Benches that measure something diffable also record it in the
machine-readable ledger (``benchmarks/results/ledger/``) by passing
``metrics=`` to :func:`emit`; ``repro bench-report`` diffs consecutive
runs and flags regressions (see :mod:`repro.prof.ledger`).

The Table 2 family (Table 2, Figure 6, Table 4, Table 5) reads one set
of Table 2 cells; the ``table2_family`` fixture serves them from one
result store per session, so each cell is simulated once.

Scale with ``REPRO_SCALE`` (e.g. ``REPRO_SCALE=0.25`` for a quick pass).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.common.io import atomic_write_text
from repro.prof.ledger import write_entry

RESULTS_DIR = Path(__file__).parent / "results"
LEDGER_DIR = RESULTS_DIR / "ledger"

#: Per-application references of the Table 2-family benches.
TABLE2_REFS = 300_000

# Hoisted out of emit(): one mkdir at collection time, not one syscall
# per result block.
RESULTS_DIR.mkdir(parents=True, exist_ok=True)


def emit(name: str, text: str, metrics: list[dict] | None = None) -> None:
    """Print a result block and persist it under benchmarks/results/.

    The write is atomic (``repro.common.io.atomic_write_text``: same-
    directory tmp file + rename) so a bench killed mid-write never leaves
    a truncated ``results/*.txt``.

    ``metrics`` entries are ledger records: dicts with at least
    ``metric``/``value``/``unit`` (plus any other
    :func:`repro.prof.ledger.write_entry` keyword, e.g.
    ``direction="higher"`` for throughputs).
    """
    banner = f"\n{'#' * 70}\n{text}\n{'#' * 70}"
    print(banner)
    atomic_write_text(RESULTS_DIR / f"{name}.txt", text + "\n")
    for metric in metrics or []:
        write_entry(LEDGER_DIR, **metric)


def run_once(benchmark, func):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture(scope="session")
def table2_family(tmp_path_factory):
    """``run(name)``: the Table 2-family experiment ``name`` at
    :data:`TABLE2_REFS`, its Table 2 cells drained into (or served from)
    the session's one result store."""
    from repro.campaign import ResultStore, get_experiment, run_campaign

    store = ResultStore(tmp_path_factory.mktemp("table2-cells"))

    def run(name: str):
        target = get_experiment(name)
        specs = target.jobs(refs=TABLE2_REFS)
        outcome = run_campaign(store, specs, campaign=name, jobs=1)
        return target.assemble_results(specs, outcome.results_in_order())

    return run
