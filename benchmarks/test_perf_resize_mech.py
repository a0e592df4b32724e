"""Resize-mechanism comparison bench: flush vs consistent hashing.

Runs the ``resize-mechanism`` experiment's churn workload once and
ledgers the resize data-movement counters per backend, so
``repro bench-report`` can flag a regression in the chash backend's
headline advantage (moving strictly less data than the flush backend).

Scale with ``REPRO_SCALE`` (the experiment's churn phases are a fixed
reference length, so the flush/chash margin survives scaling).
"""

from __future__ import annotations

from conftest import emit, run_once

from repro.campaign import get_experiment
from repro.sim.scale import scaled

REFS_PER_APP = 30_000


def test_chash_moves_less_data_than_flush(benchmark):
    target = get_experiment("resize-mechanism")
    result = run_once(benchmark, lambda: target.run_serial(refs=REFS_PER_APP))
    verdicts = result.verdicts()
    assert verdicts, "experiment produced no flush/chash verdict pairs"

    def total(mechanism: str, key: str) -> int:
        return sum(
            cell[key]
            for cell in result.cells
            if cell["mechanism"] == mechanism
        )

    flush_moved = total("flush", "blocks_moved")
    chash_moved = total("chash", "blocks_moved")
    flush_wb = total("flush", "flush_writebacks")
    chash_wb = total("chash", "flush_writebacks")
    emit(
        "perf_resize_mech",
        result.format()
        + f"\n\nrefs/app: {scaled(REFS_PER_APP)}"
        + f"\ntotal blocks moved: flush {flush_moved}, chash {chash_moved}"
        + f"\ntotal flush writebacks: flush {flush_wb}, chash {chash_wb}",
        metrics=[
            {
                "metric": "resize_blocks_moved_flush",
                "value": flush_moved,
                "unit": "lines",
                "direction": "lower",
            },
            {
                "metric": "resize_blocks_moved_chash",
                "value": chash_moved,
                "unit": "lines",
                "direction": "lower",
            },
            {
                "metric": "resize_flush_writebacks_flush",
                "value": flush_wb,
                "unit": "lines",
                "direction": "lower",
            },
            {
                "metric": "resize_flush_writebacks_chash",
                "value": chash_wb,
                "unit": "lines",
                "direction": "lower",
            },
        ],
    )
    assert result.chash_strictly_less, (
        "chash must move strictly less resize data than flush on every "
        f"trigger; verdicts: {verdicts}"
    )
