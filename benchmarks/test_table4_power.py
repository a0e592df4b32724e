"""Bench: Table 4 — CACTI power results at 0.07 um.

Regenerates the frequency/power table for the 8 MB traditional caches and
the molecular worst-case / mixed-average columns at those frequencies.

Shape assertions mirror the paper's reading:
* associativity raises per-access energy; the 8-way cycle time collapses
  its frequency (and with it, its power);
* the molecular worst case is roughly flat across rows in energy terms
  (it's the same tile, evaluated at different frequencies);
* the headline: the molecular cache saves ~29% power against the 8 MB
  8-way baseline (ours lands in the 15-40% band);
* the measured mixed-workload average is below the worst case.

The average column reads the probe counters of Table 2's Randy cell, from
the session's shared result store.
"""

from conftest import emit, run_once

from repro.molecular.config import MolecularCacheConfig
from repro.sim.experiments.defs.table4 import TABLE3_MOLECULAR


def test_table3_configuration():
    """Table 3 is a configuration table — assert it, don't simulate it."""
    summary = TABLE3_MOLECULAR.table3_summary()
    assert summary["total_cache_size"] == 8 << 20
    assert summary["molecule_size"] == 8 * 1024
    assert summary["tile_size"] == 512 * 1024
    assert summary["tile_clusters"] == 4
    assert summary["tiles_per_cluster"] == 4
    assert summary["associativity"] == "adaptive"
    # and it is a legal strict (paper-range) configuration
    assert isinstance(TABLE3_MOLECULAR, MolecularCacheConfig)


def test_table4_power(benchmark, table2_family):
    result = run_once(benchmark, lambda: table2_family("table4"))
    emit("table4", result.format())

    rows = {row.cache_type: row for row in result.rows}

    # 8-way frequency collapse (paper: 206 -> 96 MHz from 4- to 8-way).
    assert rows["8MB 8way"].frequency_mhz < 0.65 * rows["8MB 4way"].frequency_mhz

    # Traditional power peaks in the middle rows; the 8-way's low clock
    # makes it the least-power baseline (as in the paper).
    assert rows["8MB 8way"].traditional_power_w < rows["8MB 2way"].traditional_power_w

    # Molecular worst-case energy is frequency-independent: power scales
    # with the row's frequency.
    for name, row in rows.items():
        expected = rows["8MB DM"].molecular_worst_power_w * (
            row.frequency_mhz / rows["8MB DM"].frequency_mhz
        )
        assert row.molecular_worst_power_w == expected or abs(
            row.molecular_worst_power_w - expected
        ) / expected < 1e-6, name

    # Measured average <= worst case in every row.
    for row in result.rows:
        assert row.molecular_average_power_w <= row.molecular_worst_power_w * 1.01

    # The 29% headline (paper) — ours must land in a credible band.
    assert 0.15 < result.headline_advantage < 0.40
