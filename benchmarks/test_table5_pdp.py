"""Bench: Table 5 — the power-deviation product.

Regenerates the PDP comparison: 8 MB 4-way / 8-way traditional caches vs
the 6 MB molecular cache (Randy) at the same operating frequencies, from
three Table 2 cells in the session's shared result store.

Shape assertion (the paper's conclusion): the molecular cache's PDP is
lower in both comparisons — it meets QoS better per watt.
"""

from conftest import emit, run_once


def test_table5_power_deviation_product(benchmark, table2_family):
    result = run_once(benchmark, lambda: table2_family("table5"))
    emit("table5", result.format())

    assert len(result.rows) == 2
    for row in result.rows:
        assert row.molecular_wins, (
            f"molecular PDP {row.molecular_pdp:.3f} should beat "
            f"{row.cache_type}'s {row.traditional_pdp:.3f}"
        )

    # The 4-way row has the worse (higher) traditional PDP, as in the
    # paper (1.890 vs 0.870): it burns more power at similar deviation.
    assert result.row("8MB 4way").traditional_pdp > result.row("8MB 8way").traditional_pdp
