"""Bench: Figure 6 — hits-per-molecule, Random vs Randy placement.

Regenerates the per-application HPM series for the mixed workload (log
scale in the paper). Reads Table 2's two molecular cells from the
session's shared result store, so they are simulated once per session.

Shape assertions:
* every application has a positive HPM under both policies;
* Randy's targeted growth keeps it efficient: its overall HPM (total hit
  rate per total molecules) is within 15% of Random's or better;
* the network benchmarks with tiny hot sets (CRC, NAT) have far higher
  HPM than the streaming benchmarks — the spread the log axis shows.

Known divergence (EXPERIMENTS.md): the paper's "Randy 9% lower miss with
5% more molecules" is not reproduced with an ideal RNG; the measured
relative numbers are printed for the record.
"""

from conftest import emit, run_once


def test_figure6_hits_per_molecule(benchmark, table2_family):
    result = run_once(benchmark, lambda: table2_family("figure6"))
    emit("figure6", result.format())

    for policy in ("random", "randy"):
        hpm = result.hpm[policy]
        assert len(hpm) == 12
        assert all(value > 0 for value in hpm.values())
        # small-hot-set network apps are an order of magnitude above the
        # streaming media apps
        assert hpm["CRC"] > 5 * hpm["CJPEG"]
        assert hpm["NAT"] > 5 * hpm["gzip"]

    # overall efficiency: hit-rate-per-molecule of the whole cache
    efficiency = {
        p: (1.0 - result.overall_miss_rate[p]) / result.mean_molecules[p]
        for p in ("random", "randy")
    }
    assert efficiency["randy"] > 0.85 * efficiency["random"]

    # both policies use a comparable number of molecules (the paper's +-5%)
    ratio = result.mean_molecules["randy"] / result.mean_molecules["random"]
    assert 0.8 < ratio < 1.2
