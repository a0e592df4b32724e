"""Bench: Table 2 — mixed 12-benchmark workload, deviation from a 25% goal.

Regenerates the paper's comparison of a 6 MB molecular cache (3 clusters x
4 x 512 KB tiles) against 4 MB / 8 MB traditional caches at 4/8 ways.

Shape assertions:
* traditional: bigger caches deviate less at equal associativity;
* the 6 MB molecular cache (Randy) beats every traditional cache,
  including the 8 MB 8-way — the paper's headline ("two level isolation");

Known divergence (EXPERIMENTS.md): the paper's Random placement is far
worse than Randy (0.357 vs 0.222); with a high-entropy RNG our idealised
Random is competitive, so no Random-vs-Randy ordering is asserted here.
"""

from conftest import emit, run_once


def test_table2_mixed_workload(benchmark, table2_family):
    result = run_once(benchmark, lambda: table2_family("table2"))
    emit("table2", result.format())

    dev = result.deviations
    # Size helps traditional caches at fixed associativity.
    assert dev["8MB 4way"] < dev["4MB 4way"]
    assert dev["8MB 8way"] < dev["4MB 8way"]

    # Headline: 6 MB molecular (Randy) beats even the 8 MB 8-way.
    assert dev["6MB Molecular Randy"] < dev["8MB 8way"]
    assert dev["6MB Molecular Randy"] < dev["8MB 4way"]
    assert dev["6MB Molecular Randy"] < dev["4MB 4way"]

    # Deviations are meaningful (not degenerate).
    assert 0.0 < dev["6MB Molecular Randy"] < 0.25
    assert all(0.0 < value < 0.6 for value in dev.values())
