"""Bench: Figure 5 — average deviation from the 10% miss-rate goal vs size.

Regenerates both graphs (A: goal for all four apps; B: mcf unmanaged) over
1/2/4/8 MB for DM/2w/4w/8w traditional caches and Molecular Random/Randy.

Shape assertions follow the paper's reading of the figure:
* traditional deviation falls with size and with associativity;
* molecular caches have a *threshold* size past which they beat the
  traditional designs — 4 MB in graph A, 2 MB in graph B;
* graph B's drop at the threshold is sharp.

Graph A's checks held at every scale tested (``REPRO_SCALE`` 0.05, 0.1,
0.25, 0.5, 0.75 and 1.0). Graph B's hold from 1.0 (full scale), the
smallest tested scale from which they hold: they failed at 0.05 and 0.1
(Randy at the 2 MB threshold not below 0.75x its 1 MB deviation: 0.355
vs 0.416, 0.234 vs 0.309), passed at 0.25, and failed at 0.5 and 0.75,
where the better molecular design at 2 MB was not within 1.25x of the
best traditional one (0.0550 vs 0.0420, 0.0501 vs 0.0396).
"""

import pytest
from conftest import emit, run_once

from repro.campaign import get_experiment


@pytest.mark.parametrize("graph", ["A", "B"])
def test_figure5(benchmark, graph):
    target = get_experiment("figure5")
    result = run_once(
        benchmark, lambda: target.run_serial(refs=400_000, graph=graph)
    )
    from repro.sim.plot import ascii_chart

    chart = ascii_chart(
        [f"{mb}MB" for mb in result.sizes_mb],
        result.series,
        title="(deviation vs size; lower is better)",
    )
    emit(f"figure5_{graph}", result.format() + "\n\n" + chart)

    dm = result.series["Direct Mapped"]
    w4 = result.series["4-way"]
    w8 = result.series["8-way"]
    randy = result.series["Molecular (Randy)"]
    random_ = result.series["Molecular (Random)"]

    # Traditional caches: more size helps, more associativity helps.
    assert dm[-1] < dm[0]
    assert w4[-1] < w4[0]
    for at_size in range(4):
        assert w4[at_size] < dm[at_size]

    # Molecular deviation falls monotonically-ish with size (allow noise).
    assert randy[-1] < randy[0]
    assert random_[-1] < random_[0]

    threshold_index = result.sizes_mb.index(4 if graph == "A" else 2)

    # At the threshold molecular is competitive with the best traditional
    # design; past it, molecular wins outright.
    for index in range(threshold_index, len(result.sizes_mb)):
        best_traditional = min(dm[index], w4[index], w8[index],
                               result.series["2-way"][index])
        margin = 1.25 if index == threshold_index else 1.0
        assert min(randy[index], random_[index]) < best_traditional * margin

    if graph == "B":
        # The sharp drop at the 2 MB threshold (the paper's cliff). The
        # cliff needs enough references for the resize engine to converge,
        # so the strict form only applies at full scale.
        from repro.sim.scale import scale_factor

        if scale_factor() >= 0.9:
            assert randy[threshold_index] < 0.5 * randy[0]
            # and beyond the threshold the goals are essentially met
            assert min(randy[-1], random_[-1]) < 0.05
        else:
            assert randy[threshold_index] < 0.75 * randy[0]
