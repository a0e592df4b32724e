"""Integration tests: every experiment harness runs end-to-end at small
scale and yields sane, shape-correct results.

These use tiny reference counts — the benches run the real thing; here we
only verify the plumbing and the coarse qualitative properties.
"""

import pytest

from repro.analysis.metrics import DeviationMode
from repro.campaign import get_experiment
from repro.sim.experiments import (
    Figure5Result,
    figure5_series,
    run_figure5_cell,
    run_figure6,
    run_table2,
    run_table4,
    run_table5,
)
from repro.sim.experiments.figure5 import goals_for_graph
from repro.common.errors import ConfigError


@pytest.fixture(autouse=True)
def no_external_scale(monkeypatch):
    monkeypatch.delenv("REPRO_SCALE", raising=False)


class TestTable1:
    def test_small_run_shape(self):
        result = get_experiment("table1").run_serial(refs=40_000)
        assert len(result.combos) == 4 + 6 + 1
        # interference: parser worse with all four than alone
        alone = result.miss_rate(("parser",), "parser")
        shared = result.miss_rate(("art", "mcf", "ammp", "parser"), "parser")
        assert shared > alone
        # formatting runs
        assert "Table 1" in result.format()

    def test_mcf_always_bad(self):
        result = get_experiment("table1").run_serial(refs=40_000)
        for combo, rates in result.combos.items():
            if "mcf" in combo:
                assert rates["mcf"] > 0.4


class TestFigure5:
    def test_goals_for_graphs(self):
        assert goals_for_graph("A") == {0: 0.1, 1: 0.1, 2: 0.1, 3: 0.1}
        graph_b = goals_for_graph("B")
        assert graph_b[3] is None  # mcf unmanaged
        with pytest.raises(ConfigError):
            goals_for_graph("C")

    def test_small_sweep_shape(self):
        result = Figure5Result(graph="B", sizes_mb=(1, 4))
        for label, kind, parameter in figure5_series():
            result.series[label] = [
                run_figure5_cell(kind, parameter, size_mb, graph="B",
                                 refs=60_000)[0]
                for size_mb in result.sizes_mb
            ]
        assert set(result.series) == {
            "Direct Mapped", "2-way", "4-way", "8-way",
            "Molecular (Random)", "Molecular (Randy)",
        }
        for series in result.series.values():
            assert len(series) == 2
            assert all(0.0 <= value <= 1.0 for value in series)
        # the paper's threshold behaviour: molecular improves with size
        randy = result.series["Molecular (Randy)"]
        assert randy[1] < randy[0]
        # traditional: bigger and more associative helps
        assert result.series["4-way"][1] <= result.series["Direct Mapped"][0]
        assert "Figure 5" in result.format()


class TestTable2AndFriends:
    @pytest.fixture(scope="class")
    def table2(self):
        return run_table2(refs_per_app=40_000)

    def test_all_configs_present(self, table2):
        assert set(table2.deviations) == {
            "4MB 4way", "4MB 8way", "8MB 4way", "8MB 8way",
            "6MB Molecular Randy", "6MB Molecular Random",
        }
        assert all(0 <= v <= 1 for v in table2.deviations.values())
        assert "Table 2" in table2.format()

    def test_molecular_runs_recorded(self, table2):
        assert set(table2.molecular_runs) == {"randy", "random"}
        run = table2.molecular_runs["randy"]
        assert run.cache.stats.total.accesses > 0

    def test_figure6_from_table2(self, table2):
        result = run_figure6(table2=table2)
        assert set(result.hpm) == {"randy", "random"}
        assert len(result.hpm["randy"]) == 12
        assert all(value >= 0 for value in result.hpm["randy"].values())
        assert result.mean_molecules["randy"] > 0
        assert "Figure 6" in result.format()

    def test_table5_from_table2(self, table2):
        result = run_table5(table2=table2)
        assert {row.cache_type for row in result.rows} == {"8MB 4way", "8MB 8way"}
        for row in result.rows:
            assert row.traditional_pdp > 0
            assert row.molecular_pdp > 0
        assert "Table 5" in result.format()

    def test_table4_with_stats(self, table2):
        stats = table2.molecular_runs["randy"].cache.stats
        result = run_table4(mixed_stats=stats)
        assert len(result.rows) == 4
        row8 = result.row("8MB 8way")
        # the headline: molecular saves power vs the 8-way baseline
        assert row8.molecular_worst_power_w < row8.traditional_power_w
        assert 0.1 < result.headline_advantage < 0.5
        # average (measured) power never exceeds worst case
        for row in result.rows:
            assert row.molecular_average_power_w <= row.molecular_worst_power_w * 1.05
        assert "Table 4" in result.format()


class TestDeviationModes:
    def test_excess_only_leq_absolute(self):
        def deviations(mode):
            return {
                label: run_figure5_cell(kind, parameter, 1, graph="B",
                                        refs=30_000, deviation_mode=mode)[0]
                for label, kind, parameter in figure5_series()
            }

        absolute = deviations(DeviationMode.ABSOLUTE)
        excess = deviations(DeviationMode.EXCESS_ONLY)
        for name in absolute:
            assert excess[name] <= absolute[name] + 1e-9
