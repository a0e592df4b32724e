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
    """Figure 6, Table 4 and Table 5 assemble from Table 2's payloads."""

    REFS = 40_000

    @pytest.fixture(scope="class")
    def payloads(self):
        """Table 2's payloads by job content hash."""
        target = get_experiment("table2")
        return {
            spec.content_hash(): target.run_job(spec)
            for spec in target.jobs(refs=self.REFS)
        }

    def assembled(self, name, payloads):
        # Every job of the family is one of Table 2's: its hash is there.
        target = get_experiment(name)
        specs = target.jobs(refs=self.REFS)
        return target.assemble_results(
            specs, [payloads[spec.content_hash()] for spec in specs]
        )

    @pytest.fixture(scope="class")
    def table2(self, payloads):
        return self.assembled("table2", payloads)

    def test_all_configs_present(self, table2):
        assert set(table2.deviations) == {
            "4MB 4way", "4MB 8way", "8MB 4way", "8MB 8way",
            "6MB Molecular Randy", "6MB Molecular Random",
        }
        assert all(0 <= v <= 1 for v in table2.deviations.values())
        assert "Table 2" in table2.format()

    def test_molecular_runs_recorded(self, payloads):
        specs = get_experiment("table2").jobs(refs=self.REFS)
        molecular = {
            spec.params_dict["placement"]: payloads[spec.content_hash()]
            for spec in specs if spec.params_dict["kind"] == "molecular"
        }
        assert set(molecular) == {"randy", "random"}
        randy = molecular["randy"]
        assert randy["probes"]["accesses"] > 0
        assert randy["probes"]["molecules_probed"] > 0
        assert len(randy["hpm"]) == 12 and randy["mean_molecules"] > 0

    def test_figure6_from_table2(self, payloads):
        result = self.assembled("figure6", payloads)
        assert set(result.hpm) == {"randy", "random"}
        assert len(result.hpm["randy"]) == 12
        assert all(value >= 0 for value in result.hpm["randy"].values())
        assert result.mean_molecules["randy"] > 0
        assert "Figure 6" in result.format()

    def test_table5_from_table2(self, payloads):
        result = self.assembled("table5", payloads)
        assert {row.cache_type for row in result.rows} == {"8MB 4way", "8MB 8way"}
        for row in result.rows:
            assert row.traditional_pdp > 0
            assert row.molecular_pdp > 0
        assert "Table 5" in result.format()

    def test_table4_with_stats(self, payloads):
        result = self.assembled("table4", payloads)
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
