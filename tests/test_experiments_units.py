"""Unit tests for the experiment-harness plumbing (no long simulations)."""

import pytest

from repro.common.errors import ConfigError
from repro.molecular.stats import MolecularStats
from repro.sim.experiments.common import build_traces, warmup_for
from repro.sim.experiments.figure5 import Figure5Result
from repro.sim.experiments.table1 import PAPER_TABLE1, Table1Result
from repro.sim.experiments.defs import table4
from repro.sim.experiments.defs.table2 import APPS, GOAL
from repro.sim.experiments.defs.table4 import TABLE3_MOLECULAR
from repro.sim.experiments.defs.table5 import PAPER_TABLE5
from repro.sim.experiments.table2 import PAPER_TABLE2, molecular_6mb_config
from repro.workloads.mixed import MIXED_GOAL, MIXED_SUITE


class TestCommonHelpers:
    def test_build_traces_asid_order(self):
        traces = build_traces(["ammp", "crafty"], 1_000, seed=2)
        assert set(traces) == {0, 1}
        assert set(traces[1].asids.tolist()) == {1}

    def test_build_traces_rejects_empty(self):
        with pytest.raises(ConfigError):
            build_traces([], 1_000)

    def test_warmup_fraction(self):
        assert warmup_for(100_000, 4) == 25_000


class TestPaperReferenceData:
    def test_table1_reference_complete(self):
        # 4 alones + 6 pairs + all-four
        assert len(PAPER_TABLE1) == 11
        assert PAPER_TABLE1[("art",)]["art"] == 0.064
        all_four = PAPER_TABLE1[("art", "mcf", "ammp", "parser")]
        assert all_four["art"] == 0.734

    def test_table2_reference(self):
        assert PAPER_TABLE2["6MB Molecular Randy"] == 0.222075
        assert PAPER_TABLE2["6MB Molecular Random"] == 0.356923

    def test_table5_reference(self):
        assert PAPER_TABLE5["8MB 8way"] == (0.870, 0.425)

    def test_table2_runs_the_mixed_suite(self):
        # defs.table2 names the suite without importing the models
        assert APPS == MIXED_SUITE
        assert GOAL == MIXED_GOAL


class TestConfigurations:
    def test_table3_is_the_paper_configuration(self):
        assert TABLE3_MOLECULAR.total_bytes == 8 << 20
        assert TABLE3_MOLECULAR.molecule_bytes == 8 * 1024
        assert TABLE3_MOLECULAR.tile_bytes == 512 * 1024
        assert TABLE3_MOLECULAR.clusters == 4
        assert TABLE3_MOLECULAR.strict  # inside every paper range

    def test_6mb_molecular_configuration(self):
        config = molecular_6mb_config("randy")
        assert config.total_bytes == 6 << 20
        assert config.clusters == 3
        assert config.tile_bytes == 512 * 1024


class TestResultFormatting:
    def test_table1_format_includes_paper_column(self):
        result = Table1Result(cache_label="1MB 4-way L2")
        result.combos[("art",)] = {"art": 0.05}
        text = result.format()
        assert "0.050" in text and "0.064" in text

    def test_figure5_accessors(self):
        result = Figure5Result(graph="A", sizes_mb=(1, 2))
        result.series["4-way"] = [0.3, 0.2]
        assert result.deviation("4-way", 2) == 0.2
        assert "Figure 5 graph A" in result.format()

    def test_table4_pure_model_run(self):
        """Table 4 assembled from explicit probe counters runs in
        milliseconds and keeps the worst-case/average relationship."""
        stats = MolecularStats()
        for _ in range(100):
            stats.record_access(0, hit=True)
        stats.molecules_probed_local = 3_000  # 30/access < 64 worst case
        stats.asid_comparisons = 6_400
        [cell] = table4.cells(1_000, {})
        result = table4.assemble(
            [cell], [{"probes": stats.probe_counters()}], {}
        )
        for row in result.rows:
            assert row.molecular_average_power_w < row.molecular_worst_power_w
        assert result.row("8MB DM").frequency_mhz > result.row("8MB 8way").frequency_mhz
