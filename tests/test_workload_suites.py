"""Unit tests for the SPEC and mixed workload suites."""

import pytest

from repro.workloads.mixed import MIXED_GOAL, MIXED_SUITE, mixed_groups, mixed_model
from repro.cli import main
from repro.workloads.registry import (
    available_families,
    available_models,
    get_family,
    get_model,
)
from repro.workloads.spec import SPEC_QUARTET, spec_model


class TestSpecSuite:
    def test_quartet_members(self):
        assert set(SPEC_QUARTET) == {"art", "mcf", "ammp", "parser"}

    def test_models_build(self):
        for name in SPEC_QUARTET:
            model = spec_model(name)
            assert model.name == name
            assert abs(sum(model.weights) - 1.0) < 1e-9

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            spec_model("gobbledygook")

    def test_relative_footprints_match_narrative(self):
        # mcf is the capacity hog; ammp is tiny (excluding the shared
        # compulsory-miss FAR ring present in every model).
        def cacheable(name):
            m = spec_model(name)
            return sum(c.blocks for c in m.components if c.blocks < 1 << 20)

        assert cacheable("mcf") > cacheable("art") > cacheable("ammp")
        assert cacheable("parser") > cacheable("ammp")

    def test_art_fits_one_megabyte_alone(self):
        art = spec_model("art")
        assert art.expected_miss_rate(1 << 14) < 0.10  # 1MB = 16384 blocks

    def test_mcf_starved_at_one_megabyte(self):
        mcf = spec_model("mcf")
        assert mcf.expected_miss_rate(1 << 14) > 0.5


class TestMixedSuite:
    def test_twelve_benchmarks(self):
        assert len(MIXED_SUITE) == 12
        assert len(set(MIXED_SUITE)) == 12

    def test_goal(self):
        assert MIXED_GOAL == 0.25

    def test_all_models_build(self):
        for name in MIXED_SUITE:
            model = mixed_model(name)
            assert model.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            mixed_model("quake")

    def test_groups_of_four(self):
        groups = mixed_groups()
        assert len(groups) == 3
        assert all(len(g) == 4 for g in groups)
        assert tuple(n for g in groups for n in g) == MIXED_SUITE

    def test_paper_membership(self):
        for name in ("crafty", "gcc", "gzip", "parser", "twolf",
                     "CRC", "DRR", "NAT", "CJPEG", "decode", "epic", "gap"):
            assert name in MIXED_SUITE

    def test_group_goal_demand_fits_cluster(self):
        # Each group of four must be able to meet the 25% goal within a
        # 2MB (32768-block) cluster — the property behind Table 2's
        # molecular win. Estimated via the analytic model: capacity at
        # which expected miss <= goal.
        for group in mixed_groups():
            demand = 0
            for name in group:
                model = mixed_model(name)
                for capacity in range(0, 40_000, 500):
                    if model.expected_miss_rate(capacity) <= MIXED_GOAL:
                        demand += capacity
                        break
            assert demand <= 34_000, f"group {group} demands {demand} blocks"


class TestRegistry:
    def test_lists_all(self):
        names = available_models()
        assert "art" in names and "CJPEG" in names
        # parser is in both suites but listed once
        assert names.count("parser") == 1

    def test_lookup_spec(self):
        assert get_model("mcf").name == "mcf"

    def test_lookup_mixed(self):
        assert get_model("epic").name == "epic"

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            get_model("doom")


class TestRegistryFamilies:
    def test_families_listed(self):
        names = [family.name for family in available_families()]
        assert names == ["spec", "mixed"]

    def test_unknown_family(self):
        with pytest.raises(KeyError):
            get_family("nope")


class TestWorkloadsCommand:
    def test_lists_all_families_and_members(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for family in ("spec: ", "mixed: "):
            assert family in out
        # Models appear as indented members.
        assert "  art" in out
        assert "  CJPEG" in out
