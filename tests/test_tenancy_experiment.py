"""Tenancy experiment: registry wiring, campaign equivalence, chaos pin.

The sweep's acceptance properties from the multi-tenant subsystem PR:

* ``tenancy`` is a first-class campaign experiment (decompose into one
  job per grid cell, options validated);
* a parallel campaign is byte-identical to the serial run — including a
  1000-tenant smoke cell, the scale point CI exercises;
* need-driven allocation beats the static split on the skewed-churn
  grid point (the ledgered benchmark's claim, pinned here at test
  scale);
* chaos (a killed worker + a corrupted outcome) followed by a resume
  leaves the assembled sweep byte-identical to a clean serial run.
"""

from __future__ import annotations

import pytest

from repro.campaign import (
    LeaseConfig,
    ResultStore,
    experiment_names,
    get_experiment,
    run_campaign,
)
from repro.common.errors import ConfigError
from repro.sim.experiments.tenancy import (
    resolve_grid,
    run_tenancy,
    run_tenancy_cell,
)
from tests.campaign_support import pin_cpus

#: Same tiny-scale pin as tests/test_campaign.py: real numbers, fast jobs.
TINY_SCALE = "0.02"

#: One hostile grid point, all three policies — 3 jobs per campaign.
SMALL_GRID = {"tenants": (10,), "churn": (0.3,), "skew": (1.0,)}


@pytest.fixture(autouse=True)
def _tiny_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", TINY_SCALE)
    pin_cpus(monkeypatch, 2)


def sweep(tmp_path, jobs: int, options: dict, **kwargs):
    """Run a tenancy campaign; returns (outcome, formatted text)."""
    target = get_experiment("tenancy")
    specs = target.jobs(**options)
    outcome = run_campaign(
        ResultStore(tmp_path), specs, campaign="tenancy", jobs=jobs, **kwargs
    )
    result = target.assemble_results(
        specs, outcome.results_in_order(), **options
    )
    return outcome, result.format()


# ---------------------------------------------------------------- registry


class TestRegistration:
    def test_tenancy_is_registered(self):
        assert "tenancy" in experiment_names()
        target = get_experiment("tenancy")
        assert target.options == ("tenants", "churn", "skew", "policies")
        assert target.default_refs == 60_000

    def test_decomposes_into_grid_cells(self):
        specs = get_experiment("tenancy").jobs(refs=30_000)
        # 2 tenant counts x 2 churn x 2 skew x 3 policies by default.
        assert len(specs) == 24
        assert all(spec.job == "cell" for spec in specs)
        params = specs[0].params_dict
        assert set(params) == {"tenants", "churn", "skew", "policy", "refs"}

    def test_options_narrow_the_grid(self):
        specs = get_experiment("tenancy").jobs(
            refs=30_000, policies=("need",), **SMALL_GRID
        )
        assert len(specs) == 1
        assert specs[0].params_dict["policy"] == "need"

    def test_unknown_option_rejected(self):
        with pytest.raises(ConfigError, match="does not accept"):
            get_experiment("tenancy").jobs(refs=1000, flavor="spicy")

    def test_grid_rejects_bad_axes(self):
        with pytest.raises(ConfigError, match="policies"):
            resolve_grid({"policies": ("nope",)})
        with pytest.raises(ConfigError, match=">= 1"):
            resolve_grid({"tenants": (0,)})

    def test_empty_axis_falls_back_to_default(self):
        assert resolve_grid({"churn": ()}) == resolve_grid({})

    def test_grid_order_is_input_order_independent(self):
        forward = resolve_grid({"tenants": (10, 100), "churn": (0.3, 0.0)})
        backward = resolve_grid({"tenants": (100, 10), "churn": (0.0, 0.3)})
        assert forward == backward
        # Axes are sorted; policies keep registry order (static first).
        assert forward[0][:3] == (10, 0.0, 0.5)
        assert forward[0][3] == "static"


# -------------------------------------------------------------- campaigns


class TestCampaignEquivalence:
    def test_serial_campaign_matches_direct_run(self, tmp_path):
        _, campaign_text = sweep(tmp_path, jobs=1, options=SMALL_GRID)
        direct = run_tenancy(
            tenants=SMALL_GRID["tenants"],
            churn=SMALL_GRID["churn"],
            skew=SMALL_GRID["skew"],
        )
        assert campaign_text == direct.format()

    def test_parallel_matches_serial_byte_for_byte(self, tmp_path):
        _, serial_text = sweep(
            tmp_path / "serial", jobs=1, options=SMALL_GRID
        )
        parallel, parallel_text = sweep(
            tmp_path / "parallel", jobs=2, options=SMALL_GRID
        )
        assert parallel.workers == 2
        assert parallel_text == serial_text

    def test_thousand_tenant_smoke_parallel_equals_serial(self, tmp_path):
        """The acceptance scale point: a 1000-tenant cell sweeps
        identically under serial and parallel execution."""
        options = {
            "tenants": (1000,),
            "churn": (0.3,),
            "skew": (1.0,),
            "policies": ("static", "need"),
        }
        _, serial_text = sweep(
            tmp_path / "serial", jobs=1, options=options
        )
        _, parallel_text = sweep(
            tmp_path / "parallel", jobs=2, options=options
        )
        assert parallel_text == serial_text
        assert "1000" in serial_text

    def test_rerun_is_pure_cache_hit(self, tmp_path):
        first, text1 = sweep(tmp_path, jobs=1, options=SMALL_GRID)
        second, text2 = sweep(tmp_path, jobs=2, options=SMALL_GRID)
        assert first.executed == 3 and not first.cached
        assert second.executed == 0 and len(second.cached) == 3
        assert text1 == text2


class TestPolicyOrdering:
    def test_need_beats_static_on_skewed_churn_point(self):
        """The benchmark ledger's claim at test scale: on the hostile
        grid point, marginal-gain transfers beat the equal split."""
        need = run_tenancy_cell(100, 0.3, 1.0, "need", 20_000, seed=1)
        static = run_tenancy_cell(100, 0.3, 1.0, "static", 20_000, seed=1)
        assert need["aggregate_hit_rate"] > static["aggregate_hit_rate"]

    def test_verdict_line_names_the_winner(self, tmp_path):
        _, text = sweep(tmp_path, jobs=1, options=SMALL_GRID)
        assert "verdict: need-driven" in text


# ------------------------------------------------------------------ chaos


class TestChaosResume:
    def test_chaos_then_resume_is_byte_identical(self, tmp_path):
        """Satellite pin: sabotaged tenancy campaigns converge to the
        clean serial output, and the resumed store re-executes nothing."""
        target = get_experiment("tenancy")
        specs = target.jobs(**SMALL_GRID)
        clean = run_campaign(
            ResultStore(tmp_path / "clean"), specs, campaign="tenancy"
        )
        clean_text = target.assemble_results(
            specs, clean.results_in_order(), **SMALL_GRID
        ).format()

        chaos_store = ResultStore(tmp_path / "chaos")
        outcome = run_campaign(
            chaos_store, specs, campaign="tenancy", jobs=2,
            config=LeaseConfig(ttl=0.5, backoff_cap=0.2),
            worker_chaos=["kill@1", "corrupt@1"],
        )
        chaos_text = target.assemble_results(
            specs, outcome.results_in_order(), **SMALL_GRID
        ).format()
        assert chaos_text == clean_text
        # the orphaned lease and the corrupted job each cost one attempt
        assert outcome.retried == 2

        resumed = run_campaign(chaos_store, specs, campaign="tenancy")
        assert resumed.executed == 0
        assert len(resumed.cached) == len(specs)
        resumed_text = target.assemble_results(
            specs, resumed.results_in_order(), **SMALL_GRID
        ).format()
        assert resumed_text == clean_text
