"""Differential oracle and fuzz harness tests.

The centrepiece is the reintroduced-bug meta-test: monkeypatching the
LRU-Direct eviction hook back to a no-op (the exact leak this PR fixes)
must make the fuzzer fail with a ``placement-recency`` violation and
shrink the failing stream — proof the harness would have flushed the bug
out on its own.
"""

from __future__ import annotations

import random

import pytest

from repro.audit.fuzz import (
    ALL_PLACEMENTS,
    ALL_TRIGGERS,
    fuzz,
    generate_ops,
    generate_scenario,
    shrink_ops,
)
from repro.audit.oracle import (
    EPOCH_REFS,
    PATHS,
    AppSpec,
    PathResult,
    Scenario,
    diff_results,
    replay,
    run_oracle,
)
from repro.common.errors import ConfigError
from repro.molecular.placement import LRUDirectPlacement, PlacementPolicy


def small_scenario(placement: str = "randy", **overrides) -> Scenario:
    params = dict(
        apps=(
            AppSpec(asid=0, goal=0.2, tile_id=0, initial_molecules=2),
            AppSpec(asid=1, goal=0.3, tile_id=1, line_multiplier=2,
                    initial_molecules=2),
            AppSpec(asid=2, tile_id=2, shared=True),
        ),
        shared_tiles=((2, 2),),
        placement=placement,
    )
    params.update(overrides)
    return Scenario(**params)


def mixed_ops(count: int = 1200, seed: int = 4) -> list:
    rng = random.Random(seed)
    ops = []
    for index in range(count):
        if index and index % 300 == 0:
            ops.append(("force_resize",))
        if index == count // 2:
            ops.append(("migrate", 0, 1))
        asid = rng.choice((0, 1, 2))
        block = 1 + asid * 100_000 + rng.randrange(150)
        ops.append(("access", asid, block, rng.random() < 0.3))
    return ops


class TestOracle:
    @pytest.mark.parametrize("placement", ALL_PLACEMENTS)
    def test_all_paths_agree(self, placement):
        report = run_oracle(
            small_scenario(placement), mixed_ops(), audit_every=250
        )
        assert report.divergences == []
        assert set(report.results) == set(PATHS)
        # Every arm saw identical stats down to the last counter.
        stats = [r.stats for r in report.results.values()]
        assert all(s == stats[0] for s in stats)
        # The arms keep a driver's epoch clock, so the event diff covers
        # the epoch metrics too, not only resize and fault events.
        for result in report.results.values():
            assert [
                e["seq"] for e in result.events if e["kind"] == "epoch_rollover"
            ] == list(range(EPOCH_REFS, 1_201, EPOCH_REFS))

    def test_replay_scalar_matches_brute(self):
        # access_block in lockstep with the spec, against access_block
        # audited after every op.
        scenario = small_scenario("lru_direct", trigger="per_app_adaptive")
        ops = mixed_ops(600, seed=9)
        spec = replay(scenario, ops, "spec")
        brute = replay(scenario, ops, "brute")
        assert spec.error is None and brute.error is None
        assert diff_results(spec, brute) == []

    def test_spec_arm_reports_a_divergence(self, monkeypatch):
        # One extra hop cycle in the simulator's latency constants is a
        # spec divergence on the first remote search, shrunk to a few ops.
        from repro.molecular.latency import LatencyModel

        real = LatencyModel.constants
        monkeypatch.setattr(
            LatencyModel, "constants",
            lambda self: real(self)[:3] + (real(self)[3] + 1,),
        )
        scenario = small_scenario("randy")
        report = run_oracle(scenario, mixed_ops(400, seed=2), paths=("spec",))
        assert any("SpecDivergence" in d and "cycles" in d for d in report.divergences)

    def test_replay_rejects_unknown_path(self):
        with pytest.raises(ConfigError, match="unknown oracle path"):
            replay(small_scenario(), [], "quantum")

    def test_invalid_migration_is_skipped_everywhere(self):
        # Tile 5 does not exist / crosses no cluster — every path must
        # treat the op identically (skip), not diverge.
        ops = [("access", 0, 10, False), ("migrate", 0, 99),
               ("access", 0, 11, False)]
        report = run_oracle(small_scenario(), ops, audit_every=1)
        assert report.ok

    def test_diff_results_flags_divergence(self):
        a = PathResult("spec", {"x": 1}, {"o": 1}, [(1, 0, "grow", 1)], [])
        b = PathResult("engine", {"x": 2}, {"o": 2}, [], [{"kind": "e"}])
        diffs = diff_results(a, b)
        assert any("stats['x']" in d for d in diffs)
        assert any("occupancy" in d for d in diffs)
        assert any("resize log" in d for d in diffs)
        assert any("telemetry" in d for d in diffs)

    def test_diff_results_error_mismatch_short_circuits(self):
        a = PathResult("spec", {"x": 1}, {}, [], [])
        b = PathResult("brute", {"x": 2}, {}, [], [], error="AuditError: boom")
        diffs = diff_results(a, b)
        assert len(diffs) == 1 and "AuditError" in diffs[0]


class TestGenerators:
    def test_ops_are_deterministic_in_the_seed(self):
        one = generate_ops(random.Random("k"), small_scenario(), 500)
        two = generate_ops(random.Random("k"), small_scenario(), 500)
        assert one == two

    def test_ops_cover_every_op_kind(self):
        rng = random.Random(1)
        scenario = small_scenario()
        ops = generate_ops(rng, scenario, 30_000)
        kinds = {op[0] for op in ops}
        assert kinds == {"access", "force_resize", "migrate"}
        assert any(op[3] for op in ops if op[0] == "access")  # writes
        asids = {op[1] for op in ops if op[0] == "access"}
        assert asids == {0, 1, 2}

    def test_scenarios_span_the_cell_axes(self):
        scenarios = [
            generate_scenario(random.Random(i), "randy", "constant", i)
            for i in range(24)
        ]
        assert {s.shared_tiles for s in scenarios} == {(), ((2, 2),)}
        multipliers = {
            app.line_multiplier for s in scenarios for app in s.apps
        }
        assert multipliers == {1, 2, 4}


class TestFuzz:
    def test_small_sweep_is_clean(self):
        report = fuzz(
            ops=600,
            seed=2,
            placements=("randy", "lru_direct"),
            triggers=("constant", "per_app_adaptive"),
        )
        assert report.ok, report.failures
        assert len(report.cells) == 4
        assert report.operations == 2400
        assert "clean" in report.summary()

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigError):
            fuzz(ops=0)
        with pytest.raises(ConfigError):
            fuzz(placements=("voodoo",))
        with pytest.raises(ConfigError):
            fuzz(triggers=("sometimes",))
        with pytest.raises(ConfigError):
            fuzz(audit_every=-5)

    def test_reintroduced_lru_leak_is_caught_and_shrunk(self, monkeypatch):
        # Reintroduce the pre-fix behaviour: evictions never prune the
        # LRU-Direct touch map.
        monkeypatch.setattr(
            LRUDirectPlacement, "on_evict", PlacementPolicy.on_evict
        )
        report = fuzz(
            ops=3000,
            seed=3,
            placements=("lru_direct",),
            triggers=("constant",),
            audit_every=200,
        )
        assert not report.ok
        failure = report.failures[0]
        assert any(
            "placement-recency" in d for d in failure.divergences
        ), failure.divergences
        assert len(failure.ops) < failure.original_ops
        # The minimal stream is a genuine subsequence of the original
        # (regenerated the way fuzz() does: scenario draws first, then
        # the stream, off one cell RNG).
        cell_rng = random.Random("3/lru_direct/constant")
        regenerated = generate_scenario(cell_rng, "lru_direct", "constant", 3)
        assert regenerated == failure.scenario
        original = generate_ops(cell_rng, regenerated, 3000)
        iterator = iter(original)
        assert all(op in iterator for op in failure.ops)

    def test_shrink_preserves_failure(self, monkeypatch):
        monkeypatch.setattr(
            LRUDirectPlacement, "on_evict", PlacementPolicy.on_evict
        )
        scenario = small_scenario("lru_direct")
        ops = mixed_ops(800, seed=6)
        assert not run_oracle(scenario, ops, audit_every=100).ok
        minimal = shrink_ops(scenario, list(ops), 100)
        assert minimal
        assert len(minimal) <= len(ops)
        assert not run_oracle(scenario, minimal, audit_every=100).ok
