"""The molecular access rule against the stdlib spec, in lockstep.

``repro.audit.spec`` models the access rule from the paper's description
and shares no code with the simulator. These properties run randomized
op streams (accesses, forced resizes, migrations and hard, transient and
degraded faults) over small caches with every placement, trigger, line
multiplier and resize mechanism, with and without a shared region,
through each entry point:

* ``access_block``: the spec predicts each ``AccessResult``, every
  counter the rule charges, the draws it takes, the triggers'
  countdowns and periods, and the lines of every molecule it touches;
* a held session: the same, with the hit flag for the result;
* ``access_many``: one call per run of accesses, ending at each
  structural op and each predicted resize round.

The three entry points must also leave identical stats, occupancy,
resize logs and telemetry streams.
"""

import ast
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.oracle import (
    ENTRIES,
    AppSpec,
    Lockstep,
    Scenario,
    SpecDivergence,
    end_state,
    diff_results,
)
from repro.common.errors import SimulationError, UnknownASIDError

PLACEMENTS = ("random", "randy", "lru_direct")
TRIGGERS = ("constant", "global_adaptive", "per_app_adaptive")
MOLECULES = 18  # three tiles of six


@st.composite
def scenarios(draw) -> Scenario:
    shared = draw(st.booleans())
    apps = [
        AppSpec(asid=0, goal=draw(st.sampled_from((0.1, 0.3))), tile_id=0,
                line_multiplier=draw(st.sampled_from((1, 2, 4))),
                initial_molecules=draw(st.sampled_from((2, 5, 9)))),
        AppSpec(asid=1, goal=draw(st.sampled_from((0.2, None))), tile_id=1,
                line_multiplier=draw(st.sampled_from((1, 2, 4))),
                initial_molecules=2),
    ]
    if shared:
        # The shared region sits on asid 0's home tile, and asid 2 walks
        # asid 0's blocks, so asid 0 hits lines the shared region holds.
        apps.append(AppSpec(asid=2, tile_id=0, shared=True))
    return Scenario(
        apps=tuple(apps),
        shared_tiles=((0, 2),) if shared else (),
        placement=draw(st.sampled_from(PLACEMENTS)),
        trigger=draw(st.sampled_from(TRIGGERS)),
        mechanism=draw(st.sampled_from(("flush", "chash"))),
        period=60,
        period_floor=20,
        min_window_refs=8,
        seed=draw(st.integers(min_value=0, max_value=1 << 16)),
        telemetry=draw(st.booleans()),
    )


@st.composite
def streams(draw, scenario: Scenario) -> list:
    asids = [app.asid for app in scenario.apps]
    span = draw(st.sampled_from((40, 120, 400)))
    ops = []
    for _ in range(draw(st.integers(min_value=20, max_value=260))):
        roll = draw(st.integers(min_value=0, max_value=99))
        if roll < 95:
            asid = draw(st.sampled_from(asids))
            block = 1 + asid % 2 * 100_000 + draw(st.integers(0, span))
            ops.append(("access", asid, block, draw(st.booleans())))
        elif roll < 96:
            ops.append(("force_resize",))
        elif roll < 97:
            ops.append(("migrate", draw(st.sampled_from((0, 1))),
                        draw(st.integers(0, 2))))
        elif roll < 98:
            ops.append(("fault", "hard", draw(st.integers(0, MOLECULES - 1))))
        elif roll < 99:
            ops.append(("fault", "transient", draw(st.integers(0, MOLECULES - 1))))
        else:
            ops.append(("fault", "degraded", draw(st.integers(0, 2)),
                        draw(st.sampled_from((4, 8)))))
    return ops


@st.composite
def cases(draw):
    scenario = draw(scenarios())
    return scenario, draw(streams(scenario))


def run(scenario: Scenario, ops, entry: str) -> Lockstep:
    lockstep = Lockstep(scenario, entry)
    lockstep.run(ops)
    return lockstep


def final(lockstep: Lockstep):
    return end_state(lockstep.entry, lockstep.cache, lockstep.sink)


@given(case=cases())
@settings(max_examples=60, deadline=None)
def test_every_entry_follows_the_spec(case):
    scenario, ops = case
    states = [final(run(scenario, ops, entry)) for entry in ENTRIES]
    for other in states[1:]:
        assert diff_results(states[0], other) == []


@given(case=cases(), cuts=st.lists(st.integers(0, 300), max_size=4))
@settings(max_examples=15, deadline=None)
def test_entries_mix_on_one_cache(case, cuts):
    # Sessions, access_many calls and access_block share each ASID's
    # access context; switching between them mid-stream changes nothing.
    scenario, ops = case
    lockstep = Lockstep(scenario)
    bounds = sorted({0, len(ops), *(c for c in cuts if c < len(ops))})
    for index, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        lockstep.flush()
        lockstep.entry = ENTRIES[index % len(ENTRIES)]
        for op in ops[lo:hi]:
            if op[0] == "access":
                lockstep.access(op[1], op[2], op[3])
            else:
                lockstep.structural(op)
    lockstep.flush()
    lockstep.check_state("end of stream")


def spanning_scenario(**overrides) -> Scenario:
    """Asid 0 holds molecules on all three tiles from the start."""
    params = dict(
        apps=(
            AppSpec(asid=0, goal=0.2, tile_id=0, initial_molecules=14),
            AppSpec(asid=1, goal=None, tile_id=1, initial_molecules=1),
        ),
        period=80,
        period_floor=20,
        min_window_refs=8,
    )
    params.update(overrides)
    return Scenario(**params)


def hot_ops(asid: int, count: int, span: int, write_every: int = 3) -> list:
    return [("access", asid, 1 + (i * 7) % span, i % write_every == 0)
            for i in range(count)]


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("placement", PLACEMENTS)
def test_ulmo_walks_past_tiles_and_off_home(entry, placement):
    # Lines spread over three tiles, then the home moves to a tile the
    # region does not reach: hits stop at the second remote tile after
    # walking the first, and the walk no longer starts at home.
    scenario = spanning_scenario(placement=placement, trigger="constant")
    ops = hot_ops(0, 400, 90)
    ops += [("migrate", 0, 1)] + hot_ops(0, 200, 90)
    ops += [("fault", "degraded", 2, 8)] + hot_ops(0, 200, 90)
    lockstep = run(scenario, ops, entry)
    assert lockstep.cache.stats.molecules_probed_remote > 0


@pytest.mark.parametrize("entry", ENTRIES)
def test_stack_advisor_sizes_from_the_same_accesses(entry):
    # The stack-distance advisor observes every access; its decisions are
    # adopted like any other round's, the accesses still follow the spec.
    from repro.molecular.advisor import StackDistanceAdvisor

    lockstep = Lockstep(spanning_scenario(trigger="per_app_adaptive"), entry)
    advisor = StackDistanceAdvisor(8, sampling_ratio=2, min_samples=16)
    lockstep.cache.resizer.advisor = advisor
    lockstep.run(hot_ops(0, 600, 200) + hot_ops(1, 100, 30))
    assert advisor.samples_for(0) > 16


@pytest.mark.parametrize("entry", ENTRIES)
def test_shared_regions_keep_their_own_lru_direct_stamps(entry):
    # Every shared region has the shared ASID, yet LRU-Direct keeps one
    # recency map per region: asid 1's misses on tile 1 must not drop the
    # stamp asid 0's hit left on tile 0's copy of block 5.
    scenario = Scenario(
        apps=(AppSpec(asid=0, goal=None, tile_id=0, shared=True),
              AppSpec(asid=1, goal=None, tile_id=1, shared=True)),
        shared_tiles=((0, 4), (1, 4)),
        placement="lru_direct",
    )
    run(scenario, [("access", asid, block, False) for asid, block in
                   ((0, 5), (1, 5), (0, 5), (1, 21), (1, 37), (1, 53))], entry)


@pytest.mark.parametrize("entry", ENTRIES)
def test_unknown_asid_is_refused_untouched(entry):
    scenario = spanning_scenario()
    ops = hot_ops(0, 150, 60) + [("access", 9, 3, False)]
    lockstep = Lockstep(scenario, entry)
    with pytest.raises(UnknownASIDError):
        lockstep.run(ops)


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("fuse", [0, 3, 25])
def test_placement_error_leaves_the_spec_state(entry, fuse):
    # A placement that raises on its (fuse+1)-th miss: the simulator's
    # state is the spec's state before that reference.
    lockstep = Lockstep(spanning_scenario(trigger="constant"), entry)
    real = lockstep.cache.placement.choose
    misses = []

    def choose(region, block, lines_per_molecule, rng):
        misses.append(block)
        if len(misses) > fuse:
            raise SimulationError("placement bomb")
        return real(region, block, lines_per_molecule, rng)

    lockstep.cache.placement.choose = choose
    with pytest.raises(SimulationError, match="placement bomb"):
        lockstep.run(hot_ops(0, 400, 150))


@pytest.mark.parametrize("entry", ENTRIES)
def test_a_wrong_charge_is_caught(entry, monkeypatch):
    # The spec is not a tautology: one comparator too many in the
    # simulator's access context is the first thing it reports.
    from repro.molecular.engine import AccessEngine

    build = AccessEngine._build_context

    def skewed(self, asid):
        ctx = build(self, asid)
        ctx.home_comparisons += 1
        return ctx

    monkeypatch.setattr(AccessEngine, "_build_context", skewed)
    with pytest.raises(SpecDivergence, match="comparisons"):
        run(spanning_scenario(), hot_ops(0, 50, 40), entry)


def test_spec_imports_only_the_standard_library():
    import repro.audit.spec as spec

    tree = ast.parse(Path(spec.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            imported.add(node.module)
    assert imported, "the spec imports nothing at all?"
    for name in imported:
        root = name.split(".")[0]
        assert root != "repro", name
        assert root in sys.stdlib_module_names, name
