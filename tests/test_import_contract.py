"""The import contract: what runs without numpy and the simulator.

A resumed sweep of a complete store only reads results and prints them,
and the CLI's non-simulating commands only parse arguments. Neither may
pay for numpy or the cache models. The package facades (``repro``,
``repro.campaign``, ``repro.sim``, ``repro.sim.experiments``) are lazy,
experiment grids and result types live in the numpy-free
:mod:`repro.sim.experiments.defs`, and the campaign launcher imports the
simulator only when it is about to fork workers that will run it.

Most checks need a fresh interpreter — the test process has long since
imported everything — so they run Python in a subprocess.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
import repro.campaign
import repro.molecular
import repro.power
import repro.sim
import repro.sim.experiments

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules a resumed sweep must not import: numpy and one module from
#: each simulator layer (CMP scheduler, set-associative and molecular
#: caches).
SIMULATOR = ("numpy", "repro.sim.cmp", "repro.caches.setassoc",
             "repro.molecular.cache")


def python(*args: str, scale: str | None = None) -> subprocess.CompletedProcess:
    """Run ``python ARGS`` on this checkout's sources; fail on error."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_SCALE", "REPRO_AUDIT")}
    env["PYTHONPATH"] = str(SRC)
    if scale is not None:
        env["REPRO_SCALE"] = scale
    done = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done


def run_code(code: str, *args: str):
    """Run ``code`` in a fresh interpreter; returns its last stdout line
    parsed as JSON."""
    done = python("-c", textwrap.dedent(code), *args)
    return json.loads(done.stdout.splitlines()[-1])


#: ``python -c WATCHED_CLI ARGS`` runs ``repro ARGS`` like ``python -m
#: repro`` does, then prints the simulator modules it imported as the
#: last line of stderr.
WATCHED_CLI = textwrap.dedent(f"""
    import json, sys
    from repro.cli import main
    code = main(sys.argv[1:])
    loaded = sorted(m for m in {SIMULATOR!r} if m in sys.modules)
    print(json.dumps(loaded), file=sys.stderr)
    sys.exit(code)
""")


def test_package_imports_load_no_numpy():
    loaded = run_code("""
        import json, sys
        numpy_after = {}
        for name in ("repro", "repro.cli", "repro.campaign"):
            __import__(name)
            numpy_after[name] = "numpy" in sys.modules
        import repro
        listed = set(repro.__all__) <= set(dir(repro))
        numpy_after["dir(repro)"] = "numpy" in sys.modules
        print(json.dumps({"numpy": numpy_after, "listed": listed}))
    """)
    assert loaded == {
        "numpy": {"repro": False, "repro.cli": False,
                  "repro.campaign": False, "dir(repro)": False},
        "listed": True,
    }


def test_decomposing_every_experiment_loads_no_numpy():
    loaded = run_code("""
        import importlib, json, pkgutil, sys
        from repro.campaign import experiment_names, get_experiment
        from repro.sim.experiments import defs
        numpy_after = {}
        for name in experiment_names():
            assert get_experiment(name).jobs()
            numpy_after[name] = "numpy" in sys.modules
        for module in pkgutil.iter_modules(defs.__path__, "defs."):
            importlib.import_module("repro.sim.experiments." + module.name)
            numpy_after[module.name] = "numpy" in sys.modules
        print(json.dumps(numpy_after))
    """)
    from repro.campaign import experiment_names

    definitions = {"defs.degradation", "defs.figure5", "defs.figure6",
                   "defs.resize_mechanism", "defs.table1", "defs.table2",
                   "defs.table4", "defs.table5"}
    assert loaded == dict.fromkeys([*experiment_names(), *definitions], False)


class TestResumeOfACompleteStore:
    """``sweep --resume`` of a finished campaign is a pure cache hit: it
    prints the cold run's stdout and imports no simulator."""

    REFS = "20000"

    @pytest.fixture(scope="class")
    def stores(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("stores")
        cold = {}
        for name in ("table1", "figure5", "table2"):
            done = python("-m", "repro", *self.sweep(name, root), scale="0.02")
            assert "0 cached" in done.stderr
            cold[name] = done.stdout
        return root, cold

    def sweep(self, name: str, root: Path, store: str | None = None) -> list[str]:
        return ["sweep", name, "--jobs", "2", "--refs", self.REFS,
                "--out", str(root / (store or name))]

    @pytest.mark.parametrize("name", ["table1", "figure5", "table2"])
    def test_resume_imports_no_simulator(self, stores, name):
        root, cold = stores
        done = python("-c", WATCHED_CLI, *self.sweep(name, root), "--resume",
                      scale="0.02")
        assert done.stdout == cold[name]
        assert "(0 run, " in done.stderr
        assert json.loads(done.stderr.splitlines()[-1]) == []

    def test_table5_resumes_from_table2s_store(self, stores):
        """Table 5's jobs are three of Table 2's: all cached, and the
        power model assembles them without the simulator."""
        root, _cold = stores
        done = python("-c", WATCHED_CLI, *self.sweep("table5", root, "table2"),
                      "--resume", scale="0.02")
        assert done.stdout.startswith("Table 5")
        assert "3 jobs (0 run, 3 cached" in done.stderr
        assert json.loads(done.stderr.splitlines()[-1]) == []


def test_forked_workers_inherit_the_experiment_module(tmp_path):
    # Each job reports whether its worker already held the experiment
    # module; the patched executor imports nothing itself.
    loaded = run_code("""
        import json, sys
        from repro.campaign import ResultStore, get_experiment, run_campaign
        from repro.campaign import worker

        MODULE = "repro.sim.experiments.table1"

        def execute(payload):
            return {"result": MODULE in sys.modules, "elapsed": 0.0}

        worker.execute_spec = execute
        worker.usable_cpus = lambda: 2
        specs = get_experiment("table1").jobs(refs=20000)[:2]
        before = MODULE in sys.modules
        outcome = run_campaign(ResultStore(sys.argv[1]), specs,
                               campaign="table1", jobs=2, resume=False)
        print(json.dumps({"before": before, "workers": outcome.workers,
                          "inherited": outcome.results_in_order()}))
    """, str(tmp_path / "store"))
    assert loaded == {"before": False, "workers": 2,
                      "inherited": [True, True]}


FACADES = [repro, repro.campaign, repro.molecular, repro.power, repro.sim,
           repro.sim.experiments]


@pytest.mark.parametrize("facade", FACADES, ids=lambda m: m.__name__)
class TestLazyFacades:
    def test_every_export_resolves_and_is_listed(self, facade):
        listing = dir(facade)
        for name in facade.__all__:
            namespace: dict = {}
            exec(f"from {facade.__name__} import {name}", namespace)
            assert namespace[name] is getattr(facade, name)
            assert name in listing

    def test_unknown_name_raises_attribute_error(self, facade):
        with pytest.raises(AttributeError, match="no_such_name"):
            facade.no_such_name  # noqa: B018
        with pytest.raises(ImportError):
            exec(f"from {facade.__name__} import no_such_name", {})


def test_facade_exports_are_the_source_objects():
    from repro.molecular.cache import MolecularCache
    from repro.sim.cmp import CMPRunner
    from repro.sim.experiments.defs.figure5 import Figure5Result
    from repro.sim.experiments.figure5 import Figure5Result as reexported

    assert repro.MolecularCache is MolecularCache
    assert repro.sim.CMPRunner is repro.CMPRunner is CMPRunner
    assert repro.sim.experiments.Figure5Result is Figure5Result is reexported
    assert repro.__version__ == "1.0.0"
