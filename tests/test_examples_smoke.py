"""Smoke tests: every example script runs to completion (scaled down).

The examples are part of the public deliverable; these tests execute each
one in-process with reduced reference counts so a refactor that breaks an
example fails CI, without multi-minute runtimes.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name: str, monkeypatch, capsys, **attrs) -> str:
    """Execute an example's main() with shrunken module-level constants."""
    path = EXAMPLES / name
    namespace = runpy.run_path(str(path), run_name="not_main")
    for key, value in attrs.items():
        if key in namespace:
            namespace[key] = value
    # re-bind the module-level constants the example's main() reads
    import types

    module = types.ModuleType("example_under_test")
    module.__dict__.update(namespace)
    for key, value in attrs.items():
        setattr(module, key, value)
    module.__dict__["main"].__globals__.update(
        {k: v for k, v in attrs.items() if k in module.__dict__["main"].__globals__}
    )
    module.main()
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, monkeypatch, capsys):
        out = run_example("quickstart.py", monkeypatch, capsys)
        assert "Final partition report" in out
        assert "resize events" in out

    def test_multiprogram_qos(self, monkeypatch, capsys):
        out = run_example(
            "multiprogram_qos.py", monkeypatch, capsys, REFS=40_000
        )
        assert "average deviation" in out
        assert "Partition sizes" in out

    def test_resize_policies(self, monkeypatch, capsys):
        out = run_example(
            "resize_policies.py", monkeypatch, capsys, REFS=75_000, WINDOW=25_000
        )
        assert "Phase change" in out
        assert "constant" in out and "global_adaptive" in out

    def test_power_study(self, monkeypatch, capsys):
        out = run_example("power_study.py", monkeypatch, capsys)
        assert "Traditional 4-ported caches" in out
        assert "worst-case power" in out
