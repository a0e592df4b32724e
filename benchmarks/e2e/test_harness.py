"""Self-test of the end-to-end benchmark harness (not part of tier 1).

    PYTHONPATH=src python -m pytest benchmarks/e2e

Runs the harness's own functions at small reference counts passed as
arguments; the real sizes are ``spec.SIZES``.
"""

from __future__ import annotations

import json
import re

import pytest

import run
import spec
from layers import (
    Breakdown,
    IssueRecorder,
    ReplayMismatch,
    job_cache,
    job_config,
    replay_cell,
    trace_workload,
)
from make_golden import golden_cmp, golden_trace_mix
from repro.common.errors import ConfigError
from repro.common.rng import XorShift64
from repro.prof.ledger import validate_entry
from repro.prof.spans import SpanRecorder, load_trace
from repro.sim.cmp import CMPRunner
from repro.sim.experiments.common import build_traces
from repro.sim.experiments.figure5 import APPS
from workload import check_figure5, measure, prepare_figure5

SMALL = {"figure5": 10_000, "table1": 10_000, "trace-mix": 3_000, "sweep": 10_000}
SEED = 1


@pytest.fixture(scope="module")
def small_golden() -> dict:
    """Golden digests for the small sizes, made the way make_golden makes them."""
    return {
        "figure5": golden_cmp("figure5", SEED, SMALL["figure5"]),
        "table1": golden_cmp("table1", SEED, SMALL["table1"]),
        "trace-mix": golden_trace_mix(SEED, SMALL["trace-mix"]),
        "sweep": golden_cmp("figure5", SEED, SMALL["sweep"], trailing="\n"),
    }


def ledger_slug_ok(slug: str) -> bool:
    entry = {"schema": 1, "metric": slug, "value": 1.0, "unit": "s",
             "direction": "lower", "scale": 1.0, "sha": "x", "timestamp": 0.0}
    try:
        validate_entry(entry)
    except ConfigError:
        return False
    return True


def test_names_are_plain_and_ledger_slugs():
    bench = spec.load_benchmark()
    assert spec.workload_names() == list(spec.SIZES)
    metrics = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    metrics += list(run.CHECKED_METRICS)
    assert len(set(metrics)) == len(metrics)
    for name in spec.workload_names() + metrics:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    for workload in spec.workload_names():
        for metric in metrics:
            assert ledger_slug_ok(f"{workload}.{metric}"), (workload, metric)
    assert not ledger_slug_ok("Bad Slug")


def test_tampered_golden_cell_fails_one_of_24(small_golden):
    golden = json.loads(json.dumps(small_golden["figure5"]))
    cell = "Molecular (Randy)@4MB"
    golden["ops"][cell] = "0" * 16
    checked = check_figure5(prepare_figure5(SEED, SMALL["figure5"])(), golden)
    assert (checked.failed, checked.attempted) == (1, 24)
    assert checked.failed / checked.attempted == pytest.approx(1 / 24)
    untouched = check_figure5(prepare_figure5(SEED, SMALL["figure5"])(), small_golden["figure5"])
    assert untouched.failed == 0 and untouched.output_ok


def test_replay_on_reseeded_cache_trips_the_assertion():
    params = {"kind": "molecular", "parameter": "random", "size_mb": 1, "graph": "A"}
    traces = build_traces(list(APPS), 10_000, SEED)
    recorder = IssueRecorder(job_cache("figure5", params))
    CMPRunner(recorder, job_config(traces)).run(traces)
    expected = recorder.cache.stats.as_dict()
    breakdown = Breakdown("figure5", SpanRecorder(), tid=1)

    replay_cell(breakdown, lambda: job_cache("figure5", params), recorder, "molecular", expected)

    def reseeded():
        cache = job_cache("figure5", params)
        cache.rng = XorShift64(12345)
        return cache

    with pytest.raises(ReplayMismatch):
        replay_cell(breakdown, reseeded, recorder, "molecular", expected)


def test_layers_json_has_every_layer_metric(tmp_path, small_golden):
    results = {}
    for name in spec.workload_names():
        refs, golden = SMALL[name], small_golden[name]
        untraced = measure(name, SEED, refs, 0.0, golden)
        assert untraced["failed"] == 0 and untraced["output_ok"], name
        traced = trace_workload(
            name, SEED, refs, golden, str(run.workload_spans(tmp_path, name))
        )
        assert traced["failed"] == 0 and traced["output_ok"], name
        results[name] = run.traced_result(traced, untraced)
    run.write_trace_dir(tmp_path, run.fingerprint(SEED), results)

    layers = json.loads((tmp_path / "layers.json").read_text())
    for name in spec.workload_names():
        assert set(layers["workloads"][name]["metrics"]) == set(spec.layer_metric_names())
    events = load_trace(tmp_path / "spans.json")
    tracks = {e["args"]["name"] for e in events if e.get("ph") == "M" and e["pid"] == 1}
    assert tracks == set(spec.workload_names())
    assert {e["cat"] for e in events if e.get("ph") == "X" and e["pid"] == 2} >= {"job", "store"}
