"""Input surfaces never end in a traceback.

Every place the toolkit reads text or JSON a person (or a crash) could
have written — CLI sizes, the ``--worker-chaos`` and ``--faults``
grammars, Dinero traces, a campaign manifest, a recorded trace, the
result, lease and quarantine records of a campaign store — must either
return a value or raise :class:`ConfigError`, which the CLI prints as
``error: ...`` with exit 2. The ``@example`` cases are defects this
suite was written against.
"""

from __future__ import annotations

import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.campaign import (
    JobSpec,
    LeaseConfig,
    LeaseManager,
    ResultStore,
    get_experiment,
)
from repro.campaign.registry import stored_payload_problem
from repro.campaign.worker import CampaignOutcome
from repro.cli import main, parse_size
from repro.common.errors import ConfigError
from repro.faults import FaultPlan, WorkerChaos
from repro.sim.cmp import CMPRunConfig
from repro.telemetry import EVENT_TYPES
from repro.trace.container import Trace
from repro.trace.dinero import read_dinero
from repro.workloads import get_model
from repro.workloads.model import APP_SPACE_BYTES

FAST = settings(max_examples=150, deadline=None)
#: The file-based surfaces run the CLI per example; fewer keep tier-1 fast.
FILES = settings(max_examples=60, deadline=None)

numbers = st.one_of(
    st.integers(),
    st.floats(),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-0", "0x10", "1_0"]),
).map(str)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)


def returns_or_config_error(call, *args):
    """``call(*args)``, or None when it raised ConfigError."""
    try:
        return call(*args)
    except ConfigError:
        return None


def run_cli(argv: list[str]) -> str:
    """Run the CLI; it must exit 0 or exit 2 with an ``error:`` line,
    which is returned."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 2), (code, err)
    if code == 2:
        assert err.startswith("error: "), err
    return err if code == 2 else ""


# ------------------------------------------------------------------ grammars


@FAST
@given(st.one_of(st.text(max_size=16), st.tuples(numbers, st.sampled_from(
    ["", "B", "K", "KB", "M", "MB", "GB", " kb"])).map("".join)))
@example("inf")
@example("1e400KB")
def test_parse_size(text):
    size = returns_or_config_error(parse_size, text)
    assert size is None or (isinstance(size, int) and size > 0)


directives = st.one_of(
    st.text(max_size=12),
    st.tuples(
        st.sampled_from(["kill", "hang", "corrupt", "poison", "explode"]),
        numbers,
        st.one_of(st.just(""), numbers.map(lambda n: ":" + n)),
    ).map(lambda parts: f"{parts[0]}@{parts[1]}{parts[2]}"),
)


@FAST
@given(st.lists(directives, max_size=3).map(",".join))
@example("hang@1:nan")
@example("hang@1:inf")
@example("hang@1:1e400")
def test_worker_chaos_grammar(text):
    chaos = returns_or_config_error(WorkerChaos.parse, text)
    if chaos is not None and chaos.hang_at is not None:
        # time.sleep must accept it: finite, positive and not huge.
        assert math.isfinite(chaos.hang_seconds) and chaos.hang_seconds > 0


@FAST
@given(numbers)
@example("nan")
@example("inf")
@example("1e400")
def test_cmp_miss_penalty(text):
    """``simulate --miss-penalty`` reads a float; the run config takes
    only a stall that keeps the issue times ordered and finite."""
    try:
        penalty = float(text)
    except ValueError:
        return  # argparse refuses it before the config sees it
    config = returns_or_config_error(CMPRunConfig, penalty)
    if config is not None:
        assert math.isfinite(config.miss_penalty) and config.miss_penalty >= 0


@FAST
@given(st.integers(min_value=-(1 << 70), max_value=1 << 70))
@example(2**24)
@example(2**23)
@example(-1)
@example(2**31)
@example(2**40)
def test_application_asid(asid):
    """A generated trace stays inside its application's address space;
    an ASID that has none in int64 addresses, or that a trace's int32
    column cannot hold, is refused."""
    trace = returns_or_config_error(get_model("art").generate, 10, 1, asid)
    if trace is not None:
        low = asid * APP_SPACE_BYTES
        assert low <= int(trace.addresses.min())
        assert int(trace.addresses.max()) < low + APP_SPACE_BYTES
    labelled = returns_or_config_error(Trace, [0], asid)
    if labelled is not None:
        assert labelled.asids.tolist() == [asid]


@FAST
@given(st.one_of(
    st.text(max_size=24),
    st.lists(
        st.tuples(
            st.sampled_from(["hard", "transient", "degraded", "boom"]),
            numbers,
            st.sampled_from(["m", "t", "x"]),
            numbers,
            st.one_of(st.just(""), numbers.map(lambda n: "+" + n)),
        ).map(lambda p: f"{p[0]}@{p[1]}:{p[2]}{p[3]}{p[4]}"),
        max_size=3,
    ).map(",".join),
))
def test_fault_plan_grammar(text):
    returns_or_config_error(FaultPlan.parse, text)


# --------------------------------------------------------------------- files


din_lines = st.one_of(
    st.text(max_size=12),
    st.tuples(
        st.sampled_from(["0", "1", "2", "7", "x", "-1"]),
        st.one_of(
            st.integers(min_value=-(1 << 70), max_value=1 << 70).map(
                lambda n: f"{'-' if n < 0 else ''}{abs(n):x}"
            ),
            st.text(max_size=6),
        ),
    ).map(" ".join),
)


@FAST
@given(st.one_of(
    st.lists(din_lines, max_size=5).map(lambda lines: "\n".join(lines).encode()),
    st.binary(max_size=24),
))
@example(b"0 40\n0 8000000000000000\n")
@example(b"0 -10\n")
@example(b"0 4\xe90\n")
def test_dinero_reader(content):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "t.din"
        path.write_bytes(content)
        trace = returns_or_config_error(read_dinero, path)
        if trace is not None:
            assert all(0 <= a < 1 << 63 for a in trace.addresses.tolist())


manifests = st.one_of(
    json_values,
    st.fixed_dictionaries({
        "version": st.just(1),
        "campaign": json_values,
        "jobs": st.one_of(json_values, st.lists(
            st.fixed_dictionaries({"hash": json_values, "spec": st.one_of(
                json_values,
                st.fixed_dictionaries({
                    "experiment": st.sampled_from(["table1", "nope", ""]),
                    "job": json_values,
                    "params": json_values,
                    "seed": json_values,
                }),
            )}),
            max_size=3,
        )),
    }),
)


@FILES
@given(manifests)
@example([1, 2])
@example({"version": 1, "campaign": "t", "jobs": [{"hash": "ab"}]})
def test_worker_manifest(manifest):
    with tempfile.TemporaryDirectory() as directory:
        store = Path(directory)
        (store / "manifest.json").write_text(json.dumps(manifest))
        err = run_cli(["worker", str(store)])
        # No manifest these strategies write is well-formed, and every
        # complaint about one names the manifest.
        assert "manifest" in err, err


def typed(annotation: str):
    """Values of a field's own type, extremes included."""
    if annotation.endswith(" | None"):
        return st.none() | typed(annotation[: -len(" | None")])
    if annotation.startswith("list["):
        return st.lists(typed(annotation[len("list["):-1]), max_size=3)
    return {
        "int": st.integers(),
        "float": st.floats() | st.integers(),
        "str": st.text(max_size=8),
        "bool": st.booleans(),
    }[annotation]


def telemetry_args(kind: str):
    """``args`` with the fields of ``kind``: values of the right type or
    arbitrary JSON, and region tables of right- or wrong-typed regions."""
    cls = EVENT_TYPES[kind]
    region = st.one_of(json_values, st.fixed_dictionaries({
        name: typed(annotation) | json_values
        for name, annotation in cls.region_fields.items()
    }))
    regions = st.dictionaries(
        st.sampled_from(["0", "1", "x"]), region, max_size=2
    )
    return st.fixed_dictionaries({
        spec.name: regions if spec.name == "regions"
        else typed(spec.type) | json_values
        for spec in fields(cls)
    })


trace_events = st.fixed_dictionaries(
    {
        "ph": st.sampled_from(["X", "i", "C", "M", "?"]),
        "cat": st.sampled_from(["telemetry", "job", "queue"]),
        "name": st.sampled_from(sorted(EVENT_TYPES)),
        "ts": st.one_of(st.integers(), st.floats()),
    },
    optional={"dur": json_values, "tid": json_values},
).flatmap(lambda event: st.one_of(json_values, telemetry_args(event["name"]))
          .map(lambda args: {**event, "args": args}))

traces = st.one_of(
    json_values.map(json.dumps),
    st.lists(trace_events, max_size=4).map(
        lambda events: json.dumps({"traceEvents": events})
    ),
    st.text(max_size=24),
)


@FILES
@given(traces)
@example('{"kind": "run_meta"}\n{"kind": "epoch_rollover"}\n')
def test_inspect_trace(content):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "trace.json"
        path.write_text(content)
        run_cli(["inspect", str(path)])


# ------------------------------------------------------------ campaign store


#: Every job of each kind of target a resume assembles: the grids, and
#: two that read Table 2's molecular cells (Table 2's first is not one).
RESUMED = {
    name: get_experiment(name).jobs(refs=1000)
    for name in ("table1", "figure5", "degradation", "resize-mechanism",
                 "table2", "figure6", "table4")
}
SPEC = RESUMED["table1"][0]
JOB = SPEC.content_hash()
#: The lease protocol's clock in the store tests, and its ttl.
NOW, TTL = 1000.0, 30.0

times = st.one_of(st.floats(), st.integers(), json_values)
store_records = st.one_of(
    json_values,
    st.fixed_dictionaries(
        {"result": json_values},
        optional={
            "spec": st.one_of(json_values, st.just(SPEC.as_payload())),
            "elapsed": times,
            "attempts": st.one_of(st.integers(), json_values),
        },
    ),
    st.fixed_dictionaries(
        {"history": st.lists(st.one_of(json_values, st.fixed_dictionaries(
            {"owner": json_values, "error": json_values})), max_size=2)},
        optional={
            "job": st.one_of(st.just(JOB), json_values),
            "attempts": st.one_of(st.integers(), json_values),
        },
    ),
)
store_files = st.one_of(store_records.map(json.dumps), st.text(max_size=24))


def envelope(spec: JobSpec, result) -> str:
    """A well-formed stored record of ``spec`` holding ``result``."""
    return json.dumps(
        {"spec": spec.as_payload(), "result": result, "elapsed": 0,
         "attempts": 1}
    )


LEAVES = {
    "number": st.floats() | st.integers(),
    "integer": st.integers(),
    "string": st.text(max_size=8),
}


def shaped(shape, wild: bool):
    """Values of a payload ``shape``; with ``wild``, any part of one may
    instead be arbitrary JSON."""
    if isinstance(shape, dict):
        right = st.fixed_dictionaries(
            {key: shaped(inner, wild) for key, inner in shape.items()}
        )
    elif shape.endswith(" or null"):
        right = st.none() | LEAVES[shape.removesuffix(" or null")]
    else:
        right = LEAVES[shape]
    return right | json_values if wild else right


def plainest(shape):
    """The plainest payload of ``shape``: zeros, empty strings, nulls."""
    if isinstance(shape, dict):
        return {key: plainest(inner) for key, inner in shape.items()}
    return {"number": 0.0, "integer": 0, "string": ""}.get(shape)


def stored_first_job(name: str):
    """``(name, content)``: the first job's stored file of a resume."""
    spec = RESUMED[name][0]
    shape = get_experiment(name).payload_shape(spec.params_dict)
    results = shaped(shape, wild=False) | shaped(shape, wild=True)
    contents = store_files | results.map(lambda result: envelope(spec, result))
    return st.tuples(st.just(name), contents)


@FILES
@given(st.sampled_from(sorted(RESUMED)).flatmap(stored_first_job))
@example(("table1", "[1]"))
@example(("table1", '{"spec": {}, "result": [1], "elapsed": 0, "attempts": 1}'))
@example(("table1", envelope(SPEC, [1])))
@example(("table1", envelope(SPEC, {"rates": [1]})))
@example(("table1", envelope(SPEC, {})))
@example(("table1", envelope(SPEC, {"rates": {}})))
@example(("table2", envelope(RESUMED["table2"][0], {"deviation": 0.1, "rates": 5})))
@example(("figure6", envelope(RESUMED["figure6"][0], {"deviation": 0.1, "rates": {}})))
def test_stored_result(stored):
    """A resume moves the first job's stored file aside, so the job
    re-runs, or assembles and prints what it holds beside the other
    jobs' (here the plainest) payloads."""
    name, content = stored
    target, specs = get_experiment(name), RESUMED[name]
    job_hash = specs[0].content_hash()
    with tempfile.TemporaryDirectory() as directory:
        store = ResultStore(directory)
        (store.results_dir / f"{job_hash}.json").write_text(content)
        record = returns_or_config_error(
            store.load, job_hash, stored_payload_problem
        )
        if record is None:
            assert not store.has(job_hash)  # moved aside: the job re-runs
            return
        assert JobSpec.from_payload(record["spec"]) == specs[0]
        assert type(record["elapsed"]) in (int, float)
        assert type(record["attempts"]) is int
        payloads = [record["result"]] + [
            plainest(target.payload_shape(spec.params_dict))
            for spec in specs[1:]
        ]
        text = target.assemble_results(specs, payloads).format()
        assert isinstance(text, str)


@FILES
@given(store_files)
@example("[1]")
@example("{torn")
def test_quarantine_record(content):
    with tempfile.TemporaryDirectory() as directory:
        manager = LeaseManager(ResultStore(directory))
        (manager.quarantine_dir / f"{JOB}.json").write_text(content)
        record = manager.quarantine_record(JOB)
        assert manager.quarantined() == {JOB}  # any record parks the job
        report = CampaignOutcome("t", [SPEC], quarantined=[record])
        assert f"job {JOB[:12]}" in report.degraded_report()


def holds_job(content: str) -> bool:
    """Whether ``content`` is a live lease record: one that may keep its
    job from every other worker until its heartbeat is ``TTL`` old."""
    try:
        record = json.loads(content)
    except ValueError:
        return False
    return (
        isinstance(record, dict)
        and record.get("state") == "active"
        and isinstance(record.get("owner"), str)
        and type(record.get("token")) is int
        and all(
            type(record.get(key)) in (int, float) and math.isfinite(record[key])
            for key in ("acquired", "heartbeat")
        )
        and isinstance(record.get("history"), list)
        and all(isinstance(entry, dict) for entry in record["history"])
        and NOW - record["heartbeat"] <= TTL
    )


lease_records = st.one_of(
    json_values,
    st.fixed_dictionaries({
        "state": st.one_of(st.sampled_from(["active", "open"]), json_values),
        "owner": st.one_of(st.text(max_size=4), json_values),
        "token": st.one_of(st.integers(), json_values),
        "acquired": times,
        "heartbeat": st.one_of(times, st.just("soon")),
        "history": st.one_of(json_values, st.lists(st.one_of(
            json_values, st.fixed_dictionaries({"owner": json_values})),
            max_size=2)),
    }),
)
lease_files = st.one_of(lease_records.map(json.dumps), st.text(max_size=24))


@FILES
@given(lease_files, st.booleans())
@example("{torn", False)
@example("[1]", False)
@example('{"state": "active", "owner": "x", "token": 1, "acquired": 0, '
         '"heartbeat": "soon", "history": []}', False)
@example("{torn", True)
def test_lease_record(content, as_claim):
    """A lease record (or the claim file of an expired one) holding
    ``content``: one worker pass — acquire, else take over, else
    acquire — gets the job unless a live lease holds it or the takeover
    parked it."""
    with tempfile.TemporaryDirectory() as directory:
        manager = LeaseManager(
            ResultStore(directory), owner="w",
            config=LeaseConfig(ttl=TTL), clock=lambda: NOW,
        )
        path = manager.leases_dir / f"{JOB}.json"
        if as_claim:
            dead = {"state": "active", "owner": "dead", "token": 1,
                    "acquired": 0.0, "heartbeat": 0.0, "history": []}
            path.write_text(json.dumps(dead))
            path = manager._claim_path(JOB, dead)
        path.write_text(content)
        lease = (
            manager.try_acquire(JOB)
            or manager.try_reclaim(JOB)
            or manager.try_acquire(JOB)
        )
        assert (
            lease is not None
            or holds_job(content)
            or manager.quarantine_record(JOB) is not None
        )
