"""Input surfaces never end in a traceback.

Every place the toolkit reads text or JSON a person (or a crash) could
have written — CLI sizes, the ``--worker-chaos`` and ``--faults``
grammars, Dinero traces, a campaign manifest, a recorded trace — must
either return a value or raise :class:`ConfigError`, which the CLI
prints as ``error: ...`` with exit 2. The ``@example`` cases are defects
this suite was written against.
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

from repro.cli import main, parse_size
from repro.common.errors import ConfigError
from repro.faults import FaultPlan, WorkerChaos
from repro.telemetry import EVENT_TYPES
from repro.trace.dinero import read_dinero

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
