"""One run of one end-to-end workload, in a fresh interpreter.

    PYTHONPATH=src python benchmarks/e2e/workload.py NAME --seed S \
        [--t0 T] [--setup-only | --trace [--spans-out FILE]]

prints one JSON line and exits. ``run.py`` starts one of these per run,
so every run pays interpreter start-up and imports like a user's
``python -m repro`` does, and caches start empty. ``--t0`` is the
parent's ``time.monotonic()`` just before it started this process; the
set-up time runs from there to the start of the timed call.

Every workload's output is checked against ``golden.json``: one digest
per operation (a ``figure5`` cell, a ``table1`` combination, a
``trace-mix`` application, a ``sweep`` job) plus one for the whole
printed output. ``--seed`` must be one of the golden seeds here;
``run.py`` maps any seed onto them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import spec
from repro.common.clock import tick

#: Campaign summary line the sweep prints on stderr.
_SUMMARY_RE = re.compile(
    r"campaign \S+: (\d+) jobs \((\d+) run, (\d+) cached, (\d+) retried\)"
)


def digest(payload) -> str:
    """Short stable digest of a JSON-serialisable result."""
    return text_digest(json.dumps(payload, sort_keys=True))


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_golden(seed: int, name: str) -> dict:
    """The golden digests of one workload at one input seed."""
    with (Path(__file__).parent / "golden.json").open(encoding="utf-8") as fh:
        golden = json.load(fh)
    if golden["sizes"] != spec.SIZES:
        raise SystemExit(
            "error: golden.json was made for other workload sizes; "
            "regenerate it with benchmarks/e2e/make_golden.py"
        )
    try:
        return golden["seeds"][str(seed)][name]
    except KeyError:
        raise SystemExit(f"error: no golden digests for seed {seed}") from None


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MB (``ru_maxrss`` is in KB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


@dataclass
class Checked:
    """A workload's output compared with its golden digests."""

    attempted: int
    failed: int
    output_ok: bool
    sim_miss_rate: float
    paper_abs_err: float | None = None

    def as_dict(self) -> dict:
        record = {
            "attempted": self.attempted,
            "failed": self.failed,
            "output_ok": self.output_ok,
            "sim_miss_rate": self.sim_miss_rate,
        }
        if self.paper_abs_err is not None:
            record["paper_abs_err"] = self.paper_abs_err
        return record


def failed_ops(ops: dict[str, str], golden_ops: dict[str, str]) -> int:
    """Golden operations whose digest is missing from or differs in ``ops``."""
    return sum(1 for key, value in golden_ops.items() if ops.get(key) != value)


# ----------------------------------------------------------------- figure5


def cell_key(params: dict) -> str:
    """A figure5 cell's name: ``<series label>@<size>MB``."""
    return f"{params['label']}@{params['size_mb']}MB"


def figure5_ops(result) -> dict[str, str]:
    """Per-cell digests of a ``Figure5Result``, as a sweep job stores them."""
    return {
        cell_key({"label": label, "size_mb": size_mb}): digest(
            {"deviation": deviation, "rates": result.miss_rates[(label, size_mb)]}
        )
        for label, deviations in result.series.items()
        for size_mb, deviation in zip(result.sizes_mb, deviations)
    }


def prepare_figure5(seed: int, refs: int):
    import repro.sim.experiments.figure5  # noqa: F401  (import is set-up)
    from repro.campaign.registry import get_experiment

    target = get_experiment("figure5")
    return lambda: target.run_serial(refs=refs, seed=seed, graph="A")


def check_figure5(result, golden: dict) -> Checked:
    ops = figure5_ops(result)
    return Checked(
        attempted=len(golden["ops"]),
        failed=failed_ops(ops, golden["ops"]),
        output_ok=text_digest(result.format()) == golden["output"],
        sim_miss_rate=mean(
            rate for rates in result.miss_rates.values() for rate in rates.values()
        ),
    )


# ------------------------------------------------------------------ table1


def prepare_table1(seed: int, refs: int):
    import repro.sim.experiments.table1  # noqa: F401  (import is set-up)
    from repro.campaign.registry import get_experiment

    target = get_experiment("table1")
    return lambda: target.run_serial(refs=refs, seed=seed)


def check_table1(result, golden: dict) -> Checked:
    from repro.sim.experiments.table1 import PAPER_TABLE1

    ops = {
        "+".join(combo): digest({"rates": rates})
        for combo, rates in result.combos.items()
    }
    return Checked(
        attempted=len(golden["ops"]),
        failed=failed_ops(ops, golden["ops"]),
        output_ok=text_digest(result.format()) == golden["output"],
        sim_miss_rate=mean(
            rate for rates in result.combos.values() for rate in rates.values()
        ),
        paper_abs_err=mean(
            abs(result.combos[combo][name] - paper)
            for combo, rates in PAPER_TABLE1.items()
            for name, paper in rates.items()
        ),
    )


# --------------------------------------------------------------- trace-mix


def trace_mix_traces(seed: int, refs: int):
    """The 12 mixed-suite application traces, ASIDs by suite position."""
    from repro.sim.experiments.common import build_traces
    from repro.workloads.mixed import MIXED_SUITE

    return build_traces(list(MIXED_SUITE), refs, seed)


def trace_mix_stream(traces):
    """The round-robin interleaving ``run_trace`` streams."""
    from repro.trace.interleave import interleave_round_robin

    return interleave_round_robin(
        [traces[asid] for asid in sorted(traces)], quantum=spec.TRACE_MIX_QUANTUM
    )


def trace_mix_cache(apps: int):
    """The paper's 6 MB Randy cache, one tile per application, 25% goal."""
    from repro.molecular.cache import MolecularCache
    from repro.sim.experiments.table2 import molecular_6mb_config
    from repro.workloads.mixed import MIXED_GOAL

    cache = MolecularCache(molecular_6mb_config("randy"), placement="randy")
    for asid in range(apps):
        cache.assign_application(asid, goal=MIXED_GOAL, tile_id=asid)
    return cache


def trace_mix_warmup(trace) -> int:
    from repro.sim.experiments.common import WARMUP_FRACTION

    return int(len(trace) * WARMUP_FRACTION)


def prepare_trace_mix(seed: int, refs: int):
    from repro.sim.driver import run_trace

    traces = trace_mix_traces(seed, refs)
    trace = trace_mix_stream(traces)
    cache = trace_mix_cache(len(traces))
    return lambda: run_trace(cache, trace, warmup_refs=trace_mix_warmup(trace))


def trace_mix_ops(stats) -> dict[str, str]:
    """Per-application digests of the post-warm-up counters."""
    from repro.workloads.mixed import MIXED_SUITE

    return {
        MIXED_SUITE[asid]: digest(
            [c.accesses, c.hits, c.evictions, c.writebacks]
        )
        for asid, c in sorted(stats.per_asid.items())
    }


def check_trace_mix(stats, golden: dict) -> Checked:
    return Checked(
        attempted=len(golden["ops"]),
        failed=failed_ops(trace_mix_ops(stats), golden["ops"]),
        output_ok=digest(stats.as_dict()) == golden["output"],
        sim_miss_rate=mean(c.miss_rate for c in stats.per_asid.values()),
    )


# ------------------------------------------------------------------- sweep


@contextmanager
def sweep_store():
    """A fresh result-store directory inside the checkout, removed after."""
    spec.WORK_DIR.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="sweep-", dir=spec.WORK_DIR))
    try:
        yield root
    finally:
        shutil.rmtree(root, ignore_errors=True)


def sweep_command(store: Path, seed: int, refs: int) -> list[str]:
    return [
        sys.executable, "-m", "repro", "sweep", "figure5",
        "--jobs", str(spec.sweep_jobs()),
        "--refs", str(refs),
        "--seed", str(seed),
        "--out", str(store),
    ]


def run_cli(command: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run one ``repro`` CLI process; returns its wall time and output."""
    env = dict(os.environ, PYTHONPATH=str(spec.SRC))
    start = tick()
    done = subprocess.run(command, capture_output=True, text=True, env=env)
    elapsed = tick() - start
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"error: {' '.join(command[2:5])} exited {done.returncode}")
    return elapsed, done


def sweep_summary(stderr: str) -> dict[str, int]:
    """Job counts from the sweep's ``campaign ...`` summary line."""
    match = _SUMMARY_RE.search(stderr)
    if match is None:
        raise SystemExit("error: the sweep printed no campaign summary")
    jobs, ran, cached, retried = (int(group) for group in match.groups())
    return {
        "jobs": jobs,
        "run": ran,
        "retried": retried,
        "failed": jobs - ran - cached,
    }


def sweep_payloads(store: Path, seed: int, refs: int) -> dict[str, dict]:
    """The job payloads the sweep stored, by cell name."""
    from repro.campaign import ResultStore
    from repro.campaign.registry import get_experiment

    jobs = get_experiment("figure5").jobs(refs=refs, seed=seed, graph="A")
    results = ResultStore(store)
    done = results.completed(job.content_hash() for job in jobs)
    return {
        cell_key(job.params_dict): results.load_result(job.content_hash())
        for job in jobs
        if job.content_hash() in done
    }


def check_sweep(stdout: str, payloads: dict[str, dict], summary, golden) -> Checked:
    """A job fails when its payload differs from golden or it was retried."""
    ops = {key: digest(payload) for key, payload in payloads.items()}
    attempted = len(golden["ops"])
    return Checked(
        attempted=attempted,
        failed=min(attempted, failed_ops(ops, golden["ops"]) + summary["retried"]),
        output_ok=text_digest(stdout) == golden["output"],
        sim_miss_rate=mean(
            rate for payload in payloads.values() for rate in payload["rates"].values()
        ),
    )


def measure_sweep(seed: int, refs: int, golden: dict) -> dict:
    """Cold sweep (timed), then ``SWEEP_RESUMES`` resumed runs (set-up)."""
    with sweep_store() as store:
        command = sweep_command(store, seed, refs)
        wall_s, cold = run_cli(command)
        rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
        resumes = [run_cli(command + ["--resume"]) for _ in range(spec.SWEEP_RESUMES)]
        checked = check_sweep(
            cold.stdout,
            sweep_payloads(store, seed, refs),
            sweep_summary(cold.stderr),
            golden,
        )
    checked.output_ok &= all(done.stdout == cold.stdout for _, done in resumes)
    return dict(
        checked.as_dict(),
        setup_s=[elapsed for elapsed, _ in resumes],
        wall_s=wall_s,
        refs=golden["refs"],
        peak_rss_mb=rss,
    )


# ---------------------------------------------------------------- dispatch

#: name -> (prepare(seed, refs) -> timed call, check(result, golden)).
IN_PROCESS = {
    "figure5": (prepare_figure5, check_figure5),
    "table1": (prepare_table1, check_table1),
    "trace-mix": (prepare_trace_mix, check_trace_mix),
}


def measure(name: str, seed: int, refs: int, t0: float, golden: dict) -> dict:
    """One untraced run: set up, time the workload's call, check it."""
    if name == "sweep":
        return measure_sweep(seed, refs, golden)
    prepare, check = IN_PROCESS[name]
    call = prepare(seed, refs)
    start = tick()
    result = call()
    wall_s = tick() - start
    return dict(
        check(result, golden).as_dict(),
        setup_s=[start - t0],
        wall_s=wall_s,
        refs=golden["refs"],
        peak_rss_mb=peak_rss_mb(),
    )


def measure_setup(name: str, seed: int, refs: int, t0: float) -> dict:
    """Set up as ``measure`` does, then stop before the timed call."""
    IN_PROCESS[name][0](seed, refs)
    return {"setup_s": [tick() - t0]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("name", choices=spec.SIZES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, default=None)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)
    t0 = tick() if args.t0 is None else args.t0

    refs = spec.SIZES[args.name]
    if args.setup_only:
        if args.name == "sweep":
            parser.error("the sweep's set-up is its resumed runs")
        record = measure_setup(args.name, args.seed, refs, t0)
    elif args.trace:
        from layers import trace_workload

        record = trace_workload(
            args.name, args.seed, refs, load_golden(args.seed, args.name), args.spans_out
        )
    else:
        record = measure(args.name, args.seed, refs, t0, load_golden(args.seed, args.name))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
