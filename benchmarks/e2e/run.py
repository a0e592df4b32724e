"""End-to-end benchmark: the paper experiments, trace streaming and sweeps.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed S] [--seconds T]
        [--runs N] [--trace 0|1] [--trace-dir DIR] [--out RESULT.json]

Runs each workload named in ``BENCHMARK.json`` (all four by default) as
a closed loop: one client process, one run at a time, each run a fresh
``workload.py`` child with empty caches. A workload runs ``--runs``
times (default 1), then again while another run still fits in
``--seconds``. ``setup_s`` is the median of at least five set-ups.
Every output is checked against ``golden.json``.

``--trace 0`` prints every end-to-end metric by name with its unit,
median, quartiles and run count; ``--trace 1`` runs the traced
breakdown instead and prints every per-layer metric. ``--trace-dir``
also writes ``layers.json`` and a Perfetto-loadable ``spans.json``
there, with the tracing overhead measured against one untraced run. The last
line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (keyed ``<workload>.<metric>`` when more
than one workload ran). ``--out`` saves the full result, host
fingerprint included, for ``to_ledger.py``.

The benchmark reports host time and simulated results only; it never
computes a speed-up, so no speed-up claim can come from it.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

WORKLOAD = Path(__file__).with_name("workload.py")

#: A child that runs longer than this is killed and the benchmark fails.
CHILD_TIMEOUT_S = 170.0

#: Checked metrics reported beside BENCHMARK.json's: they are 0 on a
#: correct run (error_rate) or exist for table1 only (paper_abs_err), so
#: they cannot carry a relative regression bound.
CHECKED_METRICS = {
    "error_rate": ("fraction", "lower"),
    "paper_abs_err": ("fraction", "lower"),
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def preflight() -> None:
    for knob in spec.AMBIENT_KNOBS:
        if knob in os.environ:
            raise BenchError(
                f"{knob} is set; unset it, it changes workload size or adds audit cost"
            )
    if not (spec.SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro sources under {spec.SRC}")


def run_child(args: list[str]) -> tuple[dict, float]:
    """One ``workload.py`` process; returns its JSON record and wall time.

    The child runs in its own session so a timeout or interrupt kills it
    together with anything it started (the sweep's CLI and workers).
    """
    env = dict(os.environ, PYTHONPATH=str(spec.SRC))
    # time.monotonic is the clock repro.common.clock.tick() reads.
    t0 = time.monotonic()
    child = subprocess.Popen(
        [sys.executable, str(WORKLOAD), *args, "--t0", repr(t0)],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    elapsed = time.monotonic() - t0
    if child.returncode != 0:
        raise BenchError(f"workload.py {' '.join(args)} exited {child.returncode}")
    return json.loads(stdout.strip().splitlines()[-1]), elapsed


def summarise(samples: list[float], unit: str, better: str) -> dict:
    """Median and quartiles, as ``statistics.quantiles(n=4)`` gives them."""
    median = statistics.median(samples)
    q1, q3 = (
        statistics.quantiles(samples, n=4)[::2] if len(samples) > 1 else (median, median)
    )
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "n": len(samples),
        "unit": unit,
        "better": better,
        "samples": samples,
    }


def measure_workload(name: str, seed: int, runs: int, seconds: float) -> dict:
    """Untraced runs of one workload, then set-ups up to SETUP_SAMPLES."""
    records = []
    started = time.monotonic()
    while True:
        record, elapsed = run_child([name, "--seed", str(seed)])
        records.append(record)
        spent = time.monotonic() - started
        if len(records) >= runs and spent + elapsed > seconds:
            break
    setups = [value for record in records for value in record["setup_s"]]
    while len(setups) < spec.SETUP_SAMPLES:
        record, _ = run_child([name, "--seed", str(seed), "--setup-only"])
        setups += record["setup_s"]

    samples = {
        "wall_s": [r["wall_s"] for r in records],
        "refs_per_s": [r["refs"] / r["wall_s"] for r in records],
        "setup_s": setups,
        "peak_rss_mb": [r["peak_rss_mb"] for r in records],
        "sim_miss_rate": [r["sim_miss_rate"] for r in records],
        "error_rate": [r["failed"] / r["attempted"] for r in records],
    }
    if "paper_abs_err" in records[0]:
        samples["paper_abs_err"] = [r["paper_abs_err"] for r in records]
    units = {m["name"]: (m["unit"], m["better"]) for m in spec.load_benchmark()["end_to_end"]}
    units.update(CHECKED_METRICS)
    return {
        "correct": all(r["failed"] == 0 and r["output_ok"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "runs": len(records),
        "metrics": {
            metric: summarise(values, *units[metric]) for metric, values in samples.items()
        },
    }


def trace_workload(name: str, seed: int, trace_dir: Path | None) -> dict:
    """The traced run; with ``trace_dir``, also its spans and overhead.

    The overhead baseline is one untraced run, made only for the
    ``layers.json`` artifact so a plain ``--trace 1`` stays short.
    """
    args = [name, "--seed", str(seed), "--trace"]
    untraced = None
    if trace_dir is not None:
        args += ["--spans-out", str(workload_spans(trace_dir, name))]
        untraced, _ = run_child([name, "--seed", str(seed)])
    traced, _ = run_child(args)
    return traced_result(traced, untraced)


def traced_result(traced: dict, untraced: dict | None = None) -> dict:
    """A workload's layer metrics, and the tracing overhead they cost."""
    units = {m["name"]: m["unit"] for m in spec.load_benchmark()["per_layer"]}
    checked = [traced] if untraced is None else [traced, untraced]
    result = {
        "correct": all(r["failed"] == 0 and r["output_ok"] for r in checked),
        "attempted": traced["attempted"],
        "failed": traced["failed"],
        "runs": 1,
        "metrics": {
            metric: {"median": value, "unit": units[metric]}
            for metric, value in traced["layers"].items()
        },
    }
    if untraced is not None:
        result["overhead"] = {
            "traced_s": traced["traced_s"],
            "untraced_wall_s": untraced["wall_s"],
            "frac": traced["traced_s"] / untraced["wall_s"] - 1,
        }
    return result


def workload_spans(trace_dir: Path, name: str) -> Path:
    """Where one traced child writes its span track."""
    return trace_dir / f"spans-{name}.json"


def git_sha() -> str:
    """HEAD of the repository this benchmark sits in, or ``unknown``."""
    try:
        done = subprocess.run(
            ["git", "-C", str(spec.ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != spec.ROOT:
        return "unknown"
    return lines[1]


def fingerprint(seed: int) -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "unknown"
    return {
        "nproc": spec.nproc(),
        "python": platform.python_version(),
        "numpy": numpy,
        "git_sha": git_sha(),
        "jobs": spec.sweep_jobs(),
        "seed": seed,
        "input_seed": spec.input_seed(seed),
        "load_start": os.getloadavg()[0],
    }


def warn_if_loaded(load: float) -> None:
    if load > spec.nproc():
        print(
            f"warning: 1-minute load average {load:.2f} exceeds nproc "
            f"{spec.nproc()}; timings are noisy",
            file=sys.stderr,
        )


def write_trace_dir(trace_dir: Path, host: dict, results: dict) -> None:
    """``layers.json`` plus one ``spans.json`` with a track per workload."""
    events = []
    for name in results:
        spans = workload_spans(trace_dir, name)
        events += json.loads(spans.read_text(encoding="utf-8"))
        spans.unlink()
    (trace_dir / "spans.json").write_text(
        json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}), encoding="utf-8"
    )
    (trace_dir / "layers.json").write_text(
        json.dumps({"fingerprint": host, "workloads": results}, indent=1),
        encoding="utf-8",
    )


def print_report(results: dict) -> None:
    for name, result in results.items():
        for metric, summary in result["metrics"].items():
            line = f"{name:<10} {metric:<28} {summary['median']:>14.6g} {summary['unit']:<9}"
            if "q1" in summary:
                line += f" q1 {summary['q1']:.6g}  q3 {summary['q3']:.6g}  n={summary['n']}"
            print(line)
        if "overhead" in result:
            overhead = result["overhead"]
            print(
                f"{name:<10} tracing overhead: {overhead['traced_s']:.3f} s traced "
                f"vs {overhead['untraced_wall_s']:.3f} s untraced "
                f"({overhead['frac']:+.1%})"
            )


def result_line(results: dict, metric_names: list[str]) -> dict:
    """The last stdout line: contract metrics, named per workload if several."""
    single = len(results) == 1
    metrics = {}
    for name, result in results.items():
        for metric in metric_names:
            summary = result["metrics"][metric]
            key = metric if single else f"{name}.{metric}"
            metrics[key] = {"value": summary["median"], "unit": summary["unit"]}
    return {
        "correct": all(result["correct"] for result in results.values()),
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": metrics,
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=spec.SIZES, default=None,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep adding runs while the next one fits in this budget")
    parser.add_argument("--runs", type=int, default=1, help="minimum runs per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", type=Path, default=None,
                        help="with --trace 1, write layers.json and spans.json here")
    parser.add_argument("--out", type=Path, default=None, help="save the full result")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    if args.trace_dir is not None and not args.trace:
        parser.error("--trace-dir needs --trace 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        preflight()
        names = [args.workload] if args.workload else spec.workload_names()
        host = fingerprint(args.seed)
        warn_if_loaded(host["load_start"])
        seed = host["input_seed"]
        if args.trace_dir is not None:
            args.trace_dir.mkdir(parents=True, exist_ok=True)
        results = {}
        for name in names:
            if args.trace:
                results[name] = trace_workload(name, seed, args.trace_dir)
            else:
                results[name] = measure_workload(name, seed, args.runs, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    host["load_end"] = os.getloadavg()[0]
    warn_if_loaded(host["load_end"])

    bench = spec.load_benchmark()
    table = bench["per_layer"] if args.trace else bench["end_to_end"]
    if args.trace_dir is not None:
        write_trace_dir(args.trace_dir, host, results)
    print_report(results)
    if args.out is not None:
        args.out.write_text(
            json.dumps({"fingerprint": host, "workloads": results}, indent=1),
            encoding="utf-8",
        )
    line = result_line(results, [metric["name"] for metric in table])
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
