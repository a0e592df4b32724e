"""Regenerate ``golden.json``, the digests every benchmark run is checked against.

    PYTHONPATH=src python benchmarks/e2e/make_golden.py

For each golden seed and workload it records one digest per operation
(a figure5 cell, a table1 combination, a trace-mix application, a sweep
job), a digest of the whole printed output, and the number of simulated
references issued (``refs_per_s`` divides by it). The CMP cells are run
through the experiment's public pieces one by one, and the printed
output is assembled from their payloads by the experiment registry, so
the benchmark's check of ``run_serial`` and of the sweep compares two
independent paths through the code. Only a change meant to alter the
simulated results should regenerate this file.
"""

from __future__ import annotations

import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import spec
from layers import cmp_jobs, formatted, job_apps, job_cache, job_config, job_key, job_payload
from workload import (
    digest,
    text_digest,
    trace_mix_cache,
    trace_mix_ops,
    trace_mix_stream,
    trace_mix_traces,
    trace_mix_warmup,
)


def golden_cmp(name: str, seed: int, refs: int, trailing: str = "") -> dict:
    """figure5/table1 cells run one by one; ``trailing`` ends the output."""
    from repro.sim.cmp import CMPRunner
    from repro.sim.experiments.common import build_traces

    jobs = cmp_jobs(name, seed, refs)
    payloads, ops, issued, traces = [], {}, 0, None
    for job in jobs:
        params = job.params_dict
        if traces is None or name == "table1":
            traces = build_traces(job_apps(name, params), params["refs"], seed)
        result = CMPRunner(job_cache(name, params), job_config(traces)).run(traces)
        payloads.append(job_payload(name, params, result))
        ops[job_key(name, params)] = digest(payloads[-1])
        issued += result.total_refs
    output = formatted(name, jobs, payloads) + trailing
    return {"refs": issued, "output": text_digest(output), "ops": ops}


def golden_trace_mix(seed: int, refs: int) -> dict:
    from repro.sim.driver import run_trace

    traces = trace_mix_traces(seed, refs)
    trace = trace_mix_stream(traces)
    stats = run_trace(
        trace_mix_cache(len(traces)), trace, warmup_refs=trace_mix_warmup(trace)
    )
    return {
        "refs": len(trace),
        "output": digest(stats.as_dict()),
        "ops": trace_mix_ops(stats),
    }


def golden_seed(seed: int) -> dict:
    sizes = spec.SIZES
    return {
        "figure5": golden_cmp("figure5", seed, sizes["figure5"]),
        "table1": golden_cmp("table1", seed, sizes["table1"]),
        "trace-mix": golden_trace_mix(seed, sizes["trace-mix"]),
        # The sweep prints figure5's output followed by a newline.
        "sweep": golden_cmp("figure5", seed, sizes["sweep"], trailing="\n"),
    }


def main() -> int:
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(spec.sweep_jobs(), mp_context=context) as pool:
        seeds = dict(zip(spec.GOLDEN_SEEDS, pool.map(golden_seed, spec.GOLDEN_SEEDS)))
    path = Path(__file__).parent / "golden.json"
    payload = {"sizes": spec.SIZES, "seeds": {str(seed): seeds[seed] for seed in seeds}}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(seeds)} seed(s) -> {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
