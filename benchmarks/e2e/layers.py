"""The traced run: each workload broken down by layer, from outside.

Every number here comes from timing calls into a layer's public
functions from this file; nothing inside ``src/`` is instrumented. The
layers are repository modules:

* ``workloads`` -- trace generation (``build_traces``);
* ``trace`` -- interleaving and the column conversions drivers consume;
* ``sim.cmp`` -- the CMP issue scheduler (``CMPRunner.run``);
* ``caches.setassoc`` and ``molecular`` -- the cache datapaths;
* ``molecular.resize`` -- the resize mechanism (grow/withdraw/repair);
* ``campaign`` and ``campaign.store`` -- sweep dispatch and result I/O.

A CMP cell is run for real (``cmp.run``), then once more through a
recording proxy that logs the issue order and hit flags. The recorded
hit flags drive ``CMPRunner`` over a stub cache (``cmp.sched``: the
scheduler's own time), and the recorded stream is replayed through a
fresh cache once per datapath (``replay.*``). Every replay must leave
``stats.as_dict()`` equal to the real run's, or the layer numbers would
describe a different simulation: :class:`ReplayMismatch` is raised
otherwise.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

import spec
from repro.common.clock import tick
from repro.prof.spans import SpanRecorder
from workload import (
    cell_key,
    check_sweep,
    digest,
    failed_ops,
    run_cli,
    sweep_command,
    sweep_payloads,
    sweep_store,
    sweep_summary,
    text_digest,
    trace_mix_cache,
    trace_mix_ops,
    trace_mix_stream,
    trace_mix_traces,
    trace_mix_warmup,
)


class ReplayMismatch(AssertionError):
    """A replay's statistics differ from the real run it replays."""


def assert_replay(what: str, expected: dict, cache) -> None:
    if cache.stats.as_dict() != expected:
        raise ReplayMismatch(f"{what}: replayed stats differ from the real run")


class Breakdown:
    """Per-layer metric totals and the span track of one workload."""

    def __init__(self, workload: str, recorder: SpanRecorder, tid: int) -> None:
        self.values: dict[str, float] = dict.fromkeys(spec.layer_metric_names(), 0)
        self._ratios: dict[str, list[float]] = {}
        self.recorder = recorder
        self.tid = tid
        recorder.name_track(tid, workload)

    def add(self, metric: str, value: float) -> None:
        self.values[metric] += value

    def ratio(self, metric: str, numerator: float, denominator: float) -> None:
        """Accumulate a metric reported as Σ numerator / Σ denominator."""
        totals = self._ratios.setdefault(metric, [0, 0])
        totals[0] += numerator
        totals[1] += denominator

    @contextmanager
    def span(self, name: str, metric: str | None = None, category: str | None = None):
        """Time a block as a span; add its duration to ``metric``.

        The category defaults to the layer, the name's first dotted part.
        """
        start = tick()
        try:
            yield
        finally:
            self._close(name, metric, start, category)

    def timed(self, name: str, metric: str, func):
        """``func`` wrapped so each call is a span added to ``metric``."""

        def call(*args, **kwargs):
            start = tick()
            try:
                return func(*args, **kwargs)
            finally:
                self._close(name, metric, start)

        return call

    def _close(self, name: str, metric: str | None, start: float,
               category: str | None = None) -> None:
        end = tick()
        category = category or name.split(".")[0]
        self.recorder.span(name, category, start, end, tid=self.tid)
        if metric is not None:
            self.values[metric] += end - start

    def finish(self) -> dict[str, float]:
        for metric, (numerator, denominator) in self._ratios.items():
            self.values[metric] = numerator / denominator if denominator else 0.0
        return self.values


def time_resize_mechanism(cache, breakdown: Breakdown) -> None:
    """Time every grow/withdraw/repair the cache's resizer applies."""
    mechanism = cache.resizer.mechanism
    for action in ("grow", "withdraw", "repair"):
        setattr(
            mechanism,
            action,
            breakdown.timed(f"resize.{action}", "resize.mech_s", getattr(mechanism, action)),
        )


def issue_order(breakdown: Breakdown, asids: np.ndarray) -> None:
    """Same-ASID run statistics of an issued reference stream."""
    from repro.molecular.columnar import MIN_KERNEL_RUN

    bounds = np.concatenate(
        ([0], np.flatnonzero(asids[1:] != asids[:-1]) + 1, [len(asids)])
    )
    lengths = np.diff(bounds)
    breakdown.ratio("cmp.asid_run_mean", len(asids), len(lengths))
    breakdown.ratio(
        "cmp.kernel_eligible_frac",
        int(lengths[lengths >= MIN_KERNEL_RUN].sum()),
        len(asids),
    )


def cache_counters(breakdown: Breakdown, layer: str, stats) -> None:
    breakdown.add(f"{layer}.accesses", stats.total.accesses)
    breakdown.ratio(f"{layer}.miss_rate", stats.total.misses, stats.total.accesses)
    if layer == "molecular":
        breakdown.ratio(
            "molecular.probes_per_access", stats.molecules_probed, stats.total.accesses
        )
        breakdown.add("resize.fires", stats.resize_events)
        breakdown.add(
            "resize.molecules_moved", stats.molecules_granted + stats.molecules_withdrawn
        )
        breakdown.add("resize.blocks_moved", stats.resize_blocks_moved)


# -------------------------------------------------------------- CMP cells


class IssueRecorder:
    """Cache proxy that logs the CMP issue order and each hit flag."""

    def __init__(self, cache) -> None:
        self.cache = cache
        self.blocks: list[int] = []
        self.asids: list[int] = []
        self.writes: list[bool] = []
        self.hits: list[bool] = []

    @property
    def stats(self):
        return self.cache.stats

    def access_session(self):
        inner = self.cache.access_session().access
        blocks, asids = self.blocks.append, self.asids.append
        writes, hits = self.writes.append, self.hits.append

        def access(block: int, asid: int, write: bool) -> bool:
            hit = inner(block, asid, write)
            blocks(block)
            asids(asid)
            writes(write)
            hits(hit)
            return hit

        return SimpleNamespace(access=access)


class HitReplayer:
    """Stub cache answering each access with the next recorded hit flag."""

    def __init__(self, hits: list[bool]) -> None:
        from repro.caches.stats import CacheStats

        self.hits = hits
        self.stats = CacheStats()

    def access_session(self):
        flags = iter(self.hits)
        return SimpleNamespace(access=lambda block, asid, write: next(flags))


def cmp_jobs(name: str, seed: int, refs: int):
    """The workload's cells as campaign job specs, in result order."""
    from repro.campaign.registry import get_experiment

    options = {"graph": "A"} if name == "figure5" else {}
    return get_experiment(name).jobs(refs=refs, seed=seed, **options)


def job_apps(name: str, params: dict) -> list[str]:
    from repro.sim.experiments.figure5 import APPS

    return list(APPS) if name == "figure5" else list(params["combo"])


def job_is_molecular(params: dict) -> bool:
    return params.get("kind") == "molecular"


def job_cache(name: str, params: dict):
    """A fresh cache built exactly as the experiment's cell builds it."""
    from repro.caches.setassoc import SetAssociativeCache

    if name == "table1":
        return SetAssociativeCache(
            params["size_bytes"], params["associativity"], policy="lru"
        )
    size = params["size_mb"] << 20
    if not job_is_molecular(params):
        return SetAssociativeCache(size, params["parameter"], policy="lru")
    from repro.molecular.cache import MolecularCache
    from repro.molecular.config import MolecularCacheConfig, ResizePolicy
    from repro.sim.experiments.figure5 import APPS, goals_for_graph

    config = MolecularCacheConfig.for_total_size(
        size, clusters=1, tiles_per_cluster=4, strict=False
    )
    cache = MolecularCache(
        config, resize_policy=ResizePolicy(), placement=params["parameter"]
    )
    goals = goals_for_graph(params["graph"])
    for asid in range(len(APPS)):
        cache.assign_application(asid, goal=goals.get(asid), tile_id=asid)
    return cache


def job_config(traces):
    """The CMP timing the experiments use, warm-up included."""
    from repro.sim.cmp import CMPRunConfig
    from repro.sim.experiments.common import DEFAULT_MISS_PENALTY, warmup_for

    refs = min(len(trace) for trace in traces.values())
    return CMPRunConfig(DEFAULT_MISS_PENALTY, warmup_for(refs, len(traces)))


def job_payload(name: str, params: dict, result) -> dict:
    """The payload the experiment's campaign job returns for this cell."""
    if name == "table1":
        return {
            "rates": {
                app: result.miss_rate(asid) for asid, app in enumerate(params["combo"])
            }
        }
    from repro.analysis.metrics import DeviationMode, average_deviation
    from repro.sim.experiments.figure5 import APPS, goals_for_graph

    rates = result.miss_rates()
    return {
        "deviation": average_deviation(
            rates, goals_for_graph(params["graph"]), DeviationMode(params["mode"])
        ),
        "rates": {APPS[asid]: rate for asid, rate in rates.items()},
    }


def job_key(name: str, params: dict) -> str:
    return cell_key(params) if name == "figure5" else "+".join(params["combo"])


def formatted(name: str, jobs, payloads: list[dict]) -> str:
    """The experiment's printed output, assembled from the cell payloads."""
    from repro.campaign.registry import get_experiment

    options = {"graph": "A"} if name == "figure5" else {}
    return get_experiment(name).assemble_results(jobs, payloads, **options).format()


def replay_cell(breakdown: Breakdown, make_cache, recorder: IssueRecorder,
                layer: str, expected: dict) -> None:
    """The recorded issue order through each datapath on a fresh cache."""
    from repro.molecular.engine import AccessEngine

    cache = make_cache()
    access = cache.access_session().access
    with breakdown.span("replay.session", f"{layer}.session_s"):
        for block, asid, write in zip(recorder.blocks, recorder.asids, recorder.writes):
            access(block, asid, write)
    assert_replay(f"{layer} session replay", expected, cache)

    blocks = np.array(recorder.blocks, dtype=np.int64)
    asids = np.array(recorder.asids, dtype=np.int32)
    writes = np.array(recorder.writes, dtype=np.bool_)
    cache = make_cache()
    with breakdown.span("replay.access_many", f"{layer}.access_many_s"):
        cache.access_many(blocks, asids, writes)
    assert_replay(f"{layer} access_many replay", expected, cache)

    if layer == "molecular":
        cache = make_cache()
        with breakdown.span("replay.batched", "molecular.batched_s"):
            AccessEngine(cache).stream(recorder.blocks, recorder.asids, recorder.writes)
        assert_replay("molecular batched replay", expected, cache)
    issue_order(breakdown, asids)


def trace_cell(breakdown: Breakdown, make_cache, traces, molecular: bool):
    """One CMP cell: real run, recorded run, scheduler replay, datapaths."""
    from repro.sim.cmp import CMPRunner

    config = job_config(traces)
    with breakdown.span("trace.columns", "trace.columns_s"):
        for trace in traces.values():
            trace.block_list()
            trace.write_list()
    cache = make_cache()
    if molecular:
        time_resize_mechanism(cache, breakdown)
    with breakdown.span("cmp.run", "cmp.run_s"):
        result = CMPRunner(cache, config).run(traces)
    expected = cache.stats.as_dict()

    recorder = IssueRecorder(make_cache())
    CMPRunner(recorder, config).run(traces)
    assert_replay("recorded run", expected, recorder.cache)
    with breakdown.span("cmp.sched", "cmp.sched_s"):
        replayed = CMPRunner(HitReplayer(recorder.hits), config).run(traces)
    if (replayed.total_refs, replayed.end_time) != (result.total_refs, result.end_time):
        raise ReplayMismatch("scheduler replay issued a different schedule")

    layer = "molecular" if molecular else "setassoc"
    replay_cell(breakdown, make_cache, recorder, layer, expected)
    breakdown.add("cmp.refs_issued", result.total_refs)
    cache_counters(breakdown, layer, cache.stats)
    return result


def trace_cmp_workload(name: str, seed: int, refs: int, golden: dict,
                       breakdown: Breakdown) -> dict:
    """figure5 or table1, cell by cell in the experiment's own order."""
    from repro.sim.experiments.common import build_traces

    jobs = cmp_jobs(name, seed, refs)
    payloads, ops, traces = [], {}, None
    for job in jobs:
        params = job.params_dict
        with breakdown.span(job_key(name, params), category="cell"):
            # figure5 builds its traces once; table1 once per combination.
            if traces is None or name == "table1":
                with breakdown.span("workloads.gen", "workloads.gen_s"):
                    traces = build_traces(job_apps(name, params), params["refs"], seed)
            result = trace_cell(
                breakdown,
                lambda: job_cache(name, params),
                traces,
                job_is_molecular(params),
            )
        payloads.append(job_payload(name, params, result))
        ops[job_key(name, params)] = digest(payloads[-1])
    return {
        "attempted": len(golden["ops"]),
        "failed": failed_ops(ops, golden["ops"]),
        "output_ok": text_digest(formatted(name, jobs, payloads)) == golden["output"],
        "traced_s": breakdown.values["workloads.gen_s"] + breakdown.values["cmp.run_s"],
    }


# -------------------------------------------------------------- trace-mix


def stream_split(stream, cache, blocks, asids, writes, warmup: int) -> None:
    """Stream as ``run_trace`` does: warm-up, stats reset, the rest."""
    stream(cache, blocks[:warmup], asids[:warmup], writes[:warmup])
    cache.stats.reset()
    stream(cache, blocks[warmup:], asids[warmup:], writes[warmup:])


def session_stream(cache, blocks, asids, writes) -> None:
    access = cache.access_session().access
    for block, asid, write in zip(blocks, asids, writes):
        access(block, asid, write)


def batched_stream(cache, blocks, asids, writes) -> None:
    from repro.molecular.engine import AccessEngine

    AccessEngine(cache).stream(blocks, asids, writes)


def trace_trace_mix(seed: int, refs: int, golden: dict, breakdown: Breakdown) -> dict:
    from repro.sim.driver import run_trace

    with breakdown.span("workloads.gen", "workloads.gen_s"):
        traces = trace_mix_traces(seed, refs)
    with breakdown.span("trace.interleave", "trace.interleave_s"):
        trace = trace_mix_stream(traces)
    with breakdown.span("trace.columns", "trace.columns_s"):
        trace.block_column()
    warmup = trace_mix_warmup(trace)
    cache = trace_mix_cache(len(traces))
    time_resize_mechanism(cache, breakdown)
    with breakdown.span("molecular.run_trace", "molecular.access_many_s"):
        stats = run_trace(cache, trace, warmup_refs=warmup)
    expected = stats.as_dict()

    columns = (trace.block_list(), trace.asid_list(), trace.write_list())
    for label, stream in (("session", session_stream), ("batched", batched_stream)):
        replay = trace_mix_cache(len(traces))
        with breakdown.span(f"replay.{label}", f"molecular.{label}_s"):
            stream_split(stream, replay, *columns, warmup)
        assert_replay(f"molecular {label} replay", expected, replay)
    issue_order(breakdown, trace.asids)
    cache_counters(breakdown, "molecular", stats)
    return {
        "attempted": len(golden["ops"]),
        "failed": failed_ops(trace_mix_ops(stats), golden["ops"]),
        "output_ok": digest(expected) == golden["output"],
        "traced_s": breakdown.values["trace.columns_s"]
        + breakdown.values["molecular.access_many_s"],
    }


# ------------------------------------------------------------------ sweep


def span_seconds(events: list[dict], category: str) -> float:
    """Total duration of one span category (trace events are in µs)."""
    return sum(
        event["dur"] for event in events
        if event.get("ph") == "X" and event.get("cat") == category
    ) / 1e6


def trace_sweep(seed: int, refs: int, golden: dict, breakdown: Breakdown) -> dict:
    from repro.prof.spans import load_trace

    with sweep_store() as store:
        spans_path = store / "spans.json"
        with breakdown.span("campaign.sweep"):
            wall_s, cold = run_cli(
                sweep_command(store, seed, refs) + ["--spans", str(spans_path)]
            )
        events = load_trace(spans_path)
        with breakdown.span("store.load", "store.load_s"):
            payloads = sweep_payloads(store, seed, refs)
    summary = sweep_summary(cold.stderr)
    checked = check_sweep(cold.stdout, payloads, summary, golden)
    busy = span_seconds(events, "job")
    breakdown.add("campaign.jobs_run", summary["run"])
    breakdown.add("campaign.jobs_retried", summary["retried"])
    breakdown.add("campaign.jobs_failed", summary["failed"])
    breakdown.add("campaign.job_busy_s", busy)
    breakdown.add("campaign.queue_s", span_seconds(events, "queue"))
    breakdown.add("campaign.overhead_s", spec.sweep_jobs() * wall_s - busy)
    breakdown.add("store.save_s", span_seconds(events, "store"))
    return {
        "attempted": checked.attempted,
        "failed": checked.failed,
        "output_ok": checked.output_ok,
        "traced_s": wall_s,
        "sweep_events": events,
    }


# --------------------------------------------------------------- dispatch


def trace_workload(name: str, seed: int, refs: int, golden: dict,
                   spans_out: str | None = None) -> dict:
    """The traced run of one workload: layer metrics plus its span track.

    ``spans_out`` receives the Chrome trace events of this workload's
    track (and, for the sweep, the sweep's own ``--spans`` events as a
    second process).
    """
    recorder = SpanRecorder()
    breakdown = Breakdown(name, recorder, tid=list(spec.SIZES).index(name) + 1)
    with breakdown.span(name, category="workload"):
        if name in ("figure5", "table1"):
            record = trace_cmp_workload(name, seed, refs, golden, breakdown)
        elif name == "trace-mix":
            record = trace_trace_mix(seed, refs, golden, breakdown)
        else:
            record = trace_sweep(seed, refs, golden, breakdown)
    sweep_events = record.pop("sweep_events", [])
    if spans_out is not None:
        events = recorder.trace_events() + [
            dict(event, pid=2) for event in sweep_events
        ]
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump(events, fh)
    record["layers"] = breakdown.finish()
    return record
