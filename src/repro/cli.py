"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``models``
    List the bundled workload models with their footprints.
``workloads``
    List the registered workload families (SPEC stand-ins and the mixed
    suite) and their members.
``profile MODEL``
    Characterise a model's trace (footprint, locality, LRU miss curve).
``experiment {table1,table2,table4,table5,figure5,figure6,...}``
    Run one of the paper's experiments (or a repo experiment such as
    ``resize-mechanism``, the flush-vs-consistent-hashing resize
    comparison) and print its table/series.
``sweep {table1,table2,table4,table5,figure5,figure6,...}``
    Run an experiment as a campaign: independent jobs drained by
    ``--jobs`` lease workers sharing a content-hashed result store
    (``--out``), resumable after interruption (``--resume``). Output is
    byte-identical to ``experiment``. Crash-tolerant: a dead worker's
    jobs are reclaimed; poison jobs are quarantined after
    ``--max-reclaims`` attempts.
``worker STORE``
    Join a campaign as one lease-protocol worker: claim jobs from the
    store's manifest via atomic lease files, heartbeat while running,
    commit results fenced by lease token. Any number of workers on a
    shared filesystem drain one campaign with no dispatcher.
``simulate``
    Run a workload mix on a molecular or traditional cache; ``--faults``
    schedules hardware faults (molecule retirement, transient line
    drops, degraded tiles) against a molecular run, and
    ``--resize-mechanism {flush,chash}`` picks the resize backend.
``inspect``
    Read a trace recorded with ``--trace``: resize timeline, per-region
    miss-rate/occupancy/HPM epochs, the lease timeline of a distributed
    drain, a convergence summary and the campaign's span summary.
``power``
    Evaluate a cache organization with the analytical power model.
``bench-report``
    Diff the machine-readable benchmark ledger
    (``benchmarks/results/ledger/``): pair each metric's latest entry
    with the previous same-scale one and fail on changes beyond
    ``--threshold`` in the worse direction (``--soft`` reports only).
``fuzz``
    Differential fuzzing: randomized op streams through the access rule
    in lockstep with the stdlib spec, through ``access_many`` and through
    a per-op-audited arm, with the full-state invariant auditor at epoch
    boundaries;
    failures are shrunk to a minimal repro. ``--faults`` mixes random
    fault schedules into every stream; ``--mechanism {all,flush,chash}``
    adds the resize-mechanism axis to the fuzz grid.
``chaos``
    Chaos-test the campaign executor: run an experiment once in process
    (as ``experiment`` does) and once as a campaign with sabotaged lease
    workers (``--worker-chaos``: kills, hangs, corrupted results) with
    resume-until-converged, then verify the two outputs are
    byte-identical.

``simulate`` and ``sweep`` additionally accept ``--audit [CADENCE]`` to
run the invariant auditor every CADENCE accesses during the run (sweep
propagates the cadence to campaign workers via ``$REPRO_AUDIT``).
``simulate``, ``sweep`` and ``worker`` accept ``--trace PATH``, which
records the run as one Chrome trace (:mod:`repro.prof.spans`): telemetry
events as instants, epoch metrics as counters, and a campaign's
job/queue/store spans. ``simulate --profile [SAMPLE]`` prints where the
access time went by outcome class (see :mod:`repro.prof`).
"""

from __future__ import annotations

import argparse
import sys

from repro.common.errors import ConfigError, ReproError


def parse_size(text: str) -> int:
    """Parse ``"512KB"`` / ``"4MB"`` / ``"8192"`` into bytes."""
    raw = text.strip().upper()
    multiplier = 1
    for suffix, factor in (("KB", 1 << 10), ("MB", 1 << 20), ("GB", 1 << 30),
                           ("K", 1 << 10), ("M", 1 << 20), ("B", 1)):
        if raw.endswith(suffix):
            raw = raw[: -len(suffix)]
            multiplier = factor
            break
    try:
        size = int(float(raw) * multiplier)
    except (ValueError, OverflowError):  # garbage, nan, inf, 1e400
        raise ConfigError(f"cannot parse size {text!r}") from None
    if size <= 0:
        raise ConfigError(f"size must be positive, got {text!r}")
    return size


def open_trace(path: str):
    """The recorder behind ``--trace PATH``.

    The path is opened now, so an unwritable one fails before the run
    starts; the trace itself is written when the command ends.
    """
    from repro.prof.spans import SpanRecorder

    try:
        open(path, "w").close()
    except OSError as error:
        raise ConfigError(f"cannot write trace to {path}: {error}") from None
    return SpanRecorder()


def write_trace(trace, path: str, what: str) -> None:
    """Export ``trace`` to ``path`` and say where it went (on stderr)."""
    trace.export(path)
    print(
        f"{what}: {len(trace)} events -> {path} (read with `python -m repro "
        f"inspect {path}`, or load in Perfetto)",
        file=sys.stderr,
    )


def validate_audit_cadence(value: int | None) -> int | None:
    """Reject a zero/negative ``--audit`` cadence with a usable message.

    ``--audit 0`` used to silently disable the auditor — indistinguishable
    from a typo that turns the safety net off. Disabling is the default;
    asking for it explicitly is an error.
    """
    if value is not None and value <= 0:
        raise ConfigError(
            f"--audit cadence must be a positive access count, got {value}; "
            "omit the flag to run without auditing"
        )
    return value


# ---------------------------------------------------------------- commands


def cmd_models(args: argparse.Namespace) -> int:
    from repro.sim.report import format_table
    from repro.workloads import available_models, get_model

    rows = []
    for name in available_models():
        model = get_model(name)
        cacheable = sum(
            c.blocks for c in model.components if c.blocks < (1 << 20)
        )
        rows.append(
            [
                name,
                len(model.components),
                f"{cacheable * 64 // 1024} KB",
                f"{model.expected_miss_rate(1 << 14):.3f}",
            ]
        )
    print(
        format_table(
            ["model", "rings", "cacheable footprint", "est. miss @1MB"],
            rows,
            title="Bundled workload models",
        )
    )
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.trace.analyze import profile_trace
    from repro.workloads import get_model

    model = get_model(args.model)
    trace = model.generate(args.refs, seed=args.seed)
    profile = profile_trace(trace)
    print(f"profile of {args.model} ({args.refs} references):")
    for key, value in profile.as_dict().items():
        if key == "miss_curve":
            print("  LRU miss curve:")
            for capacity, rate in sorted(value.items()):
                print(f"    {capacity * 64 // 1024:>6} KB: {rate:.3f}")
        else:
            print(f"  {key}: {value}")
    return 0


def _experiment_options(target, args: argparse.Namespace) -> dict:
    """The registry options this target accepts, taken from the CLI."""
    return {
        name: getattr(args, name)
        for name in target.options
        if getattr(args, name, None) is not None
    }


def cmd_experiment(args: argparse.Namespace) -> int:
    from repro.campaign.registry import get_experiment

    name = args.name
    target = get_experiment(name)
    result = target.run_serial(
        refs=args.refs, seed=args.seed, **_experiment_options(target, args)
    )
    print(result.format())
    if name == "figure5" and args.chart:
        from repro.sim.plot import ascii_chart

        print()
        print(
            ascii_chart(
                [f"{mb}MB" for mb in result.sizes_mb],
                result.series,
                title=f"Figure 5 graph {result.graph} (deviation, lower is better)",
            )
        )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.analysis.metrics import average_deviation
    from repro.caches import SetAssociativeCache
    from repro.molecular import MolecularCache, MolecularCacheConfig, ResizePolicy
    from repro.sim import CMPRunConfig, CMPRunner
    from repro.workloads import get_model

    validate_audit_cadence(args.audit)
    names = [n.strip() for n in args.workloads.split(",") if n.strip()]
    if not names:
        raise ConfigError("no workloads given")
    faults = None
    if args.faults:
        from repro.faults import FaultPlan

        if args.cache != "molecular":
            raise ConfigError(
                "--faults needs the molecular cache (got --cache "
                f"{args.cache})"
            )
        faults = FaultPlan.parse(args.faults)
    run_config = CMPRunConfig(
        args.miss_penalty,
        warmup_refs=args.refs // 4,
        audit_every=args.audit,
        faults=faults,
    )
    size = parse_size(args.size)
    traces = {
        asid: get_model(name).generate(args.refs, seed=args.seed, asid=asid)
        for asid, name in enumerate(names)
    }
    goals = {asid: args.goal for asid in range(len(names))}

    if args.cache == "molecular":
        config = MolecularCacheConfig.for_total_size(
            size, clusters=1, tiles_per_cluster=args.tiles, strict=False
        )
        cache = MolecularCache(
            config,
            resize_policy=ResizePolicy(mechanism=args.resize_mechanism),
            placement=args.placement,
        )
        for asid in range(len(names)):
            cache.assign_application(
                asid, goal=args.goal, tile_id=asid % args.tiles
            )
    else:
        cache = SetAssociativeCache(size, args.assoc)

    bus = trace = None
    if args.trace:
        if args.cache != "molecular":
            print(
                "warning: --trace needs the molecular cache; not recording",
                file=sys.stderr,
            )
        else:
            from repro.prof.spans import LAUNCHER_TID
            from repro.telemetry import EventBus

            trace = open_trace(args.trace)
            trace.name_track(LAUNCHER_TID, "simulate")
            bus = EventBus(
                [trace], epoch_refs=args.trace_epoch, remote_search_sample=100
            )

    profiler = None
    if args.profile is not None:
        if args.cache != "molecular":
            print(
                "warning: --profile needs the molecular cache; not profiling",
                file=sys.stderr,
            )
        else:
            from repro.prof import HotPathProfiler

            profiler = HotPathProfiler(sample_every=args.profile)
            cache.attach_profiler(profiler)

    runner = CMPRunner(cache, run_config, telemetry=bus)
    # The CMP runner issues references one at a time through sessions, so
    # the profiler cannot see stream wall clock — measure the run here
    # and hand it to the report.
    from repro.common.clock import tick

    run_started = tick()
    try:
        result = runner.run(traces)
    finally:
        run_wall = tick() - run_started
        if bus is not None:
            bus.close()
            write_trace(trace, args.trace, "trace")
    print(f"{args.cache} cache, {args.size}, {len(names)} applications:")
    for asid, name in enumerate(names):
        print(f"  {name:10s} miss rate {result.miss_rate(asid):.3f}")
    if args.goal is not None:
        print(
            f"  average deviation from {args.goal:.0%} goal: "
            f"{average_deviation(result.miss_rates(), goals):.3f}"
        )
    if args.cache == "molecular":
        print(f"  partition sizes (molecules): {cache.partition_sizes()}")
        print(f"  mean molecules probed/access: "
              f"{cache.stats.mean_molecules_probed():.1f}")
        print(f"  mean access latency (cycles): "
              f"{cache.stats.mean_latency_cycles():.1f}")
        if faults is not None:
            stats = cache.stats
            print(
                f"  faults: {stats.faults_injected} injected, "
                f"{stats.molecules_retired} molecule(s) retired, "
                f"{stats.molecules_repaired} repaired, "
                f"{stats.lines_invalidated} line(s) invalidated"
            )
    if profiler is not None:
        print(profiler.format_report(run_wall))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Drain the experiment's jobs through lease workers; print the result.

    Stdout carries exactly what ``repro experiment`` prints, so the two
    paths stay byte-comparable; campaign bookkeeping goes to stderr. A
    degraded campaign prints its quarantined jobs instead and exits 1.
    """
    import os
    from pathlib import Path

    from repro.campaign import LeaseConfig, ResultStore, run_campaign
    from repro.campaign.registry import get_experiment

    if validate_audit_cadence(args.audit) is not None:
        # Forked workers inherit the environment, so this single
        # variable carries the audit cadence into every job.
        os.environ["REPRO_AUDIT"] = str(args.audit)

    target = get_experiment(args.name)
    options = _experiment_options(target, args)
    specs = target.jobs(refs=args.refs, seed=args.seed, **options)
    trace = open_trace(args.trace) if args.trace else None
    store = ResultStore(
        Path(args.out) if args.out else Path("campaigns") / args.name
    )
    config = LeaseConfig(
        ttl=args.ttl,
        job_timeout=args.timeout,
        max_reclaims=args.max_reclaims,
    )
    chaos = _worker_chaos(args.worker_chaos)
    try:
        outcome = run_campaign(
            store, specs, args.name, jobs=args.jobs, resume=args.resume,
            options=options, config=config, spans=trace, worker_chaos=chaos,
        )
    finally:
        if trace is not None:
            # Export whatever was recorded even on an interrupt — a
            # partial timeline is exactly what post-mortems need.
            write_trace(trace, args.trace, "campaign trace")
    if outcome.degraded:
        print(outcome.degraded_report())
    else:
        result = target.assemble_results(
            specs, outcome.results_in_order(), **options
        )
        print(result.format())
    print(f"{outcome.summary()} -> {store.root}", file=sys.stderr)
    return 1 if outcome.degraded else 0


def _worker_chaos(text: str | None) -> list[str | None] | None:
    """``--worker-chaos 'kill@2;;hang@1:5'`` -> one directive per worker."""
    if not text:
        return None
    from repro.faults.chaos import WorkerChaos

    parts = [part.strip() or None for part in text.split(";")]
    for part in parts:
        WorkerChaos.parse(part)  # fail fast on grammar errors
    return parts


def cmd_worker(args: argparse.Namespace) -> int:
    import time

    from repro.campaign import (
        LeaseConfig,
        LeaseManager,
        ResultStore,
        run_worker,
    )
    from repro.faults.chaos import WorkerChaos

    trace = open_trace(args.trace) if args.trace else None
    clock = (
        (lambda: time.time() + args.skew) if args.skew else time.time
    )
    store = ResultStore(args.store)
    try:
        report = run_worker(
            store,
            config=LeaseConfig(
                ttl=args.ttl,
                heartbeat=args.heartbeat,
                job_timeout=args.job_timeout,
                max_reclaims=args.max_reclaims,
            ),
            owner=args.owner,
            chaos=WorkerChaos.parse(args.chaos),
            clock=clock,
            spans=trace,
        )
    finally:
        if trace is not None:
            write_trace(trace, args.trace, "worker trace")
    print(report.summary(), file=sys.stderr)
    # Degraded drain (poison jobs parked by anyone) exits 1 so scripts
    # babysitting a fleet notice without parsing stderr.
    parked = LeaseManager(store).quarantined()
    if parked:
        print(
            f"worker: store holds {len(parked)} quarantined job(s); "
            "the campaign completed degraded",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    from repro.telemetry.replay import load_report

    report = load_report(args.trace)
    print(report.format(max_rows=args.max_rows))
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.audit.fuzz import (
        ALL_MECHANISMS,
        ALL_PLACEMENTS,
        ALL_TRIGGERS,
        fuzz,
    )

    placements = ALL_PLACEMENTS if args.placement == "all" else (args.placement,)
    triggers = ALL_TRIGGERS if args.trigger == "all" else (args.trigger,)
    mechanisms = ALL_MECHANISMS if args.mechanism == "all" else (args.mechanism,)
    report = fuzz(
        ops=args.ops,
        seed=args.seed,
        placements=placements,
        triggers=triggers,
        audit_every=args.audit,
        shrink=not args.no_shrink,
        log=lambda message: print(message, file=sys.stderr),
        faults=args.faults,
        mechanisms=mechanisms,
    )
    print(report.summary())
    if report.ok:
        return 0
    for failure in report.failures:
        print()
        print(f"FAIL {failure.summary()}")
        print("  minimal op stream:")
        for op in failure.ops[:40]:
            print(f"    {op}")
        if len(failure.ops) > 40:
            print(f"    ... {len(failure.ops) - 40} more")
        for divergence in failure.divergences[:10]:
            print(f"  divergence: {divergence}")
    return 1


#: Lease ttl of ``repro chaos`` runs: short jobs on one host, so a
#: killed worker's lease should block the drain for seconds, not the
#: sweep default's quarter minute.
CHAOS_TTL = 2.0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Clean serial run vs chaos-with-resume run, compared byte-for-byte."""
    from pathlib import Path

    from repro.campaign import (
        LeaseConfig,
        LeaseManager,
        ResultStore,
        run_campaign,
    )
    from repro.campaign.registry import get_experiment

    target = get_experiment(args.name)
    specs = target.jobs(refs=args.refs, seed=args.seed)
    out = Path(args.out) if args.out else Path("campaigns") / f"chaos-{args.name}"
    chaos = _worker_chaos(args.worker_chaos)

    clean_text = target.run_serial(refs=args.refs, seed=args.seed).format()

    store = ResultStore(out)
    config = LeaseConfig(
        ttl=CHAOS_TTL,
        job_timeout=args.timeout,
        max_reclaims=args.max_reclaims,
    )
    runs = 0
    while True:
        runs += 1
        try:
            # The first run is sabotaged from a fresh store; restarts
            # resume it with clean workers until the drain converges.
            outcome = run_campaign(
                store, specs, args.name, jobs=args.jobs, resume=runs > 1,
                config=config, worker_chaos=chaos if runs == 1 else None,
            )
            chaos_text = target.assemble_results(
                specs, outcome.results_in_order()
            ).format()
            break
        except ReproError as error:
            if runs > args.max_restarts:
                print(
                    f"error: chaos campaign still failing after {runs} "
                    f"run(s): {error}",
                    file=sys.stderr,
                )
                return 2
            print(
                f"chaos: run {runs} died ({error}); resuming from the "
                f"store",
                file=sys.stderr,
            )
            # Restarts run clean: a job the sabotage drove into
            # quarantine gets a fresh budget.
            manager = LeaseManager(store)
            for job_hash in manager.quarantined():
                manager.reset(job_hash)

    print(chaos_text)
    identical = chaos_text == clean_text
    verdict = "IDENTICAL to" if identical else "DIVERGES from"
    print(
        f"chaos: worker chaos {args.worker_chaos!r}; converged in {runs} "
        f"run(s) ({outcome.summary()}); output {verdict} the clean "
        "serial run",
        file=sys.stderr,
    )
    return 0 if identical else 1


def cmd_power(args: argparse.Namespace) -> int:
    from repro.power import CacheOrganization, CactiModel

    model = CactiModel()
    org = CacheOrganization(
        parse_size(args.size), args.assoc, args.line, args.ports
    )
    evaluation = model.evaluate(org)
    print(f"{args.size} {args.assoc}-way, {args.line}B lines, {args.ports} port(s):")
    print(f"  access time : {evaluation.access_time_ns:.2f} ns")
    print(f"  frequency   : {evaluation.frequency_mhz:.0f} MHz")
    print(f"  energy      : {evaluation.energy_nj:.2f} nJ/access")
    print(f"  power       : {evaluation.power_watts():.2f} W at own frequency")
    return 0


def cmd_workloads(args: argparse.Namespace) -> int:
    """List the registered workload families and their members."""
    from repro.workloads.registry import available_families

    for family in available_families():
        print(f"{family.name}: {family.description}")
        for member in family.members:
            print(f"  {member}")
    return 0


def cmd_bench_report(args: argparse.Namespace) -> int:
    """Diff the benchmark ledger; non-zero exit on a regression (unless --soft)."""
    from repro.prof.ledger import (
        diff_ledger,
        format_report,
        read_ledger,
        singleton_metrics,
    )

    entries = read_ledger(args.ledger)
    if args.validate:
        # read_ledger already validated every entry against the schema.
        print(f"ledger OK: {len(entries)} valid entr(y/ies) in {args.ledger}")
    diffs = diff_ledger(entries, threshold=args.threshold)
    print(format_report(diffs, args.threshold,
                        singletons=singleton_metrics(entries)))
    regressions = [diff for diff in diffs if diff.regression]
    if regressions and args.soft:
        print(
            "bench-report: --soft set; reporting only, not failing",
            file=sys.stderr,
        )
        return 0
    return 1 if regressions else 0


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Molecular Caches (MICRO 2006) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list bundled workload models")

    profile = sub.add_parser("profile", help="characterise a workload model")
    profile.add_argument("model")
    profile.add_argument("--refs", type=int, default=100_000)
    profile.add_argument("--seed", type=int, default=1)

    from repro.campaign.registry import experiment_names

    experiment = sub.add_parser("experiment", help="run a paper experiment")
    experiment.add_argument("name", choices=experiment_names())
    experiment.add_argument("--refs", type=int, default=None,
                            help="references per application")
    experiment.add_argument("--seed", type=int, default=1)
    experiment.add_argument("--graph", choices=["A", "B"], default="A",
                            help="figure5 graph")
    experiment.add_argument("--chart", action="store_true",
                            help="render figure5 as an ASCII chart")
    experiment.add_argument("--resize-mechanism",
                            choices=["flush", "chash"], default=None,
                            help="restrict the resize-mechanism experiment "
                                 "to one backend (default: compare both)")

    sweep = sub.add_parser(
        "sweep",
        help="run an experiment as a parallel, resumable campaign",
    )
    sweep.add_argument("name", choices=experiment_names())
    sweep.add_argument("--jobs", type=int, default=0,
                       help="lease workers, capped at the usable CPUs and "
                            "pending jobs (0 = one per CPU; one worker "
                            "drains in process)")
    sweep.add_argument("--resume", action="store_true",
                       help="skip jobs already completed in the result store")
    sweep.add_argument("--timeout", type=float, default=None,
                       help="per-job timeout in seconds: a job running "
                            "longer loses its lease to a peer, and a "
                            "forked worker stuck in it is replaced")
    sweep.add_argument("--out", default=None,
                       help="result store directory "
                            "(default: campaigns/<name>)")
    sweep.add_argument("--refs", type=int, default=None,
                       help="references per application")
    sweep.add_argument("--seed", type=int, default=1)
    sweep.add_argument("--graph", choices=["A", "B"], default="A",
                       help="figure5 graph")
    sweep.add_argument("--audit", metavar="CADENCE", nargs="?", type=int,
                       const=100_000, default=None,
                       help="run the invariant auditor every CADENCE "
                            "accesses inside every job (default 100000; "
                            "propagated to workers via $REPRO_AUDIT)")
    sweep.add_argument("--trace", "--spans", metavar="PATH", default=None,
                       help="record the campaign as a Chrome trace: "
                            "job/queue/store spans and lease events, one "
                            "track per worker (read with `repro inspect`, "
                            "or load in Perfetto)")
    sweep.add_argument("--resize-mechanism",
                       choices=["flush", "chash"], default=None,
                       help="restrict the resize-mechanism experiment to "
                            "one backend (default: compare both)")
    sweep.add_argument("--ttl", type=float, default=15.0,
                       help="lease time-to-live in seconds before a dead "
                            "worker's job is reclaimed")
    sweep.add_argument("--max-reclaims", type=int, default=3,
                       help="attempts (failures or worker deaths) before a "
                            "job is quarantined as poison")
    sweep.add_argument("--worker-chaos", metavar="SPECS", default=None,
                       help="semicolon-separated per-worker sabotage "
                            "directives for fault-tolerance testing, e.g. "
                            "'kill@2;;hang@1:5' (forked workers only)")

    worker = sub.add_parser(
        "worker",
        help="drain a campaign store as one lease-protocol worker",
    )
    worker.add_argument("store",
                        help="result store directory holding the campaign "
                             "manifest (written by `repro sweep`)")
    worker.add_argument("--owner", default=None,
                        help="worker identity for leases "
                             "(default: host:pid:uuid)")
    worker.add_argument("--ttl", type=float, default=30.0,
                        help="lease time-to-live in seconds")
    worker.add_argument("--heartbeat", type=float, default=None,
                        help="lease renewal interval (default: ttl/3)")
    worker.add_argument("--job-timeout", type=float, default=None,
                        help="stop heartbeating a job after this many "
                             "seconds so peers can reclaim it")
    worker.add_argument("--max-reclaims", type=int, default=3,
                        help="reclaims/failures before a job is "
                             "quarantined as poison")
    worker.add_argument("--trace", metavar="PATH", default=None,
                        help="record this worker's spans and lease events "
                             "as a Chrome trace (read with `repro inspect`)")
    worker.add_argument("--chaos", metavar="SPEC", default=None,
                        help="self-sabotage directive for fault-tolerance "
                             "testing: kill@N, hang@N:SECONDS, corrupt@N, "
                             "poison@PREFIX[:raise]")
    worker.add_argument("--skew", type=float, default=0.0,
                        help="artificial clock skew in seconds (testing)")

    simulate = sub.add_parser("simulate", help="run a workload mix on a cache")
    simulate.add_argument("--cache", choices=["molecular", "setassoc"],
                          default="molecular")
    simulate.add_argument("--size", default="4MB")
    simulate.add_argument("--assoc", type=int, default=4)
    simulate.add_argument("--tiles", type=int, default=4)
    simulate.add_argument("--placement", default="randy",
                          choices=["randy", "random", "lru_direct"])
    simulate.add_argument("--resize-mechanism",
                          choices=["flush", "chash"], default="flush",
                          help="how resizes are applied: flush withdrawn "
                               "molecules (the paper) or consistent-hash "
                               "remap (molecular cache only)")
    simulate.add_argument("--workloads", default="art,ammp,parser,mcf")
    simulate.add_argument("--goal", type=float, default=0.10)
    simulate.add_argument("--refs", type=int, default=200_000)
    simulate.add_argument("--seed", type=int, default=1)
    simulate.add_argument("--miss-penalty", type=float, default=10.0)
    simulate.add_argument("--trace", metavar="PATH", default=None,
                          help="record telemetry as a Chrome trace: events "
                               "as instants, epoch metrics as counters "
                               "(molecular cache only; read with "
                               "`repro inspect`)")
    simulate.add_argument("--trace-epoch", type=int, default=5_000,
                          help="accesses per telemetry metrics epoch")
    simulate.add_argument("--audit", metavar="CADENCE", nargs="?", type=int,
                          const=100_000, default=None,
                          help="run the invariant auditor every CADENCE "
                               "accesses (default 100000 when the flag is "
                               "given; $REPRO_AUDIT otherwise)")
    simulate.add_argument("--faults", metavar="SPEC", default=None,
                          help="comma-separated fault schedule, e.g. "
                               "'hard@5000:m3,degraded@10000:t1+8' "
                               "(molecular cache only)")
    simulate.add_argument("--profile", metavar="SAMPLE", nargs="?", type=int,
                          const=512, default=None,
                          help="print where the access time went by "
                               "outcome (local/remote hit, clean/dirty "
                               "miss, resize); one access in every SAMPLE "
                               "is timed (default 512; molecular cache only)")

    inspect = sub.add_parser(
        "inspect", help="read a trace recorded with --trace"
    )
    inspect.add_argument("trace", help="Chrome trace JSON written by "
                                       "`simulate`/`sweep`/`worker --trace`")
    inspect.add_argument("--max-rows", type=int, default=40,
                         help="cap rows per table (use a large value for "
                              "the full timeline)")

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing with the invariant auditor",
    )
    fuzz.add_argument("--ops", type=int, default=50_000,
                      help="operations per placement x trigger cell")
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--placement", default="all",
                      choices=["all", "random", "randy", "lru_direct"])
    fuzz.add_argument("--trigger", default="all",
                      choices=["all", "constant", "global_adaptive",
                               "per_app_adaptive"])
    fuzz.add_argument("--audit", metavar="CADENCE", nargs="?", type=int,
                      const=None, default=None,
                      help="audit every CADENCE operations (default: the "
                           "harness's 500-op epoch)")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="report failures without minimising them")
    fuzz.add_argument("--faults", action="store_true",
                      help="mix random fault schedules (retirement, "
                           "transient drops, degraded tiles) into every "
                           "cell's stream")
    fuzz.add_argument("--mechanism", default="flush",
                      choices=["all", "flush", "chash"],
                      help="resize mechanism axis (default flush keeps the "
                           "established fixed-seed streams byte-stable)")

    chaos = sub.add_parser(
        "chaos",
        help="chaos-test the campaign executor against a clean serial run",
    )
    chaos.add_argument("name", choices=experiment_names())
    chaos.add_argument("--refs", type=int, default=None,
                       help="references per application")
    chaos.add_argument("--seed", type=int, default=1)
    chaos.add_argument("--jobs", type=int, default=2,
                       help="lease workers for the chaos run")
    chaos.add_argument("--worker-chaos", metavar="SPECS",
                       default="kill@2;corrupt@1",
                       help="semicolon-separated sabotage directives, one "
                            "per forked worker: kill@N, hang@N:S, "
                            "corrupt@N, poison@PREFIX[:raise]")
    chaos.add_argument("--timeout", type=float, default=None,
                       help="per-job timeout in seconds: a hung job loses "
                            "its lease and its worker is replaced")
    chaos.add_argument("--max-reclaims", type=int, default=3,
                       help="attempts before a job is quarantined")
    chaos.add_argument("--max-restarts", type=int, default=3,
                       help="resume attempts before giving up")
    chaos.add_argument("--out", default=None,
                       help="store directory (default: "
                            "campaigns/chaos-<name>)")

    power = sub.add_parser("power", help="evaluate a cache organization")
    power.add_argument("--size", default="8MB")
    power.add_argument("--assoc", type=int, default=4)
    power.add_argument("--line", type=int, default=64)
    power.add_argument("--ports", type=int, default=4)

    sub.add_parser(
        "workloads",
        help="list registered workload families and their members",
    )

    bench_report = sub.add_parser(
        "bench-report",
        help="diff the benchmark ledger and flag perf regressions",
    )
    bench_report.add_argument("--ledger",
                              default="benchmarks/results/ledger",
                              help="ledger directory (default: "
                                   "benchmarks/results/ledger)")
    bench_report.add_argument("--threshold", type=float, default=0.20,
                              help="regression threshold as a fraction "
                                   "(default 0.20 = 20%%)")
    bench_report.add_argument("--soft", action="store_true",
                              help="report regressions but exit 0 "
                                   "(CI soft gate)")
    bench_report.add_argument("--validate", action="store_true",
                              help="also report that every entry passed "
                                   "schema validation")

    return parser


_COMMANDS = {
    "models": cmd_models,
    "profile": cmd_profile,
    "experiment": cmd_experiment,
    "sweep": cmd_sweep,
    "worker": cmd_worker,
    "simulate": cmd_simulate,
    "inspect": cmd_inspect,
    "fuzz": cmd_fuzz,
    "chaos": cmd_chaos,
    "power": cmd_power,
    "bench-report": cmd_bench_report,
    "workloads": cmd_workloads,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyError as error:
        # str(KeyError) is the repr of its message; print the message.
        print(f"error: {error.args[0] if error.args else error}",
              file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout was closed early (e.g. `repro inspect ... | head`).
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
