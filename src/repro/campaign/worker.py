"""The campaign executor: lease workers draining one result store.

``run_worker`` is the whole protocol from one process's point of view:
read the campaign manifest, then loop — claim an unleased job
(:meth:`~repro.campaign.lease.LeaseManager.try_acquire`), or reclaim an
expired one, execute it with a heartbeat, and publish the result through
the fencing-checked commit. When every job is either in ``results/`` or
``quarantine/``, the worker exits. N such processes pointed at one store
directory *are* the campaign executor; none of them is special, and any
of them can die at any instant without stopping the drain (a peer
reclaims its lease after ``ttl``).

Failure rules (DESIGN.md §14), one per way a job can go wrong:

* an exception is charged to the job's attempt history and the lease
  reopened for a retry; ``max_reclaims`` charged attempts — failures and
  worker deaths alike — quarantine the job;
* a *deterministic* failure (:class:`~repro.common.errors.ConfigError`,
  or the :class:`~repro.common.errors.CampaignError` an invariant audit
  raises) quarantines the job on its first occurrence: a retry would
  fail the same way;
* an outcome without ``result``/``elapsed`` is a failure, never a commit;
* a forked worker still holding a lease ``ttl`` past ``job_timeout`` is
  killed and replaced by the launcher, and the death charged to the job;
* SIGINT/SIGTERM reopen the lease without charging it, so a resumed
  campaign takes the job straight back.

Contention is handled with exponential backoff plus jitter: a pass over
the remaining jobs that acquires nothing (everything is leased by live
peers) sleeps before the next pass, doubling up to ``backoff_cap`` — so
a fleet stampeding one store settles into polite polling while the
leaseholders work.

``run_campaign`` is the launcher behind ``repro sweep`` and ``repro
chaos``: it writes the manifest, serves the jobs a resumed store already
holds, and drains the rest — in process when one worker suffices,
otherwise with min(N, usable CPUs, pending jobs) forked workers — then
reports one :class:`CampaignOutcome`. Worker chaos directives
(:class:`~repro.faults.chaos.WorkerChaos`) sabotage individual forked
workers, which is how the chaos suite proves convergence.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from pathlib import Path
from typing import Any, Callable

from repro.campaign.lease import LeaseConfig, LeaseManager, make_owner_id
from repro.campaign.spec import JobSpec, payload_hash
from repro.campaign.store import ResultStore
from repro.common.clock import tick
from repro.common.errors import CampaignError, ConfigError
from repro.faults.chaos import WorkerChaos
from repro.prof.spans import LAUNCHER_TID, SpanRecorder
from repro.telemetry.events import CampaignInterrupted

__all__ = [
    "CampaignOutcome",
    "WorkerReport",
    "execute_spec",
    "run_campaign",
    "run_worker",
    "usable_cpus",
]

#: Seconds between the launcher's checks on its forked workers.
_POLL_S = 0.1


# ------------------------------------------------------------------ one job


@contextmanager
def _scale_env(scale: float):
    """Pin ``REPRO_SCALE`` to the spec's captured factor for one job."""
    previous = os.environ.get("REPRO_SCALE")
    os.environ["REPRO_SCALE"] = repr(scale)
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_SCALE", None)
        else:
            os.environ["REPRO_SCALE"] = previous


def execute_spec(payload: dict[str, Any]) -> dict[str, Any]:
    """Run one job from its JSON payload: ``{"result", "elapsed"}``.

    The job runs at the scale its spec captured when the campaign was
    decomposed, whatever ``REPRO_SCALE`` says now — jobs regenerate their
    traces from the seed, so the result is the same in any process.
    """
    from repro.campaign.registry import execute_job

    spec = JobSpec.from_payload(payload)
    started = tick()
    with _scale_env(spec.scale):
        result = execute_job(spec)
    return {"result": result, "elapsed": tick() - started}


def _check_outcome(outcome: Any) -> None:
    """Raise unless ``outcome`` has the shape a commit needs."""
    if not isinstance(outcome, dict) or not {"result", "elapsed"} <= set(outcome):
        raise RuntimeError(
            f"malformed job outcome ({type(outcome).__name__} without "
            "result/elapsed)"
        )


# ------------------------------------------------------------------- worker


@dataclass(slots=True)
class WorkerReport:
    """What one worker did to the store before the drain completed."""

    owner: str
    campaign: str
    committed: int = 0
    fenced: int = 0
    failed: int = 0
    reclaims: int = 0
    backoffs: int = 0
    quarantined: list[str] = field(default_factory=list)

    def summary(self) -> str:
        return (
            f"worker {self.owner} [{self.campaign}]: "
            f"{self.committed} committed, {self.fenced} fenced, "
            f"{self.failed} failed, {self.reclaims} reclaimed, "
            f"{len(self.quarantined)} quarantined, "
            f"{self.backoffs} backoff(s)"
        )


def _manifest_jobs(store: ResultStore) -> tuple[str, list[tuple[str, dict]]]:
    """Campaign name + ordered unique (hash, spec payload) pairs.

    Every job's experiment must be registered: a store written for an
    experiment this version no longer has is rejected before any lease
    is taken, instead of quarantining each of its jobs.
    """
    from repro.campaign.registry import get_experiment

    manifest = store.read_manifest()
    if manifest is None:
        raise ConfigError(
            f"{store.root} has no campaign manifest; run `repro sweep "
            "<experiment> --out <store>` (or write_manifest) first"
        )
    entries = manifest.get("jobs", [])
    if not isinstance(entries, list):
        raise ConfigError(f"{store.manifest_path}: 'jobs' is not a list")
    jobs: list[tuple[str, dict]] = []
    seen: set[str] = set()
    for position, entry in enumerate(entries):
        job_hash = _manifest_entry(entry)
        if job_hash is None:
            raise ConfigError(
                f"{store.manifest_path}: job {position} is not a 'hash' "
                "plus the 'spec' it is the content hash of"
            )
        if job_hash not in seen:
            seen.add(job_hash)
            jobs.append((job_hash, entry["spec"]))
    if not jobs:
        raise ConfigError(f"{store.root}: manifest lists no jobs")
    for experiment in dict.fromkeys(spec["experiment"] for _, spec in jobs):
        get_experiment(experiment)
    return str(manifest.get("campaign", "campaign")), jobs


def _manifest_entry(entry: Any) -> str | None:
    """The hash of a well-formed manifest entry, else None."""
    if not isinstance(entry, dict):
        return None
    job_hash = payload_hash(entry.get("spec"))
    return job_hash if entry.get("hash") == job_hash else None


def run_worker(
    store: ResultStore | str | Path,
    config: LeaseConfig | None = None,
    owner: str | None = None,
    chaos: WorkerChaos | None = None,
    clock: Callable[[], float] = time.time,
    spans: SpanRecorder | None = None,
) -> WorkerReport:
    """Drain one campaign store until every job is done or quarantined.

    Safe to run N-fold concurrently against the same directory; exits
    when there is nothing left this worker could ever do. ``chaos``
    sabotages *this* worker only (the chaos harness's lever), ``clock``
    skews its view of lease time, and ``spans`` receives this worker's
    ``queue``/``job``/``store`` spans, ``retry`` markers and lease
    events on a track named after its pid.
    """
    if not isinstance(store, ResultStore):
        store = ResultStore(store)
    config = config or LeaseConfig()
    campaign, jobs = _manifest_jobs(store)
    tid = os.getpid()
    if spans is not None:
        spans.name_track(tid, f"worker {tid}")
    manager = LeaseManager(
        store, owner=owner, config=config,
        telemetry=spans.track(tid) if spans is not None else None,
        clock=clock, campaign=campaign,
    )
    report = WorkerReport(owner=manager.owner, campaign=campaign)
    rng = random.Random(manager.owner)
    acquisitions = 0
    idle_passes = 0
    idle_since = tick()

    while True:
        done = store.completed(h for h, _p in jobs)
        parked = manager.quarantined()
        remaining = [
            (job_hash, payload)
            for job_hash, payload in jobs
            if job_hash not in done and job_hash not in parked
        ]
        if not remaining:
            break
        progressed = False
        for job_hash, payload in remaining:
            if store.has(job_hash):  # a peer finished it this pass
                continue
            lease = manager.try_acquire(job_hash)
            if lease is None:
                lease = manager.try_reclaim(job_hash)
                if lease is not None:
                    report.reclaims += 1
                elif manager.quarantine_record(job_hash) is not None:
                    # our reclaim attempt pushed it over max_reclaims
                    report.quarantined.append(job_hash)
                    progressed = True
                    continue
            if lease is None:
                continue
            try:
                progressed = True
                acquisitions += 1
                spec = JobSpec.from_payload(payload)
                if spans is not None:
                    spans.span("queue", "queue", idle_since, tick(), tid=tid)
                if chaos is not None:
                    # kill@N fires *after* the lease is durable on disk
                    # and before any result is — the orphaned-lease
                    # scenario.
                    chaos.on_acquire(acquisitions)
                started = tick()
                error = None
                with manager.heartbeat(lease):
                    try:
                        if chaos is not None:
                            chaos.before_execute(acquisitions, job_hash)
                        outcome = execute_spec(payload)
                        if chaos is not None:
                            outcome = chaos.after_execute(
                                acquisitions, outcome
                            )
                        _check_outcome(outcome)
                    except Exception as caught:
                        error = caught
                if spans is not None:
                    spans.span(
                        spec.label(), "job", started, tick(), tid=tid,
                        args={
                            "attempt": lease.token,
                            "experiment": spec.experiment,
                        },
                    )
                if error is None:
                    saving = tick()
                    if manager.commit(
                        lease, spec, outcome["result"], outcome["elapsed"]
                    ):
                        report.committed += 1
                    else:
                        report.fenced += 1
                    if spans is not None:
                        spans.span(
                            f"store {spec.label()}", "store", saving, tick(),
                            tid=tid, args={"job": job_hash},
                        )
                else:
                    report.failed += 1
                    # Deterministic failures go straight to quarantine:
                    # every retry would fail the same way.
                    retry = not isinstance(error, (ConfigError, CampaignError))
                    if manager.fail(lease, error, retry=retry):
                        if spans is not None:
                            spans.instant(
                                "retry", "retry", tick(), tid=tid,
                                args={
                                    "job": spec.label(),
                                    "attempt": lease.token + 1,
                                    "error": str(error) or type(error).__name__,
                                },
                            )
                    else:
                        report.quarantined.append(job_hash)
            except (KeyboardInterrupt, SystemExit):
                # Not the job's fault: reopen the lease without drawing
                # down its quarantine budget.
                manager.abandon(lease)
                raise
            idle_since = tick()
        if progressed:
            idle_passes = 0
        else:
            # Everything left is leased by live peers (or waiting out a
            # dead peer's ttl): exponential backoff with jitter so the
            # fleet doesn't hammer the store in lockstep.
            idle_passes += 1
            report.backoffs += 1
            delay = min(
                config.backoff_cap,
                config.backoff * (2 ** (idle_passes - 1)),
            ) * (0.5 + rng.random())
            time.sleep(delay)
    return report


# ----------------------------------------------------------------- launcher


@dataclass(slots=True)
class CampaignOutcome:
    """What one campaign invocation found, ran and left in the store."""

    campaign: str
    specs: list[JobSpec]
    #: Lease workers that drained the pending jobs: 0 when nothing was
    #: pending, 1 for the in-process drain, N for forked workers.
    workers: int = 0
    payloads: dict[str, Any] = field(default_factory=dict)
    #: Jobs already complete in the store when the invocation started.
    cached: set[str] = field(default_factory=set)
    #: Jobs committed by this invocation.
    executed: int = 0
    #: Σ(attempts − 1) over the jobs this invocation committed.
    retried: int = 0
    quarantined: list[dict[str, Any]] = field(default_factory=list)
    #: One exit code per forked worker; None for a worker the launcher
    #: dismissed because every job was settled without it.
    exitcodes: list[int | None] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def degraded(self) -> bool:
        return bool(self.quarantined)

    def results_in_order(self) -> list[Any]:
        """One result payload per spec, in the original spec order."""
        if self.degraded:
            raise CampaignError(self.degraded_report())
        return [self.payloads[spec.content_hash()] for spec in self.specs]

    def summary(self) -> str:
        deaths = sum(1 for code in self.exitcodes if code not in (0, 1, None))
        return (
            f"campaign {self.campaign}: {len(self.specs)} jobs "
            f"({self.executed} run, {len(self.cached)} cached, "
            f"{self.retried} retried) on {self.workers} worker(s), "
            f"{deaths} worker death(s), {len(self.quarantined)} quarantined "
            f"in {self.elapsed:.1f}s"
        )

    def degraded_report(self) -> str:
        """The explicit quarantined-jobs report of a degraded campaign."""
        lines = [
            f"campaign {self.campaign}: DEGRADED — "
            f"{len(self.quarantined)} job(s) quarantined"
        ]
        for record in self.quarantined:
            job = record["job"][:12]
            if record.get("unreadable"):
                lines.append(f"  job {job}: unreadable quarantine record")
                continue
            history = record["history"]
            owners = ", ".join(
                str(entry.get("owner", "?")) for entry in history
            )
            errors = [
                entry.get("error")
                for entry in history
                if entry.get("error")
            ]
            lines.append(
                f"  job {job}: {record['attempts']} attempt(s) "
                f"by [{owners}]"
                + (f"; last error: {errors[-1]}" if errors else "")
            )
        lines.append(
            "  delete their quarantine/ records and re-run with --resume "
            "to retry just these jobs"
        )
        return "\n".join(lines)


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, not the host's)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API
        return os.cpu_count() or 1


def _raise_sigterm(_signum, _frame):
    # SIGTERM normally kills the process outright; as SystemExit it runs
    # the interrupt path instead (abandon leases, report, re-raise).
    raise SystemExit(143)


def _worker_entry(
    store_root: str,
    config: LeaseConfig,
    owner: str,
    spans_path: Path | None,
    chaos_spec: str | None,
    skew: float,
) -> None:
    """Body of one forked lease worker."""
    signal.signal(signal.SIGTERM, _raise_sigterm)
    spans = SpanRecorder() if spans_path is not None else None
    clock: Callable[[], float] = (
        (lambda: time.time() + skew) if skew else time.time
    )
    try:
        run_worker(
            store_root, config=config, owner=owner,
            chaos=WorkerChaos.parse(chaos_spec), clock=clock, spans=spans,
        )
    except KeyboardInterrupt:
        raise SystemExit(130) from None  # quiet: the launcher reports it
    finally:
        if spans is not None:
            spans.dump(spans_path)


def _mp_context():
    """fork when the platform has it, spawn otherwise.

    Forked workers start warm (the simulator is already imported). Fork
    is safe here because the launcher runs no threads of its own: lease
    heartbeat threads only exist inside ``run_worker``, which a launcher
    that forks never calls.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return multiprocessing.get_context("spawn")


def _stop(processes: list, grace: float) -> set[int]:
    """SIGTERM every live worker, wait ``grace``, then SIGKILL; returns
    the ranks that had to be stopped."""
    stopped = {
        rank for rank, process in enumerate(processes) if process.is_alive()
    }
    for rank in stopped:
        processes[rank].terminate()
    deadline = tick() + grace
    for rank in stopped:
        processes[rank].join(max(0.0, deadline - tick()))
        if processes[rank].is_alive():
            processes[rank].kill()
            processes[rank].join()
    return stopped


def _hung(
    manager: LeaseManager, launcher: str, config: LeaseConfig
) -> list[int]:
    """Indices of ``launcher``'s workers still named by the lease of a job
    that ran past ``job_timeout`` and is two polls from expiring.

    The heartbeat stops renewing at ``job_timeout``, and a peer may
    reclaim the lease ``ttl`` after its last renewal. Killing first
    means the hung worker is always replaced, rather than left to be
    dismissed once a peer has quarantined its job.
    """
    prefix, now = f"{launcher}:w", manager.clock()
    horizon = config.ttl - 2 * _POLL_S
    return [
        int(record["owner"][len(prefix):])
        for path in manager.leases_dir.glob("*.json")
        if (record := manager.read(path.stem)) is not None
        and record.get("state") == "active"
        and str(record.get("owner")).startswith(prefix)
        and now - float(record.get("acquired", now)) > config.job_timeout
        and now - float(record.get("heartbeat", now)) > horizon
    ]


def _drain_forked(
    store: ResultStore,
    manager: LeaseManager,
    pending: list[str],
    launcher: str,
    workers: int,
    config: LeaseConfig,
    spans: SpanRecorder | None,
    worker_chaos: list[str | None] | None,
    worker_skews: list[float] | None,
) -> list[int | None]:
    """Fork ``workers`` lease workers and wait out their drain.

    With a ``job_timeout``, a worker still holding a lease ``ttl`` after
    its heartbeat gave up on the job is hung: it is killed (a worker
    death, charged to the job when its lease is reclaimed) and replaced
    by a clean worker, so a job that hangs every time reaches quarantine
    within ``max_reclaims``. Each worker's spans and lease events come
    back through its file under the store (``spans/worker-N.json``),
    merged here even when the drain is interrupted. Once every pending job is
    committed or quarantined, a worker still running after ``grace`` is
    stuck in a fenced-off job and is dismissed rather than waited on.
    """
    spans_dir = store.root / "spans"
    if spans is not None:
        spans_dir.mkdir(exist_ok=True)
    # Sabotage targets the first ``workers`` processes; replacements
    # start clean.
    chaos = list(worker_chaos or ())[:workers]
    skews = list(worker_skews or ())[:workers]
    # Unflushed stdio would be flushed again by every child at exit.
    sys.stdout.flush()
    sys.stderr.flush()
    context = _mp_context()
    processes: list = []
    handoff: list[Path] = []

    def spawn() -> None:
        index = len(processes)
        path = spans_dir / f"worker-{index}.json"
        path.unlink(missing_ok=True)
        process = context.Process(
            target=_worker_entry,
            args=(
                str(store.root), config, f"{launcher}:w{index}",
                path if spans is not None else None,
                chaos[index] if index < len(chaos) else None,
                skews[index] if index < len(skews) else 0.0,
            ),
            name=f"repro-worker-{index}",
        )
        process.start()
        processes.append(process)
        handoff.append(path)

    # A worker idle in backoff notices the drain is over within one
    # backoff_cap sleep (jittered up to 1.5x).
    grace = 2.0 * config.backoff_cap + 1.0
    dismissed: set[int] = set()
    try:
        for _ in range(workers):
            spawn()
        settled_at = None
        while alive := [p for p in processes if p.is_alive()]:
            wait([p.sentinel for p in alive], timeout=_POLL_S)
            if settled_at is None:
                done = store.completed(pending) | manager.quarantined()
                if done.issuperset(pending):
                    settled_at = tick()
                elif config.job_timeout is not None:
                    for index in _hung(manager, launcher, config):
                        if processes[index].is_alive():
                            processes[index].kill()
                            processes[index].join()
                            spawn()
            elif tick() - settled_at > grace:
                dismissed = _stop(processes, grace)
    finally:
        _stop(processes, grace)
        for path in handoff:
            if spans is not None:
                spans.absorb(path)
            path.unlink(missing_ok=True)
        try:
            spans_dir.rmdir()
        except OSError:  # absent, or holding someone else's files
            pass
    return [
        None if index in dismissed else process.exitcode
        for index, process in enumerate(processes)
    ]


def run_campaign(
    store: ResultStore,
    specs: list[JobSpec],
    campaign: str = "campaign",
    jobs: int = 1,
    resume: bool = True,
    options: dict[str, Any] | None = None,
    config: LeaseConfig | None = None,
    spans: SpanRecorder | None = None,
    worker_chaos: list[str | None] | None = None,
    worker_skews: list[float] | None = None,
) -> CampaignOutcome:
    """Run ``specs`` as one campaign over ``store``; every job is durable.

    ``jobs`` caps the lease workers (0 = one per usable CPU); the drain
    uses min(jobs, usable CPUs, pending jobs) of them — in process when
    that is one, forked otherwise. With ``resume`` the jobs already in
    the store are served from it; without, every job runs afresh.
    ``worker_chaos[i]``/``worker_skews[i]`` sabotage forked worker i;
    the in-process drain is never sabotaged (a ``kill`` would take the
    launcher down with it), nor timed out (nothing could stop it).

    ``spans`` receives every worker's track and the launcher's
    ``campaign`` span. SIGINT/SIGTERM reopen every in-flight lease,
    record ``CampaignInterrupted`` and propagate; the store stays
    resumable.
    A drain that ends with a quarantined job returns a *degraded*
    outcome; one that ends with neither raises
    :class:`~repro.common.errors.CampaignError`.
    """
    if not specs:
        raise ConfigError("a campaign needs at least one job spec")
    if jobs < 0:
        raise ConfigError("jobs must be >= 0 (0 = one worker per CPU)")
    started = tick()
    config = config or LeaseConfig()
    outcome = CampaignOutcome(campaign=campaign, specs=list(specs))
    store.write_manifest(campaign, outcome.specs, dict(options or {}))
    manager = LeaseManager(store, config=config, campaign=campaign)
    hashes = [spec.content_hash() for spec in outcome.specs]
    unique = list(dict.fromkeys(hashes))

    records: dict[str, dict] = {}
    if resume:
        from repro.campaign.registry import stored_payload_problem

        for job_hash in store.completed(unique):
            try:
                records[job_hash] = store.load(
                    job_hash, check=stored_payload_problem
                )
            except ConfigError as error:
                # load() moved the corrupt result (or a payload its
                # experiment cannot assemble) aside, so the job is
                # simply pending again.
                print(f"campaign: {error}", file=sys.stderr)
    else:
        for job_hash in unique:
            manager.reset(job_hash)
    outcome.payloads = {h: record["result"] for h, record in records.items()}
    outcome.cached = set(records)

    parked = manager.quarantined()
    pending = [h for h in unique if h not in records and h not in parked]
    cpus = usable_cpus()
    outcome.workers = min(jobs or cpus, cpus, len(pending))
    launcher = make_owner_id()
    try:
        previous_handler = signal.signal(signal.SIGTERM, _raise_sigterm)
    except ValueError:  # not the main thread
        previous_handler = None
    try:
        if outcome.workers == 1:
            run_worker(
                store, config=config, owner=f"{launcher}:w0", spans=spans,
            )
        elif outcome.workers > 1:
            # Import the simulator once, here, so each forked worker
            # inherits it rather than importing it after the fork.
            from repro.campaign.registry import import_experiments

            waiting = set(pending)
            import_experiments(
                spec.experiment
                for spec, job_hash in zip(outcome.specs, hashes)
                if job_hash in waiting
            )
            outcome.exitcodes = _drain_forked(
                store, manager, pending, launcher, outcome.workers, config,
                spans, worker_chaos, worker_skews,
            )
    except (KeyboardInterrupt, SystemExit) as error:
        # Every committed job survives in the store and every in-flight
        # lease is reopened: a resumed run completes just the rest.
        manager.abandon_owned(f"{launcher}:")
        done = store.completed(unique)
        if spans is not None:
            interrupted = isinstance(error, KeyboardInterrupt)
            spans.emit(CampaignInterrupted(
                campaign=campaign,
                signal="SIGINT" if interrupted else "SIGTERM",
                completed=sum(1 for h in hashes if h in done),
                pending=sum(1 for h in hashes if h not in done),
            ))
        raise
    finally:
        if previous_handler is not None:
            signal.signal(signal.SIGTERM, previous_handler)
        if spans is not None:
            spans.name_track(LAUNCHER_TID, "launcher")
            spans.span(
                f"campaign {campaign}", "campaign", started, tick(),
                args={
                    "jobs": len(outcome.specs),
                    "workers": outcome.workers,
                    "cached": len(outcome.cached),
                },
            )

    done = store.completed(pending)
    for job_hash in pending:
        if job_hash in done:
            record = store.load(job_hash)
            outcome.payloads[job_hash] = record["result"]
            outcome.executed += 1
            outcome.retried += record["attempts"] - 1
    parked = manager.quarantined()
    outcome.quarantined = [
        record
        for job_hash in unique
        if job_hash in parked
        and (record := manager.quarantine_record(job_hash)) is not None
    ]
    stalled = [h for h in pending if h not in done and h not in parked]
    if stalled:
        raise CampaignError(
            f"campaign {campaign} stalled: {len(stalled)} job(s) neither "
            f"completed nor quarantined and every worker has exited "
            f"(exit codes {outcome.exitcodes}); re-run with --resume "
            "to finish"
        )
    outcome.elapsed = tick() - started
    return outcome
