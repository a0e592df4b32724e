"""Multi-worker campaign drains: real processes, real SIGKILLs.

The acceptance bar for ``sweep --jobs N`` is byte-identity: however
many lease workers drain the store, and whatever chaos (kills, hangs,
corrupted outcomes, clock skew) hits them mid-drain, the assembled
output must equal the serial run's exactly. These tests fork genuine OS
processes through :func:`repro.campaign.worker.run_campaign` and
sabotage them with deterministic
:class:`~repro.faults.chaos.WorkerChaos` directives.
"""

from __future__ import annotations

import pytest

from repro.campaign import (
    JobSpec,
    LeaseConfig,
    LeaseManager,
    ResultStore,
    get_experiment,
    run_campaign,
    run_worker,
)
from repro.common.errors import ConfigError
from repro.faults.chaos import WorkerChaos
from repro.telemetry import EventBus, RingBufferSink
from repro.telemetry.events import JobQuarantined, LeaseAcquired, LeaseExpired
from tests.campaign_support import (
    calls,
    pin_cpus,
    record_call,
)

TINY_SCALE = "0.02"


@pytest.fixture(autouse=True)
def _tiny_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", TINY_SCALE)
    # Forked worker counts below are exact on every host.
    pin_cpus(monkeypatch, 3)


def _serial_text(target, specs, **options) -> str:
    results = []
    from repro.campaign import execute_spec

    for spec in specs:
        results.append(execute_spec(spec.as_payload())["result"])
    return target.assemble_results(specs, results, **options).format()


def _bus():
    sink = RingBufferSink()
    return sink, EventBus([sink], epoch_refs=0)


# ------------------------------------------------------------ worker chaos


class TestWorkerChaos:
    def test_parse_grammar(self):
        chaos = WorkerChaos.parse("kill@2,hang@1:0.5,poison@abcd")
        assert chaos.kill_after == 2
        assert chaos.hang_at == 1 and chaos.hang_seconds == 0.5
        assert chaos.poison == "abcd" and not chaos.poison_raise

    def test_parse_corrupt(self):
        assert WorkerChaos.parse("corrupt@3").corrupt_at == 3
        with pytest.raises(ConfigError, match="corrupt@N"):
            WorkerChaos.parse("corrupt@0")

    def test_parse_poison_raise(self):
        chaos = WorkerChaos.parse("poison@ab12:raise")
        assert chaos.poison == "ab12" and chaos.poison_raise

    @pytest.mark.parametrize("text", [None, "", "none"])
    def test_parse_empty_means_no_chaos(self, text):
        assert WorkerChaos.parse(text) is None

    @pytest.mark.parametrize(
        "text", ["kill@0", "hang@1:-2", "explode@3", "kill@x"]
    )
    def test_parse_rejects_bad_grammar(self, text):
        with pytest.raises(ConfigError):
            WorkerChaos.parse(text)

    def test_poison_raise_raises_on_matching_hash(self):
        chaos = WorkerChaos.parse("poison@ab:raise")
        chaos.before_execute(1, "ffff")  # no match, no effect
        with pytest.raises(RuntimeError, match="poisoned"):
            chaos.before_execute(1, "abcd")


# -------------------------------------------------------------- run_worker


class TestSingleWorkerDrain:
    def test_drains_a_manifest_to_completion(self, tmp_path):
        target = get_experiment("table1")
        specs = target.jobs(refs=1000)[:4]
        store = ResultStore(tmp_path)
        store.write_manifest("table1", specs, {})
        report = run_worker(store, config=LeaseConfig(ttl=5.0))
        assert report.committed == 4
        assert report.failed == 0 and report.fenced == 0
        done = store.completed([s.content_hash() for s in specs])
        assert len(done) == 4

    def test_second_drain_is_a_noop(self, tmp_path):
        target = get_experiment("table1")
        specs = target.jobs(refs=1000)[:2]
        store = ResultStore(tmp_path)
        store.write_manifest("table1", specs, {})
        run_worker(store)
        again = run_worker(store)
        assert again.committed == 0

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="manifest"):
            run_worker(ResultStore(tmp_path))

    def test_unregistered_experiment_rejected_before_any_lease(
        self, tmp_path
    ):
        """A store written for an experiment that is no longer registered
        is refused up front, not run and quarantined job by job."""
        specs = [
            JobSpec.make("retired", "cell", {"i": i}) for i in range(3)
        ]
        store = ResultStore(tmp_path)
        store.write_manifest("retired", specs, {})
        with pytest.raises(ConfigError, match="unknown experiment 'retired'"):
            run_worker(store)
        assert not list(tmp_path.glob("leases/*"))
        assert not list(tmp_path.glob("quarantine/*"))

    def test_malformed_outcome_is_a_failure_not_a_commit(
        self, tmp_path, patch_execute
    ):
        """An outcome without ``elapsed`` is charged as a failed attempt
        with the lease released, never committed."""
        patch_execute(lambda payload: {"result": "half an outcome"})
        specs = get_experiment("table1").jobs(refs=1000)[:1]
        store = ResultStore(tmp_path)
        store.write_manifest("table1", specs, {})
        report = run_worker(store, config=LeaseConfig(max_reclaims=2))
        job_hash = specs[0].content_hash()
        assert report.failed == 2 and report.committed == 0
        assert report.quarantined == [job_hash]
        assert not store.has(job_hash)
        record = LeaseManager(store).quarantine_record(job_hash)
        assert "malformed job outcome" in record["history"][-1]["error"]


# ------------------------------------------------------------ run_campaign


class TestDistributedDrain:
    def test_one_worker_drains_in_process(self, tmp_path, monkeypatch):
        from repro.campaign import worker as worker_mod

        def no_fork():
            raise AssertionError("one worker must not fork")

        monkeypatch.setattr(worker_mod, "_mp_context", no_fork)
        target = get_experiment("table1")
        specs = target.jobs(refs=1000)[:3]
        outcome = run_campaign(
            ResultStore(tmp_path), specs, campaign="table1", jobs=1
        )
        assert outcome.workers == 1 and outcome.exitcodes == []
        assert outcome.executed == 3

    def test_workers_capped_by_cpus_and_pending_jobs(
        self, tmp_path, monkeypatch
    ):
        pin_cpus(monkeypatch, 2)
        specs = get_experiment("table1").jobs(refs=1000)
        outcome = run_campaign(
            ResultStore(tmp_path / "cpus"), specs, campaign="table1", jobs=8
        )
        assert outcome.workers == 2 and len(outcome.exitcodes) == 2
        outcome = run_campaign(
            ResultStore(tmp_path / "pending"), specs[:1], campaign="table1",
            jobs=8,
        )
        assert outcome.workers == 1

    def test_clean_drain_matches_serial_byte_for_byte(self, tmp_path):
        target = get_experiment("table1")
        specs = target.jobs(refs=1000)
        store = ResultStore(tmp_path)
        outcome = run_campaign(
            store, specs, campaign="table1", jobs=3,
            config=LeaseConfig(ttl=5.0),
        )
        assert outcome.executed == len(specs) and outcome.workers == 3
        assert not outcome.degraded
        text = target.assemble_results(
            specs, outcome.results_in_order()
        ).format()
        assert text == _serial_text(target, specs)

    def test_sigkilled_worker_is_reclaimed_and_output_identical(
        self, tmp_path
    ):
        """The satellite scenario: a worker dies mid-job holding a lease;
        a peer notices the expiry, reclaims, and the campaign output is
        byte-identical to serial."""
        target = get_experiment("table1")
        specs = target.jobs(refs=1000)
        store = ResultStore(tmp_path)
        sink, bus = _bus()
        outcome = run_campaign(
            store, specs, campaign="table1", jobs=3,
            config=LeaseConfig(ttl=0.5),
            telemetry=bus,
            worker_chaos=["kill@2", None, None],
        )
        # SIGKILL shows up as a negative exitcode on the saboteur.
        assert any(code not in (0, 1, None) for code in outcome.exitcodes)
        assert "1 worker death(s)" in outcome.summary()
        assert outcome.executed == len(specs)
        assert not outcome.degraded
        text = target.assemble_results(
            specs, outcome.results_in_order()
        ).format()
        assert text == _serial_text(target, specs)
        # The death is visible in the telemetry: a LeaseExpired for the
        # killed owner, and a reclaimed LeaseAcquired with a bumped token.
        events = sink.events()
        assert not list(store.root.glob("events*"))  # handed off, merged
        expiries = [e for e in events if isinstance(e, LeaseExpired)]
        assert expiries, "the killed worker's lease never expired"
        reclaims = [
            e for e in events
            if isinstance(e, LeaseAcquired) and e.reclaimed
        ]
        assert any(e.token >= 2 for e in reclaims)

    def test_hung_worker_loses_its_lease_but_drain_completes(self, tmp_path):
        """job_timeout turns a hang into an expiry; the woken zombie's
        commit is fenced (or stands down) and correctness holds."""
        target = get_experiment("table1")
        specs = target.jobs(refs=1000)[:6]
        store = ResultStore(tmp_path)
        outcome = run_campaign(
            store, specs, campaign="table1", jobs=2,
            config=LeaseConfig(ttl=0.4, job_timeout=0.2),
            worker_chaos=["hang@1:1.5", None],
        )
        assert outcome.executed == len(specs)
        assert not outcome.degraded
        text = target.assemble_results(
            specs, outcome.results_in_order()
        ).format()
        assert text == _serial_text(target, specs)

    def test_launcher_dismisses_a_worker_stuck_in_a_fenced_job(
        self, tmp_path
    ):
        """Once every job is settled, a worker still asleep in a job its
        peer already committed is stopped, not waited on."""
        target = get_experiment("table1")
        specs = target.jobs(refs=1000)[:4]
        outcome = run_campaign(
            ResultStore(tmp_path), specs, campaign="table1", jobs=2,
            config=LeaseConfig(ttl=0.4, backoff_cap=0.2),
            worker_chaos=["hang@1:60", None],
            # the peer's fast clock takes the sleeper's live lease over
            worker_skews=[0.0, 30.0],
        )
        assert outcome.elapsed < 30
        assert outcome.exitcodes[0] is None  # dismissed, not a death
        assert "0 worker death(s)" in outcome.summary()
        text = target.assemble_results(
            specs, outcome.results_in_order()
        ).format()
        assert text == _serial_text(target, specs)

    def test_timeout_kills_and_replaces_hung_workers(self, tmp_path):
        """Every worker hangs in its first job. The launcher kills each
        one a ttl after its heartbeat gave up and forks a clean
        replacement; with a one-attempt budget the hung jobs end in
        quarantine and the drain ends degraded instead of stuck."""
        target = get_experiment("table1")
        specs = target.jobs(refs=1000)[:4]
        outcome = run_campaign(
            ResultStore(tmp_path), specs, campaign="table1", jobs=2,
            config=LeaseConfig(
                ttl=0.5, job_timeout=0.3, max_reclaims=1, backoff_cap=0.2
            ),
            worker_chaos=["hang@1:600", "hang@1:600"],
        )
        assert outcome.elapsed < 60
        assert outcome.degraded and len(outcome.quarantined) == 2
        assert all(
            record["history"][0]["reason"] == "expired"
            for record in outcome.quarantined
        )
        assert outcome.executed == len(specs) - 2
        assert sorted(outcome.exitcodes) == [-9, -9, 0, 0]
        assert "2 worker death(s)" in outcome.summary()

    def test_clock_skewed_worker_cannot_corrupt_the_drain(self, tmp_path):
        """A fast clock reclaims early and races the live owner; fencing
        plus determinism keep the results correct anyway."""
        target = get_experiment("table1")
        specs = target.jobs(refs=1000)
        store = ResultStore(tmp_path)
        outcome = run_campaign(
            store, specs, campaign="table1", jobs=3,
            config=LeaseConfig(ttl=2.0),
            worker_skews=[30.0, 0.0, -30.0],
        )
        assert outcome.executed == len(specs)
        text = target.assemble_results(
            specs, outcome.results_in_order()
        ).format()
        assert text == _serial_text(target, specs)

    def test_resize_mechanism_experiment_converges_too(self, tmp_path):
        """Acceptance asks for >= 2 registry experiments; resize-mechanism
        is the second (its jobs exercise a different execute path, and its
        options travel through the manifest into assembly)."""
        target = get_experiment("resize-mechanism")
        options = {"resize_mechanism": "flush"}
        specs = target.jobs(**options)
        assert len(specs) == 3
        store = ResultStore(tmp_path)
        outcome = run_campaign(
            store, specs, campaign="resize-mechanism", jobs=2,
            options=options, config=LeaseConfig(ttl=1.0),
            worker_chaos=["kill@1", None],
        )
        assert outcome.executed == len(specs)
        text = target.assemble_results(
            specs, outcome.results_in_order(), **options
        ).format()
        assert text == _serial_text(target, specs, **options)


# -------------------------------------------------------------- quarantine


class TestPoisonQuarantine:
    def test_poison_job_is_parked_and_campaign_degrades(self, tmp_path):
        target = get_experiment("table1")
        specs = target.jobs(refs=1000)[:5]
        store = ResultStore(tmp_path)
        poison = specs[0].content_hash()[:8]
        chaos = f"poison@{poison}:raise"
        sink, bus = _bus()
        outcome = run_campaign(
            store, specs, campaign="table1", jobs=2,
            config=LeaseConfig(ttl=0.5, max_reclaims=2),
            telemetry=bus,
            worker_chaos=[chaos, chaos],
        )
        assert outcome.degraded
        assert outcome.executed == len(specs) - 1
        assert len(outcome.quarantined) == 1
        record = outcome.quarantined[0]
        assert record["job"] == specs[0].content_hash()
        assert record["attempts"] == 2
        assert all(e["reason"] == "failed" for e in record["history"])
        report = outcome.degraded_report()
        assert "DEGRADED" in report and poison[:8] in report
        assert "poisoned" in report  # the last error is named
        # The quarantine event made it into telemetry.
        parked = [
            e for e in sink.events() if isinstance(e, JobQuarantined)
        ]
        assert len(parked) == 1 and parked[0].attempts == 2

    def test_sigkill_crash_loop_quarantines(self, tmp_path):
        """A job that SIGKILLs every worker that touches it must not
        crash-loop the fleet forever."""
        target = get_experiment("table1")
        specs = target.jobs(refs=1000)[:3]
        store = ResultStore(tmp_path)
        poison = specs[0].content_hash()[:8]
        chaos = f"poison@{poison}"  # SIGKILL flavour, not raise
        # Two deaths exhaust the budget; the *third* worker quarantines
        # at the reclaim decision and never touches the job itself.
        outcome = run_campaign(
            store, specs, campaign="table1", jobs=3,
            config=LeaseConfig(ttl=0.4, max_reclaims=2),
            worker_chaos=[chaos, chaos, chaos],
        )
        assert outcome.degraded
        assert outcome.executed == len(specs) - 1
        record = outcome.quarantined[0]
        assert record["attempts"] == 2
        assert all(e["reason"] == "expired" for e in record["history"])

    def test_deterministic_failure_is_quarantined_after_one_execution(
        self, tmp_path, patch_execute
    ):
        """A ConfigError cannot be cured by a retry: the job runs once,
        is parked with the error on record, and the rest completes."""
        from repro.campaign import worker as worker_mod

        target = get_experiment("table1")
        specs = target.jobs(refs=1000)[:3]
        bad = specs[1].content_hash()
        log = tmp_path / "executed"
        original = worker_mod.execute_spec

        def misconfigured(payload):
            from repro.campaign import JobSpec

            job_hash = JobSpec.from_payload(payload).content_hash()
            record_call(log, job_hash)
            if job_hash == bad:
                raise ConfigError("no such cache geometry")
            return original(payload)

        patch_execute(misconfigured)
        store = ResultStore(tmp_path / "store")
        outcome = run_campaign(
            store, specs, campaign="table1",
            config=LeaseConfig(max_reclaims=3),
        )
        assert calls(log).count(bad) == 1
        assert outcome.degraded and outcome.executed == 2
        (record,) = outcome.quarantined
        assert record["job"] == bad and record["attempts"] == 1
        assert record["history"][0]["error"] == "no such cache geometry"
        assert "no such cache geometry" in outcome.degraded_report()
