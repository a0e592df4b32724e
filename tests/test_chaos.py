"""Tests for campaign chaos testing and graceful interruption.

Covers the worker chaos directives (:class:`~repro.faults.chaos.
WorkerChaos`: each fires at most once per worker, and a worker without
chaos runs exactly as before), the worker-side handling of ``hang`` and
``corrupt`` (a corrupted outcome is rejected before commit and retried),
the end-to-end convergence guarantee (a chaos campaign's reassembled
output is byte-identical to a clean serial run), and SIGINT/SIGTERM
interruption with durable progress plus a ``CampaignInterrupted``
telemetry event — with one in-process worker and with forked workers.
"""

from __future__ import annotations

import json
import os
import signal

import pytest

from repro.campaign import (
    LeaseConfig,
    ResultStore,
    get_experiment,
    run_campaign,
    run_worker,
)
from repro.campaign import worker as worker_mod
from repro.faults import WorkerChaos
from repro.faults.chaos import CORRUPT_OUTCOME
from repro.telemetry import EventBus, RingBufferSink
from repro.telemetry.events import CampaignInterrupted
from tests.campaign_support import (
    calls,
    first_time,
    pin_cpus,
    record_call,
)

#: Same tiny-scale pin as tests/test_campaign.py: real numbers, fast jobs.
TINY_SCALE = "0.02"


@pytest.fixture(autouse=True)
def _tiny_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", TINY_SCALE)
    pin_cpus(monkeypatch, 2)


def _bus():
    sink = RingBufferSink()
    return sink, EventBus([sink], epoch_refs=0)


def _drained_store(tmp_path, count: int = 3) -> ResultStore:
    store = ResultStore(tmp_path)
    specs = get_experiment("table1").jobs(refs=1000)[:count]
    store.write_manifest("table1", specs, {})
    return store


def _stored_hashes(store: ResultStore) -> list[str]:
    return [entry["hash"] for entry in store.read_manifest()["jobs"]]


def _stored(store: ResultStore) -> dict[str, object]:
    return {h: store.load_result(h) for h in _stored_hashes(store)}


# ------------------------------------------------------- chaos directives


class TestChaosDirectives:
    def test_disabled_chaos_returns_none(self):
        """No directive (or an explicit "none") means no WorkerChaos at
        all, so the drain takes no chaos branch whatsoever."""
        for text in (None, "", "none", " NONE "):
            assert WorkerChaos.parse(text) is None

    def test_each_job_is_sabotaged_at_most_once(self, tmp_path):
        """Directives count acquisitions, so the corrupted job's retry
        runs clean and the drain converges."""
        chaos = WorkerChaos.parse("corrupt@1")
        outcome = {"result": 1, "elapsed": 0.0}
        assert chaos.after_execute(1, outcome) == CORRUPT_OUTCOME
        assert chaos.after_execute(2, outcome) is outcome

        store = _drained_store(tmp_path)
        report = run_worker(store, chaos=chaos)
        assert report.failed == 1  # the one sabotaged attempt
        assert report.committed == 3
        attempts = [store.load(h)["attempts"] for h in _stored(store)]
        assert sorted(attempts) == [1, 1, 2]


class TestWorkerChaosDirectives:
    def test_no_directives_matches_benign_directives(self, tmp_path):
        plain = _drained_store(tmp_path / "plain")
        run_worker(plain)
        benign = _drained_store(tmp_path / "benign")
        run_worker(benign, chaos=WorkerChaos.parse("kill@99,corrupt@99"))
        assert _stored(plain) == _stored(benign)

    def test_corrupt_directive_returns_malformed_outcome(self, tmp_path):
        store = _drained_store(tmp_path, count=1)
        report = run_worker(
            store, chaos=WorkerChaos.parse("corrupt@1"),
            config=LeaseConfig(max_reclaims=1),
        )
        # The shape the outcome check must reject: no elapsed. With a
        # one-attempt budget the job is parked, never committed.
        assert "elapsed" not in CORRUPT_OUTCOME
        assert report.committed == 0 and report.quarantined
        assert store.completed(_stored_hashes(store)) == set()

    def test_hang_directive_sleeps_then_executes(self, tmp_path):
        store = _drained_store(tmp_path, count=1)
        report = run_worker(store, chaos=WorkerChaos.parse("hang@1:0.01"))
        assert report.committed == 1 and report.failed == 0


# ------------------------------------------------------ chaos campaign run


class TestChaosCampaign:
    def test_chaos_run_is_byte_identical_to_clean_serial(self, tmp_path):
        """The headline guarantee: a killed worker, a hung one and a
        corrupted outcome change nothing about the reassembled output,
        only the road there."""
        target = get_experiment("degradation")
        specs = target.jobs(refs=12_000)
        clean = run_campaign(
            ResultStore(tmp_path / "clean"), specs, campaign="degradation"
        )
        clean_text = target.assemble_results(
            specs, clean.results_in_order()
        ).format()

        chaos_store = ResultStore(tmp_path / "chaos")
        outcome = run_campaign(
            chaos_store, specs, campaign="degradation", jobs=2,
            config=LeaseConfig(ttl=0.5, job_timeout=0.3, backoff_cap=0.2),
            worker_chaos=["kill@2", "corrupt@1,hang@2:1"],
        )
        chaos_text = target.assemble_results(
            specs, outcome.results_in_order()
        ).format()
        assert chaos_text == clean_text
        assert outcome.workers == 2
        assert any(code not in (0, 1, None) for code in outcome.exitcodes)
        # the corrupted attempt and the killed worker's lease both cost
        # their job one extra attempt
        assert outcome.retried >= 2

        # resume-after-chaos: everything is durable, nothing re-executes
        resumed = run_campaign(chaos_store, specs, campaign="degradation")
        assert resumed.executed == 0
        assert len(resumed.cached) == len(specs)
        resumed_text = target.assemble_results(
            specs, resumed.results_in_order()
        ).format()
        assert resumed_text == clean_text

    def test_serial_campaigns_ignore_chaos(self, tmp_path):
        """Chaos only sabotages forked workers; a jobs=1 campaign drains
        in process, where a kill directive would take the launcher down,
        and completes cleanly in one pass."""
        target = get_experiment("table1")
        specs = target.jobs(refs=1000)
        outcome = run_campaign(
            ResultStore(tmp_path), specs, campaign="table1", jobs=1,
            worker_chaos=["kill@1"],
        )
        assert outcome.workers == 1
        assert outcome.executed == len(specs)
        assert outcome.retried == 0


# ------------------------------------------------------------ interruption


class _InterruptionContract:
    """Interrupt a table1 campaign with a real signal to the launcher,
    sent just before the fourth job starts (from the in-process worker,
    or from a forked one)."""

    JOBS = 1
    AFTER = 3

    def _interrupted(self, tmp_path, patch_execute, signum):
        target = get_experiment("table1")
        specs = target.jobs(refs=1000)
        store = ResultStore(tmp_path / "store")
        sink, bus = _bus()
        launcher = os.getpid()
        original = worker_mod.execute_spec
        log = tmp_path / "calls"

        def signalling(payload):
            if record_call(log) > self.AFTER and first_time(
                tmp_path, "signalled"
            ):
                os.kill(launcher, signum)
            return original(payload)

        patch_execute(signalling)
        expected = KeyboardInterrupt if signum == signal.SIGINT else SystemExit
        with pytest.raises(expected):
            run_campaign(
                store, specs, campaign="table1", jobs=self.JOBS,
                telemetry=bus,
            )
        patch_execute(original)
        events = [
            e for e in sink.events() if isinstance(e, CampaignInterrupted)
        ]
        done = store.completed([s.content_hash() for s in specs])
        assert len(events) == 1
        assert events[0].completed == len(done)
        assert events[0].pending == len(specs) - len(done)
        if self.JOBS == 1:
            assert len(done) == self.AFTER
        else:  # the other worker may or may not finish its job first
            assert 1 <= len(done) <= self.AFTER
        # every in-flight lease was reopened, none left to expire
        leases = (store.root / "leases").glob("*.json")
        assert all(json.loads(p.read_text())["state"] == "open" for p in leases)
        return target, specs, store, events[0]

    def test_sigint_emits_interrupted_event_and_preserves_progress(
        self, tmp_path, patch_execute
    ):
        _t, _s, _store, event = self._interrupted(
            tmp_path, patch_execute, signal.SIGINT
        )
        assert event.signal == "SIGINT"

    def test_real_sigterm_is_trapped_and_reported(
        self, tmp_path, patch_execute
    ):
        """An actual SIGTERM delivered mid-campaign goes through the
        launcher's translated handler: the event says SIGTERM, progress
        survives, and SystemExit propagates to the caller."""
        _t, _s, _store, event = self._interrupted(
            tmp_path, patch_execute, signal.SIGTERM
        )
        assert event.signal == "SIGTERM"

    def test_sigterm_handler_is_restored_after_the_run(self, tmp_path):
        target = get_experiment("table1")
        specs = target.jobs(refs=1000)[:2]
        before = signal.getsignal(signal.SIGTERM)
        run_campaign(
            ResultStore(tmp_path), specs, campaign="table1", jobs=self.JOBS
        )
        assert signal.getsignal(signal.SIGTERM) is before

    def test_resumed_run_after_interrupt_completes_the_rest(
        self, tmp_path, patch_execute
    ):
        """The acceptance scenario: interrupt, resume, finish — and the
        final output matches an uninterrupted serial run byte for byte."""
        target, specs, store, event = self._interrupted(
            tmp_path, patch_execute, signal.SIGINT
        )
        done = store.completed([s.content_hash() for s in specs])
        log = tmp_path / "resumed"
        original = worker_mod.execute_spec

        def counting(payload):
            record_call(log, "+".join(payload["params"]["combo"]))
            return original(payload)

        patch_execute(counting)
        resumed = run_campaign(
            store, specs, campaign="table1", jobs=self.JOBS
        )
        # Only the unfinished jobs run, each exactly once: of two
        # workers racing for one reopened lease, one claims it.
        assert sorted(calls(log)) == sorted(
            "+".join(s.params_dict["combo"])
            for s in specs if s.content_hash() not in done
        )
        assert resumed.executed == event.pending
        assert len(resumed.cached) == event.completed
        resumed_text = target.assemble_results(
            specs, resumed.results_in_order()
        ).format()

        patch_execute(original)
        clean = run_campaign(
            ResultStore(tmp_path / "clean"), specs, campaign="table1"
        )
        clean_text = target.assemble_results(
            specs, clean.results_in_order()
        ).format()
        assert resumed_text == clean_text


class TestInterruption(_InterruptionContract):
    """The launcher's own in-process worker is interrupted."""


class TestInterruptionForked(_InterruptionContract):
    """A forked worker signals the launcher mid-drain."""

    JOBS = 2
