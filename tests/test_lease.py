"""Unit tests for the lease protocol (:mod:`repro.campaign.lease`).

Everything here runs single-process with an injectable clock — the
protocol's atomicity building blocks (``link``, ``os.replace``)
behave identically whether the competing managers live in one process or
many, so fencing, reclamation, quarantine and abandonment are all
testable without spawning a single worker. Multi-process drains (real
SIGKILLs, hangs, skew) live in ``test_distributed.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import JobSpec, Lease, LeaseConfig, LeaseManager, ResultStore
from repro.campaign import lease as lease_mod
from repro.common.errors import ConfigError
from repro.telemetry import EventBus, RingBufferSink
from repro.telemetry.events import JobQuarantined, LeaseAcquired, LeaseExpired
from tests.campaign_support import deadline


class FakeClock:
    """A hand-cranked wall clock shared (or not) between managers."""

    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _bus() -> tuple[EventBus, RingBufferSink]:
    sink = RingBufferSink(capacity=512)
    return EventBus([sink], epoch_refs=0), sink


def _manager(tmp_path, owner="w1", clock=None, **config) -> LeaseManager:
    return LeaseManager(
        ResultStore(tmp_path / "store"),
        owner=owner,
        config=LeaseConfig(**config),
        clock=clock or FakeClock(),
    )


JOB = "a" * 64


# ------------------------------------------------------------------ config


class TestLeaseConfig:
    def test_heartbeat_defaults_to_third_of_ttl(self):
        assert LeaseConfig(ttl=30.0).heartbeat == pytest.approx(10.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ttl": 0.0},
            {"ttl": -1.0},
            {"heartbeat": -1.0},
            {"ttl": 10.0, "heartbeat": 11.0},
            {"job_timeout": 0.0},
            {"max_reclaims": 0},
            {"backoff": 0.0},
            {"backoff": 2.0, "backoff_cap": 1.0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            LeaseConfig(**kwargs)


# ------------------------------------------------------------- acquisition


class TestAcquisition:
    def test_first_acquire_wins_exclusively(self, tmp_path):
        clock = FakeClock()
        a = _manager(tmp_path, owner="a", clock=clock)
        b = _manager(tmp_path, owner="b", clock=clock)
        lease = a.try_acquire(JOB)
        assert lease is not None
        assert lease.token == 1 and lease.owner == "a"
        assert b.try_acquire(JOB) is None

    def test_live_lease_cannot_be_reclaimed(self, tmp_path):
        clock = FakeClock()
        a = _manager(tmp_path, owner="a", clock=clock, ttl=10.0)
        b = _manager(tmp_path, owner="b", clock=clock, ttl=10.0)
        a.try_acquire(JOB)
        clock.advance(5.0)  # within ttl
        assert b.try_reclaim(JOB) is None

    def test_expired_lease_is_reclaimed_with_bumped_token(self, tmp_path):
        clock = FakeClock()
        a = _manager(tmp_path, owner="a", clock=clock, ttl=10.0)
        b = _manager(tmp_path, owner="b", clock=clock, ttl=10.0)
        a.try_acquire(JOB)
        clock.advance(11.0)
        lease = b.try_reclaim(JOB)
        assert lease is not None and lease.owner == "b"
        assert lease.token == 2  # fencing token is monotonic
        record = b.read(JOB)
        assert record["history"][0]["owner"] == "a"
        assert record["history"][0]["reason"] == "expired"

    def test_racing_reclaimers_cannot_both_win(self, tmp_path):
        """Two peers judged the same record expired; the claim ``link``
        lets only the first take it over."""
        clock = FakeClock()
        a = _manager(tmp_path, owner="a", clock=clock, ttl=10.0)
        b = _manager(tmp_path, owner="b", clock=clock, ttl=10.0)
        c = _manager(tmp_path, owner="c", clock=clock, ttl=10.0)
        a.try_acquire(JOB)
        clock.advance(11.0)
        link = c._link

        def b_slips_in(path, record):
            # c has read the expired record; b takes it over first
            assert b.try_reclaim(JOB) is not None
            return link(path, record)

        c._link = b_slips_in
        assert c.try_reclaim(JOB) is None
        assert c.read(JOB)["owner"] == "b"

    def test_claimant_killed_before_publishing_is_taken_over(
        self, tmp_path, monkeypatch
    ):
        """A claim whose owner died before publishing its record is not a
        dead end: the claim holds the record, which expires in turn."""
        clock = FakeClock()
        a = _manager(tmp_path, owner="a", clock=clock, ttl=10.0)
        b = _manager(tmp_path, owner="b", clock=clock, ttl=10.0)
        c = _manager(tmp_path, owner="c", clock=clock, ttl=10.0)
        spec = JobSpec.make("table1", "combo", {"i": 1})
        job = spec.content_hash()
        a.try_acquire(job)
        clock.advance(11.0)

        def killed(*_args, **_kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(lease_mod, "atomic_write_json", killed)
        with pytest.raises(KeyboardInterrupt):
            b.try_reclaim(job)
        monkeypatch.undo()
        assert c.read(job)["owner"] == "a"  # b never published
        assert c.try_reclaim(job) is None  # b's claimed record is fresh
        clock.advance(11.0)
        lease = c.try_reclaim(job)
        assert lease is not None and lease.token == 3
        assert [e["owner"] for e in c.read(job)["history"]] == ["a", "b"]
        assert c.commit(lease, spec, {"ok": True}, 0.1)
        assert list(c.leases_dir.iterdir()) == []  # claims dropped too

    def test_renew_keeps_a_lease_alive(self, tmp_path):
        clock = FakeClock()
        a = _manager(tmp_path, owner="a", clock=clock, ttl=10.0)
        b = _manager(tmp_path, owner="b", clock=clock, ttl=10.0)
        lease = a.try_acquire(JOB)
        for _ in range(5):
            clock.advance(8.0)
            assert a.renew(lease)
        assert b.try_reclaim(JOB) is None  # heartbeat fresh after 40s

    def test_renew_never_overwrites_a_reclaimer(self, tmp_path):
        clock = FakeClock()
        a = _manager(tmp_path, owner="a", clock=clock, ttl=10.0)
        b = _manager(tmp_path, owner="b", clock=clock, ttl=10.0)
        stale = a.try_acquire(JOB)
        clock.advance(11.0)
        fresh = b.try_reclaim(JOB)
        assert not a.renew(stale)
        assert stale.lost
        record = b.read(JOB)
        assert record["owner"] == "b" and record["token"] == fresh.token


# ----------------------------------------------------------------- fencing


class TestFencing:
    def _spec(self) -> JobSpec:
        return JobSpec.make("table1", "combo", {"x": 1})

    def test_commit_publishes_and_releases(self, tmp_path):
        spec = self._spec()
        m = _manager(tmp_path, owner="a")
        lease = m.try_acquire(spec.content_hash())
        assert m.commit(lease, spec, {"ok": True}, 0.5)
        assert m.store.has(spec.content_hash())
        assert m.read(spec.content_hash()) is None  # lease file gone

    def test_zombie_commit_is_fenced(self, tmp_path):
        """The core safety property: a reclaimed worker cannot publish."""
        spec = self._spec()
        job = spec.content_hash()
        clock = FakeClock()
        zombie = _manager(tmp_path, owner="z", clock=clock, ttl=10.0)
        peer = _manager(tmp_path, owner="p", clock=clock, ttl=10.0)
        stale = zombie.try_acquire(job)
        clock.advance(11.0)
        fresh = peer.try_reclaim(job)
        # The zombie wakes up and tries to publish its result.
        assert not zombie.commit(stale, spec, {"who": "zombie"}, 0.1)
        assert stale.lost
        assert not zombie.store.has(job)
        # The legitimate holder's commit goes through.
        assert peer.commit(fresh, spec, {"who": "peer"}, 0.1)
        assert peer.store.load_result(job) == {"who": "peer"}

    def test_duplicate_commit_stands_down(self, tmp_path):
        """First os.replace wins; the second committer defers to it."""
        spec = self._spec()
        job = spec.content_hash()
        clock = FakeClock()
        a = _manager(tmp_path, owner="a", clock=clock, ttl=10.0)
        b = _manager(tmp_path, owner="b", clock=clock, ttl=10.0)
        first = a.try_acquire(job)
        clock.advance(11.0)
        second = b.try_reclaim(job)
        assert b.commit(second, spec, {"n": 1}, 0.1)
        assert not a.commit(first, spec, {"n": 1}, 0.1)

    def test_release_preserves_a_reclaimers_record(self, tmp_path):
        spec = self._spec()
        job = spec.content_hash()
        clock = FakeClock()
        a = _manager(tmp_path, owner="a", clock=clock, ttl=10.0)
        b = _manager(tmp_path, owner="b", clock=clock, ttl=10.0)
        stale = a.try_acquire(job)
        clock.advance(11.0)
        b.try_reclaim(job)
        a._release(stale)  # must not unlink b's lease
        assert b.read(job)["owner"] == "b"


# ------------------------------------------------------------- quarantine


class TestQuarantine:
    def test_failures_exhaust_the_budget(self, tmp_path):
        clock = FakeClock()
        m = _manager(tmp_path, owner="a", clock=clock, ttl=10.0,
                     max_reclaims=2)
        lease = m.try_acquire(JOB)
        assert m.fail(lease, RuntimeError("boom 1"))  # released, reclaimable
        lease = m.try_reclaim(JOB)
        assert lease is not None and lease.token == 2
        assert not m.fail(lease, RuntimeError("boom 2"))  # quarantined
        assert m.quarantined() == {JOB}
        record = m.quarantine_record(JOB)
        assert record["attempts"] == 2
        assert [e["error"] for e in record["history"]] == ["boom 1", "boom 2"]
        assert m.read(JOB) is None  # lease file removed
        assert m.try_acquire(JOB) is None  # parked jobs stay dead
        assert m.try_reclaim(JOB) is None

    def test_expiries_exhaust_the_budget(self, tmp_path):
        clock = FakeClock()
        configs = dict(ttl=10.0, max_reclaims=2)
        a = _manager(tmp_path, owner="a", clock=clock, **configs)
        b = _manager(tmp_path, owner="b", clock=clock, **configs)
        a.try_acquire(JOB)
        clock.advance(11.0)
        assert b.try_reclaim(JOB) is not None  # death #1, token 2
        clock.advance(11.0)
        assert b.try_reclaim(JOB) is None  # death #2 hits the budget
        assert b.quarantined() == {JOB}
        owners = [e["owner"] for e in b.quarantine_record(JOB)["history"]]
        assert owners == ["a", "b"]

    def test_abandon_does_not_charge_the_budget(self, tmp_path):
        clock = FakeClock()
        m = _manager(tmp_path, owner="a", clock=clock, ttl=10.0,
                     max_reclaims=1)
        lease = m.try_acquire(JOB)
        m.abandon(lease)  # SIGINT path: worker's story, not the job's
        record = m.read(JOB)
        assert record["state"] == "open" and record["history"] == []
        # Immediately reclaimable without counting as a death, even with
        # a budget of one.
        lease = m.try_reclaim(JOB)
        assert lease is not None and lease.token == 2
        assert m.quarantined() == set()

    def test_abandon_owned_reopens_only_those_owners_leases(self, tmp_path):
        """A launcher reopens the leases its exited workers still hold,
        and nobody else's."""
        ours = _manager(tmp_path, owner="launcher:w0")
        theirs = _manager(tmp_path, owner="elsewhere")
        other = "b" * 64
        ours.try_acquire(JOB)
        theirs.try_acquire(other)
        ours.abandon_owned("launcher:")
        assert ours.read(JOB)["state"] == "open"
        assert ours.read(other)["state"] == "active"
        # acquisition leaves nothing behind but the leases themselves
        names = sorted(p.name for p in ours.leases_dir.iterdir())
        assert names == [f"{JOB}.json", f"{other}.json"]


# --------------------------------------------------------------- telemetry


class TestLeaseTelemetry:
    def test_protocol_events_carry_wall_clock(self, tmp_path):
        bus, sink = _bus()
        clock = FakeClock(500.0)
        config = dict(ttl=10.0, max_reclaims=2)
        a = LeaseManager(ResultStore(tmp_path / "s"), owner="a",
                         config=LeaseConfig(**config), telemetry=bus,
                         clock=clock, campaign="t")
        b = LeaseManager(a.store, owner="b",
                         config=LeaseConfig(**config), telemetry=bus,
                         clock=clock, campaign="t")
        a.try_acquire(JOB)
        clock.advance(11.0)
        b.try_reclaim(JOB)
        clock.advance(11.0)
        b.try_reclaim(JOB)  # quarantines
        events = sink.events()
        acquired = [e for e in events if isinstance(e, LeaseAcquired)]
        expired = [e for e in events if isinstance(e, LeaseExpired)]
        parked = [e for e in events if isinstance(e, JobQuarantined)]
        assert [(e.owner, e.token, e.reclaimed) for e in acquired] == [
            ("a", 1, False), ("b", 2, True),
        ]
        assert [(e.owner, e.by) for e in expired] == [("a", "b"), ("b", "b")]
        assert expired[0].age == pytest.approx(11.0)
        assert len(parked) == 1
        assert parked[0].attempts == 2 and parked[0].owners == ["a", "b"]
        assert all(e.at >= 500.0 for e in acquired + expired + parked)

    def test_events_round_trip_as_json(self):
        from repro.telemetry.events import event_from_dict

        for event in (
            LeaseAcquired(campaign="c", job=JOB, owner="a", token=3,
                          reclaimed=True, at=1.5),
            LeaseExpired(campaign="c", job=JOB, owner="a", token=3,
                         age=12.5, by="b", at=2.5),
            JobQuarantined(campaign="c", job=JOB, attempts=2,
                           owners=["a", "b"], at=3.5),
        ):
            payload = json.loads(json.dumps(event.as_dict()))
            assert event_from_dict(payload) == event


# ------------------------------------------------------------- edge cases


class TestEdgeCases:
    def test_torn_lease_record_treated_as_absent(self, tmp_path):
        m = _manager(tmp_path, owner="a")
        m.try_acquire(JOB)
        m._lease_path(JOB).write_text("{torn")
        assert m.read(JOB) is None
        assert m.try_reclaim(JOB) is None  # nothing to go through

    def test_owner_of_a_set_aside_record_is_fenced(self, tmp_path):
        spec = JobSpec.make("table1", "combo", {"x": 1})
        job = spec.content_hash()
        a = _manager(tmp_path, owner="a")
        b = _manager(tmp_path, owner="b")
        stale = a.try_acquire(job)
        a._lease_path(job).write_text("{torn")
        fresh = b.try_acquire(job) or b.try_reclaim(job) or b.try_acquire(job)
        assert fresh is not None and fresh.owner == "b"
        assert not a.renew(stale) and stale.lost
        assert not a.commit(stale, spec, {"who": "a"}, 0.1)
        assert b.commit(fresh, spec, {"who": "b"}, 0.1)
        assert b.store.load_result(job) == {"who": "b"}

    def test_claim_naming_its_own_record_is_set_aside(self, tmp_path):
        """A claim must carry a higher token than the record it takes
        over; one that repeats it would be followed forever."""
        clock = FakeClock()
        m = _manager(tmp_path, owner="a", clock=clock, ttl=10.0)
        m.try_acquire(JOB)
        record = m.read(JOB)
        m._claim_path(JOB, record).write_text(json.dumps(record))
        clock.advance(11.0)
        with deadline(30):
            lease = m.try_reclaim(JOB)
        assert lease is not None and lease.token == 2

    def test_fail_after_reclaim_is_a_noop(self, tmp_path):
        clock = FakeClock()
        a = _manager(tmp_path, owner="a", clock=clock, ttl=10.0)
        b = _manager(tmp_path, owner="b", clock=clock, ttl=10.0)
        stale = a.try_acquire(JOB)
        clock.advance(11.0)
        b.try_reclaim(JOB)
        assert a.fail(stale, RuntimeError("late"))  # reclaimer owns the story
        record = b.read(JOB)
        assert record["owner"] == "b"
        assert all(e["reason"] != "failed" for e in record["history"])

    def test_open_record_reclaim_preserves_history(self, tmp_path):
        """fail() already wrote its chapter; reclaim must not double it."""
        clock = FakeClock()
        m = _manager(tmp_path, owner="a", clock=clock, ttl=10.0,
                     max_reclaims=3)
        lease = m.try_acquire(JOB)
        m.fail(lease, RuntimeError("boom"))
        lease = m.try_reclaim(JOB)
        assert len(m.read(JOB)["history"]) == 1
        assert lease.token == 2

    def test_acquire_stands_down_for_a_parked_or_committed_job(self, tmp_path):
        """A peer that parks or commits a job drops its lease file, which
        reopens ``O_EXCL`` for a worker still mid-pass; the check after
        the create must catch it, or the job runs again."""
        a = _manager(tmp_path, owner="a")
        b = _manager(tmp_path, owner="b")
        lease = a.try_acquire(JOB)
        assert not a.fail(lease, ConfigError("bad"), retry=False)  # parked
        assert b.try_acquire(JOB) is None
        assert b.read(JOB) is None  # the probe left no lease behind

        spec = JobSpec.make("table1", "combo", {"i": 1})
        done = spec.content_hash()
        a.commit(a.try_acquire(done), spec, {"ok": True}, 0.1)
        assert b.try_acquire(done) is None
        assert b.read(done) is None
