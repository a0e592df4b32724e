"""Tests for the campaign subsystem: specs, store, executor, registry.

The heavyweight guarantees — resume after a mid-campaign crash and
serial-vs-parallel byte equality — run at tiny scale (``REPRO_SCALE``
pinned small) so the suite stays fast; the full-scale equivalents live
in ``benchmarks/test_perf_campaign.py``. Every executor contract runs
twice: with one lease worker draining in process (``TestRunner``) and
with two forked workers (``TestRunnerForked``).
"""

from __future__ import annotations

import io
import json
import shutil
from contextlib import redirect_stderr, redirect_stdout

import pytest

from repro.campaign import (
    JobSpec,
    LeaseConfig,
    ResultStore,
    execute_spec,
    experiment_names,
    get_experiment,
    run_campaign,
)
from repro.cli import main
from repro.common.errors import CampaignError, ConfigError
from repro.prof.spans import SpanRecorder
from repro.sim.experiments.defs import shape_problem
from repro.telemetry import events_from_trace
from repro.telemetry.events import LeaseAcquired
from repro.campaign import worker as worker_mod
from tests.campaign_support import (
    calls,
    deadline,
    first_time,
    pin_cpus,
    record_call,
)

#: Small but above the scaled() floor, so the numbers are real.
TINY_SCALE = "0.02"
TINY_REFS = 20_000


@pytest.fixture(autouse=True)
def _tiny_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", TINY_SCALE)


# ------------------------------------------------------------------- specs


class TestJobSpec:
    def test_hash_ignores_param_order(self):
        a = JobSpec.make("table1", "combo", {"x": 1, "y": [2, 3]}, seed=5)
        b = JobSpec.make("table1", "combo", {"y": [2, 3], "x": 1}, seed=5)
        assert a.content_hash() == b.content_hash()

    def test_hash_covers_every_identity_field(self):
        base = JobSpec.make("table1", "combo", {"x": 1}, seed=1, scale=1.0)
        variants = [
            JobSpec.make("table2", "combo", {"x": 1}, seed=1, scale=1.0),
            JobSpec.make("table1", "cell", {"x": 1}, seed=1, scale=1.0),
            JobSpec.make("table1", "combo", {"x": 2}, seed=1, scale=1.0),
            JobSpec.make("table1", "combo", {"x": 1}, seed=2, scale=1.0),
            JobSpec.make("table1", "combo", {"x": 1}, seed=1, scale=0.5),
        ]
        hashes = {spec.content_hash() for spec in variants}
        assert base.content_hash() not in hashes
        assert len(hashes) == len(variants)

    def test_captures_current_scale(self):
        spec = JobSpec.make("table1", "combo", {})
        assert spec.scale == pytest.approx(float(TINY_SCALE))

    def test_payload_round_trip(self):
        spec = JobSpec.make(
            "figure5", "cell", {"size_mb": 4, "kind": "molecular"}, seed=9
        )
        clone = JobSpec.from_payload(
            json.loads(json.dumps(spec.as_payload()))
        )
        assert clone == spec
        assert clone.content_hash() == spec.content_hash()

    def test_rejects_unserialisable_params(self):
        with pytest.raises(ConfigError):
            JobSpec.make("table1", "combo", {"bad": object()})


# ------------------------------------------------------------------- store


class TestResultStore:
    def test_save_load_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = JobSpec.make("table1", "combo", {"x": 1})
        job_hash = store.save(spec, {"rates": {"art": 0.5}}, 1.25, attempts=2)
        assert store.has(job_hash)
        record = store.load(job_hash)
        assert record["result"] == {"rates": {"art": 0.5}}
        assert record["attempts"] == 2
        assert record["spec"]["experiment"] == "table1"

    def test_no_partial_files_left_behind(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = JobSpec.make("table1", "combo", {})
        store.save(spec, {"ok": True}, 0.0, 1)
        leftovers = [p for p in store.results_dir.iterdir()
                     if p.suffix != ".json"]
        assert leftovers == []

    def test_completed_subset(self, tmp_path):
        store = ResultStore(tmp_path)
        done = JobSpec.make("table1", "combo", {"i": 1})
        missing = JobSpec.make("table1", "combo", {"i": 2})
        store.save(done, {}, 0.0, 1)
        hashes = [done.content_hash(), missing.content_hash()]
        assert store.completed(hashes) == {done.content_hash()}

    def test_manifest_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.read_manifest() is None
        specs = [JobSpec.make("table1", "combo", {"i": i}) for i in range(3)]
        store.write_manifest("table1", specs, {"graph": "A"})
        manifest = store.read_manifest()
        assert manifest["campaign"] == "table1"
        assert [j["hash"] for j in manifest["jobs"]] == [
            s.content_hash() for s in specs
        ]

    def test_corrupt_result_is_reported(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = JobSpec.make("table1", "combo", {})
        job_hash = store.save(spec, {}, 0.0, 1)
        (store.results_dir / f"{job_hash}.json").write_text("{not json")
        with pytest.raises(ConfigError, match="corrupt"):
            store.load(job_hash)

    def test_corrupt_result_is_quarantined_and_job_incomplete(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = JobSpec.make("table1", "combo", {})
        job_hash = store.save(spec, {}, 0.0, 1)
        path = store.results_dir / f"{job_hash}.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="quarantined"):
            store.load(job_hash)
        # The bad file was moved aside, not deleted (forensics), and the
        # job now counts as incomplete so a resume re-runs it.
        assert not path.exists()
        assert (store.results_dir / f"{job_hash}.json.corrupt").exists()
        assert not store.has(job_hash)
        assert store.completed([job_hash]) == set()

    def test_completed_single_scandir_matches_per_hash_stats(self, tmp_path):
        store = ResultStore(tmp_path)
        specs = [JobSpec.make("table1", "combo", {"i": i}) for i in range(6)]
        for spec in specs[:4]:
            store.save(spec, {}, 0.0, 1)
        hashes = [s.content_hash() for s in specs]
        assert store.completed(hashes) == {
            h for h in hashes if store.has(h)
        }
        # Unknown hashes and an empty request behave sanely.
        assert store.completed(["deadbeef"]) == set()
        assert store.completed([]) == set()

    def test_completed_on_missing_results_dir(self, tmp_path):
        store = ResultStore(tmp_path)
        store.results_dir.rmdir()
        assert store.completed(["deadbeef"]) == set()

    def test_manifest_version_mismatch_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        specs = [JobSpec.make("table1", "combo", {})]
        store.write_manifest("table1", specs, {})
        manifest = json.loads(store.manifest_path.read_text())
        manifest["version"] = 99
        store.manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ConfigError, match="version 99"):
            store.read_manifest()

    def test_manifest_missing_version_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        store.manifest_path.write_text('{"campaign": "x", "jobs": []}')
        with pytest.raises(ConfigError, match="incompatible"):
            store.read_manifest()


# ---------------------------------------------------------------- registry


class TestRegistry:
    def test_every_cli_experiment_is_registered(self):
        assert experiment_names() == [
            "table1", "table2", "table4", "table5", "figure5",
            "degradation", "figure6", "resize-mechanism",
        ]

    def test_defaults_match_the_old_cli_ladder(self):
        expected = {
            "table1": 500_000,
            "table2": 300_000,
            "table4": 150_000,
            "table5": 300_000,
            "figure5": 400_000,
            "degradation": 200_000,
            "figure6": 300_000,
            "resize-mechanism": 60_000,
        }
        for name, refs in expected.items():
            assert get_experiment(name).default_refs == refs

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            get_experiment("table9")

    def test_unknown_option_rejected(self):
        with pytest.raises(ConfigError, match="does not accept"):
            get_experiment("table1").jobs(refs=1000, graph="A")

    def test_non_positive_refs_rejected(self):
        with pytest.raises(ConfigError, match="positive"):
            get_experiment("table1").jobs(refs=-5)

    def test_table1_decomposes_into_eleven_combos(self):
        specs = get_experiment("table1").jobs(refs=TINY_REFS)
        assert len(specs) == 11  # 4 alone + 6 pairs + 1 quartet
        assert specs[0].params_dict["combo"] == ["art"]
        assert specs[-1].params_dict["combo"] == ["art", "mcf", "ammp", "parser"]

    def test_figure5_decomposes_into_design_size_cells(self):
        specs = get_experiment("figure5").jobs(refs=TINY_REFS, graph="B")
        assert len(specs) == 24  # 6 designs x 4 sizes
        assert all(s.params_dict["graph"] == "B" for s in specs)
        # series-major, sizes fastest — the figure's series order
        assert [s.params_dict["size_mb"] for s in specs[:4]] == [1, 2, 4, 8]
        assert specs[0].params_dict["label"] == "Direct Mapped"
        assert specs[-1].params_dict["label"] == "Molecular (Randy)"

    def test_table2_lists_its_six_cells_in_table_order(self):
        specs = get_experiment("table2").jobs(refs=TINY_REFS)
        assert [s.params_dict["label"] for s in specs] == [
            "4MB 4way", "4MB 8way", "8MB 4way", "8MB 8way",
            "6MB Molecular Randy", "6MB Molecular Random",
        ]
        assert {s.experiment for s in specs} == {"table2"}
        assert {s.job for s in specs} == {"cell"}
        assert {s.params_dict["refs"] for s in specs} == {10_000}  # scaled

    @pytest.mark.parametrize("name, labels", [
        ("figure6", ["6MB Molecular Randy", "6MB Molecular Random"]),
        ("table4", ["6MB Molecular Randy"]),
        ("table5", ["8MB 4way", "8MB 8way", "6MB Molecular Randy"]),
    ])
    def test_table2_family_lists_table2_jobs(self, name, labels):
        """Equal refs and seed give the same jobs, hashes included, so
        one store serves Table 2 and the experiments that read it."""
        table2 = {
            s.params_dict["label"]: s
            for s in get_experiment("table2").jobs(refs=TINY_REFS, seed=3)
        }
        specs = get_experiment(name).jobs(refs=TINY_REFS, seed=3)
        assert [s.params_dict["label"] for s in specs] == labels
        assert [s.content_hash() for s in specs] == [
            table2[label].content_hash() for label in labels
        ]


# ---------------------------------------------------------------- pipeline


class TestOnePipeline:
    """``run_serial`` and a campaign run the same jobs through the same
    cells and assemble them with the same ``defs`` function."""

    @pytest.mark.parametrize("name, options", [
        ("table1", {}),
        ("figure5", {"graph": "A"}),
        ("figure5", {"graph": "B"}),
        ("degradation", {}),
        ("resize-mechanism", {}),
        ("table2", {}),
    ], ids=["table1", "figure5-A", "figure5-B", "degradation",
            "resize-mechanism", "table2"])
    def test_run_serial_matches_the_campaign(self, tmp_path, name, options):
        target = get_experiment(name)
        specs = target.jobs(refs=1000, **options)
        outcome = run_campaign(
            ResultStore(tmp_path), specs, campaign=name, jobs=1,
            options=options,
        )
        payloads = outcome.results_in_order()
        for spec, payload in zip(specs, payloads):
            # what run_cell produced has the shape its defs module states
            shape = target.payload_shape(spec.params_dict)
            assert shape_problem(payload, shape) is None
        swept = target.assemble_results(specs, payloads, **options)
        serial = target.run_serial(refs=1000, **options)
        assert serial.format() == swept.format()

    def test_figure5_trace_memo_leaks_nothing(self):
        """A cell's payload does not depend on which cells ran before it
        in the process, nor on whether its traces were memoised."""
        from repro.sim.experiments import common, figure5

        def payload(refs: int, seed: int) -> dict:
            spec = get_experiment("figure5").jobs(refs=refs, seed=seed)[-1]
            return figure5.run_cell(spec.params_dict, spec.seed)

        first = payload(1000, 1)
        assert payload(550_000, 2) != first  # another (refs, seed) key
        assert payload(1000, 1) == first
        common.shared_traces.cache_clear()
        assert payload(1000, 1) == first
        assert common.shared_traces.cache_info().currsize == 1

    @pytest.mark.parametrize("name, simulated", [
        ("figure6", 2), ("table4", 1), ("table5", 3),
    ])
    def test_table2_family_simulates_only_its_cells(
        self, monkeypatch, name, simulated
    ):
        from repro.sim.experiments import table2

        ran = []
        run_cell = table2.run_cell

        def counted(params, seed):
            ran.append(params["label"])
            return run_cell(params, seed)

        monkeypatch.setattr(table2, "run_cell", counted)
        result = get_experiment(name).run_serial(refs=1000)
        assert len(ran) == simulated
        assert result.format()


# ---------------------------------------------------------------- executor


def _run_table1_campaign(tmp_path, jobs: int, refs: int = 1000, **kwargs):
    """Run a tiny table1 campaign; returns (outcome, formatted text)."""
    target = get_experiment("table1")
    specs = target.jobs(refs=refs)
    outcome = run_campaign(
        ResultStore(tmp_path), specs, campaign="table1", jobs=jobs, **kwargs
    )
    result = target.assemble_results(specs, outcome.results_in_order())
    return outcome, result.format()


def _job_key(payload) -> str:
    return "+".join(payload["params"]["combo"])


class _ExecutorContract:
    """Behaviour every worker count must show; subclasses set JOBS."""

    JOBS = 1

    @pytest.fixture(autouse=True)
    def _pinned_cpus(self, monkeypatch):
        pin_cpus(monkeypatch, 2)

    def test_serial_matches_direct_run(self, tmp_path):
        outcome, campaign_text = _run_table1_campaign(tmp_path, self.JOBS)
        assert outcome.workers == self.JOBS
        serial = get_experiment("table1").run_serial(refs=1000)
        assert campaign_text == serial.format()

    def test_identical_rerun_is_pure_cache_hit(self, tmp_path):
        first, text1 = _run_table1_campaign(tmp_path, self.JOBS)
        second, text2 = _run_table1_campaign(tmp_path, self.JOBS)
        assert first.executed == 11 and not first.cached
        assert second.executed == 0 and len(second.cached) == 11
        assert second.workers == 0  # nothing pending: no worker started
        assert text1 == text2

    def test_corrupt_cached_result_reruns_on_resume(self, tmp_path):
        """A rotted cache entry demotes the job to pending, not a crash."""
        first, text1 = _run_table1_campaign(tmp_path, self.JOBS)
        store = ResultStore(tmp_path)
        victim = sorted(store.results_dir.glob("*.json"))[0]
        victim.write_text("{torn write")
        rerun, text2 = _run_table1_campaign(tmp_path, self.JOBS)
        assert rerun.executed == 1 and len(rerun.cached) == 10
        assert text2 == text1

    def test_resume_false_reruns_everything(self, tmp_path):
        _run_table1_campaign(tmp_path, self.JOBS)
        rerun, _ = _run_table1_campaign(tmp_path, self.JOBS, resume=False)
        assert rerun.executed == 11 and not rerun.cached

    def test_resume_after_injected_crash_runs_only_the_rest(
        self, tmp_path, patch_execute
    ):
        """The acceptance scenario: the drain dies after 3 commits,
        leaving orphaned leases; a resume reclaims them and finishes."""
        target = get_experiment("table1")
        specs = target.jobs(refs=1000)
        store = ResultStore(tmp_path / "store")
        # Worker 0 is SIGKILLed right after its 4th acquisition (three
        # commits in), worker 1 on its first: every worker is dead.
        with pytest.raises(CampaignError, match="stalled"):
            run_campaign(
                store, specs, campaign="table1", jobs=2,
                worker_chaos=["kill@4", "kill@1"],
            )
        done = store.completed([s.content_hash() for s in specs])
        assert len(done) == 3  # durable progress survived the crash

        log = tmp_path / "executed"
        original = worker_mod.execute_spec

        def counting(payload):
            record_call(log, _job_key(payload))
            return original(payload)

        patch_execute(counting)
        resumed = run_campaign(
            store, specs, campaign="table1", jobs=self.JOBS,
            config=LeaseConfig(ttl=1.0, backoff_cap=0.2),
        )
        # Only the unfinished jobs run, each exactly once: of two
        # workers racing for one expired lease, one claims it.
        unfinished = [
            "+".join(s.params_dict["combo"])
            for s in specs if s.content_hash() not in done
        ]
        assert sorted(calls(log)) == sorted(unfinished)
        assert resumed.executed == len(specs) - 3
        assert len(resumed.cached) == 3
        assert resumed.retried == 2  # the two orphaned leases, reclaimed

        # ...and the final result equals an uninterrupted run.
        resumed_text = target.assemble_results(
            specs, resumed.results_in_order()
        ).format()
        _, clean_text = _run_table1_campaign(tmp_path / "clean", 1)
        assert resumed_text == clean_text

    def test_transient_failures_are_retried_with_bounded_budget(
        self, tmp_path, patch_execute
    ):
        original = worker_mod.execute_spec
        markers = tmp_path / "markers"
        markers.mkdir()

        def flaky(payload):
            if first_time(markers, _job_key(payload)):
                raise OSError("simulated transient worker failure")
            return original(payload)

        patch_execute(flaky)
        outcome, _ = _run_table1_campaign(
            tmp_path / "store", self.JOBS,
            config=LeaseConfig(max_reclaims=3),
        )
        assert outcome.retried == 11  # each job failed once, then passed
        assert outcome.executed == 11
        assert not outcome.degraded

    def test_retries_exhausted_raise_campaign_error(
        self, tmp_path, patch_execute
    ):
        def always_broken(payload):
            raise OSError("permanently broken")

        patch_execute(always_broken)
        specs = get_experiment("table1").jobs(refs=1000)
        outcome = run_campaign(
            ResultStore(tmp_path), specs, campaign="table1", jobs=self.JOBS,
            config=LeaseConfig(max_reclaims=2),
        )
        assert outcome.degraded and outcome.executed == 0
        assert len(outcome.quarantined) == 11
        assert all(r["attempts"] == 2 for r in outcome.quarantined)
        with pytest.raises(CampaignError, match="permanently broken"):
            outcome.results_in_order()

    def test_config_errors_are_not_retried(self, tmp_path, patch_execute):
        """A deterministic failure runs exactly once, then is parked."""
        log = tmp_path / "executed"

        def misconfigured(payload):
            record_call(log, _job_key(payload))
            raise ConfigError("deterministically bad")

        patch_execute(misconfigured)
        specs = get_experiment("table1").jobs(refs=1000)
        outcome = run_campaign(
            ResultStore(tmp_path / "store"), specs, campaign="table1",
            jobs=self.JOBS, config=LeaseConfig(max_reclaims=5),
        )
        executed = calls(log)
        assert sorted(executed) == sorted(set(executed))  # once per job
        assert len(executed) == 11
        assert outcome.degraded
        assert all(r["attempts"] == 1 for r in outcome.quarantined)
        assert "deterministically bad" in outcome.degraded_report()


class TestRunner(_ExecutorContract):
    """One lease worker, draining in process."""

    def test_parallel_matches_serial_byte_for_byte(self, tmp_path):
        _, serial_text = _run_table1_campaign(tmp_path / "serial", 1)
        parallel, parallel_text = _run_table1_campaign(
            tmp_path / "parallel", 2
        )
        assert parallel.workers == 2
        assert parallel_text == serial_text

    def test_empty_spec_list_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            run_campaign(ResultStore(tmp_path), [], campaign="empty")

    def test_config_validation(self, tmp_path):
        specs = get_experiment("table1").jobs(refs=1000)[:1]
        with pytest.raises(ConfigError):
            run_campaign(ResultStore(tmp_path), specs, jobs=-1)
        with pytest.raises(ConfigError):
            LeaseConfig(job_timeout=0)  # the per-job timeout
        with pytest.raises(ConfigError):
            LeaseConfig(max_reclaims=0)  # the attempt budget
        outcome = run_campaign(ResultStore(tmp_path), specs, jobs=0)
        assert outcome.workers == 1  # 0 = auto, capped by pending jobs

    def test_execute_spec_pins_the_captured_scale(self, monkeypatch):
        """A job must run at its spec's scale even if the environment
        changed between decompose and execution."""
        spec = get_experiment("table2").jobs(refs=TINY_REFS)[0]
        assert spec.scale == pytest.approx(float(TINY_SCALE))
        monkeypatch.setenv("REPRO_SCALE", "777")  # would be minutes of work
        seen: dict[str, float] = {}

        import repro.campaign.registry as registry_mod

        def probe(inner_spec):
            from repro.sim.scale import scale_factor

            seen["scale"] = scale_factor()
            return {"deviation": 0.0, "rates": {}}

        monkeypatch.setattr(registry_mod, "execute_job", probe)
        execute_spec(spec.as_payload())
        assert seen["scale"] == pytest.approx(float(TINY_SCALE))
        from repro.sim.scale import scale_factor

        assert scale_factor() == 777  # environment restored afterwards


class TestCorruptStore:
    """A store record that parses but has the wrong shape ends in a
    recovered resume or a named quarantine, never a traceback or a hang.
    """

    @pytest.fixture(scope="class")
    def clean(self, tmp_path_factory):
        """A complete tiny table1 store and its output."""
        root = tmp_path_factory.mktemp("clean")
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_SCALE", TINY_SCALE)
            _, text = _run_table1_campaign(root, 1)
        return root, text

    @pytest.fixture
    def damaged(self, clean, tmp_path):
        """A copy of the clean store, its output, and a function that
        writes ``content`` into one job's ``kind`` file (its result
        removed) and resumes the campaign."""
        root = tmp_path / "store"
        shutil.copytree(clean[0], root)
        clean_text = clean[1]
        store = ResultStore(root)
        target = get_experiment("table1")
        specs = target.jobs(refs=1000)
        job_hash = specs[0].content_hash()

        def resume(kind: str, content: str):
            if kind != "results":
                store.discard(job_hash)
            directory = root / kind
            directory.mkdir(exist_ok=True)
            (directory / f"{job_hash}.json").write_text(content)
            with deadline(60):
                return run_campaign(store, specs, campaign="table1")

        def text(outcome) -> str:
            return target.assemble_results(
                specs, outcome.results_in_order()
            ).format()

        return resume, text, clean_text, job_hash

    @pytest.mark.parametrize("content", [
        "[1]",
        '{"spec": {}, "result": [1], "elapsed": 0, "attempts": 1}',
    ], ids=["list", "foreign-spec"])
    def test_malformed_result_reruns(self, damaged, capsys, content):
        resume, text, clean_text, job_hash = damaged
        outcome = resume("results", content)
        assert outcome.executed == 1
        assert text(outcome) == clean_text
        assert "corrupt campaign result" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        "{torn",
        "[1]",
        '{"state": "active", "owner": "w", "token": 1, "acquired": 0, '
        '"heartbeat": "soon", "history": []}',
    ], ids=["torn", "list", "heartbeat-soon"])
    def test_malformed_lease_is_set_aside(self, damaged, tmp_path, content):
        resume, text, clean_text, job_hash = damaged
        outcome = resume("leases", content)
        assert outcome.executed == 1
        assert text(outcome) == clean_text
        aside = tmp_path / "store" / "leases" / f"{job_hash}.json.corrupt"
        assert aside.read_text() == content

    @pytest.fixture(scope="class")
    def clean_sweeps(self, tmp_path_factory):
        """``repro sweep``'s argv, complete tiny store and stdout for
        table1 and table2."""
        sweeps = {}
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_SCALE", TINY_SCALE)
            for name in ("table1", "table2"):
                root = tmp_path_factory.mktemp(name)
                argv = ["sweep", name, "--jobs", "1", "--refs", "1000",
                        "--out", str(root), "--resume"]
                out = io.StringIO()
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    assert main(argv) == 0
                sweeps[name] = argv, root, out.getvalue()
        return sweeps

    @pytest.mark.parametrize("name, job, corrupt", [
        ("table1", 0, lambda clean: [1]),
        ("table1", 0, lambda clean: {"rates": [1]}),
        ("table1", 0, lambda clean: {}),
        ("table1", 0, lambda clean: {"rates": {}}),
        # Table 2's Randy cell, one hits-per-molecule value a string
        ("table2", 4, lambda clean: {
            **clean, "hpm": {**clean["hpm"], "crafty": "0.5"},
        }),
    ], ids=["list", "rates-list", "empty", "rates-empty", "hpm-string"])
    def test_wrong_shape_payload_reruns(
        self, clean_sweeps, tmp_path, capsys, name, job, corrupt
    ):
        """A stored payload its experiment cannot assemble is set aside
        and its job re-run: the resume prints the clean sweep's stdout,
        and the next resume is a pure cache hit."""
        argv, clean_root, clean_out = clean_sweeps[name]
        root = tmp_path / "store"
        shutil.copytree(clean_root, root)
        argv = [*argv[:-2], str(root), "--resume"]
        job_hash = get_experiment(name).jobs(refs=1000)[job].content_hash()
        path = root / "results" / f"{job_hash}.json"
        record = json.loads(path.read_text())
        path.write_text(json.dumps({**record, "result": corrupt(record["result"])}))

        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert out == clean_out
        assert "corrupt campaign result" in err and "(1 run," in err
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert out == clean_out
        assert "(0 run," in err

    @pytest.mark.parametrize("label, corrupt", [
        ("8MB 4way", lambda clean: {**clean, "deviation": -0.5}),
        ("6MB Molecular Randy", lambda clean: {
            **clean, "probes": {**clean["probes"], "molecules_probed": -1},
        }),
    ], ids=["negative-deviation", "negative-probe-counter"])
    def test_negative_number_reruns(
        self, clean_sweeps, tmp_path, capsys, label, corrupt
    ):
        """A payload field that is a rate, deviation or count cannot be
        negative: Table 5's resume over Table 2's store sets the record
        aside, re-runs that one cell and prints Table 5's clean stdout,
        instead of failing to assemble it."""
        _argv, clean_root, _out = clean_sweeps["table2"]
        argv = ["sweep", "table5", "--jobs", "1", "--refs", "1000", "--out"]
        assert main([*argv, str(clean_root), "--resume"]) == 0
        clean_out, err = capsys.readouterr()
        assert "(0 run," in err
        root = tmp_path / "store"
        shutil.copytree(clean_root, root)
        cells = get_experiment("table2").jobs(refs=1000)
        job = next(j for j in cells if j.params_dict["label"] == label)
        path = root / "results" / f"{job.content_hash()}.json"
        record = json.loads(path.read_text())
        path.write_text(json.dumps({**record, "result": corrupt(record["result"])}))

        assert main([*argv, str(root), "--resume"]) == 0
        out, err = capsys.readouterr()
        assert out == clean_out
        assert "corrupt campaign result" in err and "(1 run," in err

    @pytest.mark.parametrize("content", ["[1]", "{torn"])
    def test_unreadable_quarantine_record_still_parks(self, damaged, content):
        resume, _text, _clean, job_hash = damaged
        outcome = resume("quarantine", content)
        assert outcome.degraded and outcome.executed == 0
        assert (
            f"job {job_hash[:12]}: unreadable quarantine record"
            in outcome.degraded_report()
        )


class TestRunnerForked(_ExecutorContract):
    """Two forked lease workers sharing the store."""

    JOBS = 2


# --------------------------------------------------------------- telemetry


class _TelemetryContract:
    """A campaign's lifecycle lands in its trace: one lease instant and
    one ``job`` span per attempt, a ``store`` span per commit, a
    ``retry`` instant per released failure, and the launcher's
    ``campaign`` span counting cached jobs."""

    JOBS = 1

    @pytest.fixture(autouse=True)
    def _pinned_cpus(self, monkeypatch):
        pin_cpus(monkeypatch, 2)

    def test_lifecycle_events_flow_through_the_bus(self, tmp_path):
        target = get_experiment("table1")
        specs = target.jobs(refs=1000)
        spans = SpanRecorder()
        run_campaign(
            ResultStore(tmp_path), specs, campaign="table1",
            jobs=self.JOBS, spans=spans,
        )
        trace = spans.trace_events()
        acquired = [
            e for e in events_from_trace(trace) if isinstance(e, LeaseAcquired)
        ]
        assert {e.job for e in acquired} == {s.content_hash() for s in specs}
        assert all(e.campaign == "table1" and e.token == 1 for e in acquired)
        jobs = [e for e in trace if e.get("cat") == "job"]
        assert len(jobs) == len(specs)
        assert all(e["args"]["attempt"] == 1 for e in jobs)
        assert sum(e.get("cat") == "store" for e in trace) == len(specs)
        (campaign,) = [e for e in trace if e.get("cat") == "campaign"]
        assert campaign["args"]["cached"] == 0

        # resumed campaign: no job runs, and the campaign span counts
        # every job as a cache hit
        spans = SpanRecorder()
        run_campaign(
            ResultStore(tmp_path), specs, campaign="table1",
            jobs=self.JOBS, spans=spans,
        )
        trace = spans.trace_events()
        assert not [e for e in trace if e.get("cat") == "job"]
        (campaign,) = [e for e in trace if e.get("cat") == "campaign"]
        assert campaign["args"]["cached"] == len(specs)

    def test_retry_event_emitted(self, tmp_path, patch_execute):
        original = worker_mod.execute_spec

        def fail_once(payload):
            if first_time(tmp_path, "failed"):
                raise OSError("flaky")
            return original(payload)

        patch_execute(fail_once)
        spans = SpanRecorder()
        _run_table1_campaign(tmp_path / "store", self.JOBS, spans=spans)
        retried = [e for e in spans.trace_events() if e.get("cat") == "retry"]
        assert len(retried) == 1
        assert retried[0]["args"]["attempt"] == 2
        assert "flaky" in retried[0]["args"]["error"]


class TestCampaignTelemetry(_TelemetryContract):
    def test_job_events_round_trip_as_json(self, tmp_path):
        """A lease event written into an exported trace reads back equal."""
        event = LeaseAcquired(
            campaign="table1", job="abc123", owner="w0", token=2,
            reclaimed=True, at=1.5,
        )
        spans = SpanRecorder()
        spans.emit(event)
        path = spans.export(tmp_path / "trace.json")
        trace = json.loads(path.read_text())["traceEvents"]
        assert list(events_from_trace(trace)) == [event]


class TestCampaignTelemetryForked(_TelemetryContract):
    JOBS = 2
