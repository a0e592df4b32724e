"""Tests for the command-line interface."""

import pytest

from repro.cli import main, parse_size


class TestParseSize:
    def test_plain_bytes(self):
        assert parse_size("8192") == 8192

    def test_kilobytes(self):
        assert parse_size("512KB") == 512 * 1024
        assert parse_size("512k") == 512 * 1024

    def test_megabytes(self):
        assert parse_size("4MB") == 4 << 20
        assert parse_size("4m") == 4 << 20

    def test_fractional(self):
        assert parse_size("0.5MB") == 512 * 1024

    def test_rejects_garbage(self):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError):
            parse_size("lots")

    def test_rejects_negative(self):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError, match="positive"):
            parse_size("-4MB")

    def test_rejects_zero(self):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError, match="positive"):
            parse_size("0")
        with pytest.raises(ConfigError, match="positive"):
            parse_size("0.4")  # rounds down to zero bytes


class TestCommands:
    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "art" in out and "mcf" in out and "CJPEG" in out

    def test_profile(self, capsys):
        assert main(["profile", "ammp", "--refs", "20000"]) == 0
        out = capsys.readouterr().out
        assert "footprint_blocks" in out
        assert "LRU miss curve" in out

    def test_profile_unknown_model_errors(self, capsys):
        assert main(["profile", "quake3", "--refs", "1000"]) == 2
        assert "error" in capsys.readouterr().err

    def test_power(self, capsys):
        assert main(["power", "--size", "1MB", "--assoc", "2", "--ports", "1"]) == 0
        out = capsys.readouterr().out
        assert "nJ/access" in out and "MHz" in out

    def test_simulate_molecular(self, capsys):
        code = main(
            [
                "simulate", "--size", "1MB", "--refs", "20000",
                "--workloads", "ammp,parser", "--tiles", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "partition sizes" in out
        assert "average deviation" in out

    def test_simulate_setassoc(self, capsys):
        code = main(
            [
                "simulate", "--cache", "setassoc", "--size", "1MB",
                "--assoc", "4", "--refs", "20000", "--workloads", "ammp",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "miss rate" in out

    def test_simulate_empty_workloads_errors(self, capsys):
        assert main(["simulate", "--workloads", "", "--refs", "1000"]) == 2

    def test_experiment_figure5_chart(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.02")
        code = main(
            ["experiment", "figure5", "--graph", "B", "--refs", "30000",
             "--chart"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 5 graph B" in out
        assert "Molecular (Randy)" in out
        assert "*=" in out  # the chart legend

    def test_simulate_rejects_negative_size(self, capsys):
        code = main(
            ["simulate", "--size=-4MB", "--refs", "1000",
             "--workloads", "ammp"]
        )
        assert code == 2
        assert "positive" in capsys.readouterr().err

    def test_sweep_matches_experiment_byte_for_byte(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_SCALE", "0.02")
        assert main(["experiment", "table1", "--refs", "1000"]) == 0
        serial_out = capsys.readouterr().out

        out_dir = str(tmp_path / "campaign")
        code = main(
            ["sweep", "table1", "--jobs", "1", "--refs", "1000",
             "--out", out_dir]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == serial_out  # stdout is byte-identical
        assert "11 jobs" in captured.err

        # identical re-run with --resume: a pure cache hit
        assert main(
            ["sweep", "table1", "--jobs", "1", "--refs", "1000",
             "--out", out_dir, "--resume"]
        ) == 0
        captured = capsys.readouterr()
        assert captured.out == serial_out
        assert "11 cached" in captured.err

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("argv", [
        ["tenants"],
        ["experiment", "tenancy"],
        ["sweep", "tenancy"],
        ["chaos", "tenancy"],
    ])
    def test_retired_tenancy_commands_are_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestInputErrors:
    """Bad CLI input ends in one ``error:`` line and exit 2, never a
    traceback or a message wrapped in stray quotes."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--tiles", "0", "--refs", "1000"],
        ["profile", "nosuch", "--refs", "1000"],
        ["simulate", "--workloads", "art,nosuch", "--refs", "1000"],
    ])
    def test_exits_2_with_a_clean_error_line(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert '"' not in err and "Traceback" not in err


class TestAuditCommands:
    def test_fuzz_clean_cell(self, capsys):
        code = main(
            ["fuzz", "--ops", "400", "--seed", "1",
             "--placement", "randy", "--trigger", "constant"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "clean" in captured.out
        assert "randy/constant" in captured.err

    def test_fuzz_reports_failures(self, capsys, monkeypatch):
        from repro.molecular.placement import (
            LRUDirectPlacement,
            PlacementPolicy,
        )

        monkeypatch.setattr(
            LRUDirectPlacement, "on_evict", PlacementPolicy.on_evict
        )
        code = main(
            ["fuzz", "--ops", "2500", "--seed", "3",
             "--placement", "lru_direct", "--trigger", "constant",
             "--audit", "200", "--no-shrink"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "placement-recency" in out

    def test_simulate_with_audit(self, capsys):
        code = main(
            ["simulate", "--size", "1MB", "--refs", "8000",
             "--workloads", "ammp", "--audit", "2000"]
        )
        assert code == 0
        assert "miss rate" in capsys.readouterr().out

    def test_audit_flag_parsing(self):
        from repro.cli import build_parser

        parser = build_parser()
        assert parser.parse_args(["simulate"]).audit is None
        assert parser.parse_args(["simulate", "--audit"]).audit == 100_000
        assert parser.parse_args(["simulate", "--audit", "5000"]).audit == 5000
        assert parser.parse_args(["sweep", "table1", "--audit"]).audit == 100_000
        assert parser.parse_args(["fuzz"]).audit is None

    def test_sweep_audit_exports_environment(self, monkeypatch, tmp_path,
                                             capsys):
        # setenv (not delenv) so teardown restores the pre-test state even
        # though cmd_sweep mutates os.environ directly.
        monkeypatch.setenv("REPRO_AUDIT", "0")
        import os

        code = main(
            ["sweep", "figure6", "--jobs", "1", "--refs", "1000",
             "--out", str(tmp_path / "store"), "--audit", "500"]
        )
        assert code == 0
        assert os.environ.get("REPRO_AUDIT") == "500"
        capsys.readouterr()


class TestObservabilityCommands:
    def test_simulate_profile(self, capsys):
        code = main(
            ["simulate", "--size", "1MB", "--refs", "20000",
             "--workloads", "ammp,parser", "--profile", "64"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hot-path profile" in out
        assert "remote-search" in out
        assert "per-region sampled share:" in out

    def test_simulate_profile_flag_parsing(self):
        from repro.cli import build_parser

        parser = build_parser()
        assert parser.parse_args(["simulate"]).profile is None
        assert parser.parse_args(["simulate", "--profile"]).profile == 512
        assert parser.parse_args(
            ["simulate", "--profile", "64"]
        ).profile == 64

    def test_simulate_profile_needs_molecular(self, capsys):
        code = main(
            ["simulate", "--cache", "setassoc", "--size", "1MB",
             "--refs", "5000", "--workloads", "ammp", "--profile"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "hot-path profile" not in captured.out
        assert "not profiling" in captured.err

    def test_sweep_spans_and_trace_export(self, capsys, monkeypatch,
                                          tmp_path):
        monkeypatch.setenv("REPRO_SCALE", "0.02")
        trace = tmp_path / "spans.json"
        code = main(
            ["sweep", "table1", "--jobs", "1", "--refs", "1000",
             "--out", str(tmp_path / "campaign"), "--spans", str(trace)]
        )
        assert code == 0
        assert "campaign spans:" in capsys.readouterr().err
        assert trace.exists()

        assert main(["trace-export", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "span trace:" in out
        assert "job" in out

        filtered = tmp_path / "jobs-only.json"
        assert main(
            ["trace-export", str(trace), "--category", "job",
             "--out", str(filtered)]
        ) == 0
        capsys.readouterr()
        import json

        events = json.loads(filtered.read_text())["traceEvents"]
        assert all(
            e.get("cat") == "job" for e in events if e.get("ph") == "X"
        )

    def test_trace_export_missing_file(self, capsys, tmp_path):
        assert main(["trace-export", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err


class TestDistributedCli:
    """`repro sweep --jobs N`, `repro chaos` and the standalone `repro
    worker`: the lease fleet behind the CLI."""

    @pytest.fixture(autouse=True)
    def _two_cpus(self, monkeypatch):
        from tests.campaign_support import pin_cpus

        monkeypatch.setenv("REPRO_SCALE", "0.02")
        pin_cpus(monkeypatch, 3)

    @staticmethod
    def _forbid_fork(monkeypatch):
        from repro.campaign import worker as worker_mod

        def no_fork():
            raise AssertionError("no worker process may start")

        monkeypatch.setattr(worker_mod, "_mp_context", no_fork)

    def test_distributed_sweep_matches_serial_stdout(
        self, capsys, tmp_path
    ):
        assert main(
            ["sweep", "table1", "--refs", "1000", "--jobs", "1",
             "--out", str(tmp_path / "serial")]
        ) == 0
        serial = capsys.readouterr().out
        assert main(
            ["sweep", "table1", "--refs", "1000", "--jobs", "3",
             "--ttl", "5", "--out", str(tmp_path / "dist")]
        ) == 0
        captured = capsys.readouterr()
        assert captured.out == serial  # stdout is byte-comparable
        assert "(11 run, 0 cached, 0 retried) on 3 worker(s)" in captured.err

    def test_experiment_seed_matches_sweep_seed(self, capsys, tmp_path):
        assert main(["experiment", "table1", "--seed", "2"]) == 0
        serial = capsys.readouterr().out
        assert main(
            ["sweep", "table1", "--seed", "2", "--jobs", "2",
             "--out", str(tmp_path / "store")]
        ) == 0
        assert capsys.readouterr().out == serial
        # The seed reaches the simulation: seed 1 prints other rates.
        assert main(["experiment", "table1"]) == 0
        assert capsys.readouterr().out != serial

    def test_distributed_one_degrades_to_serial_path(
        self, capsys, monkeypatch, tmp_path
    ):
        self._forbid_fork(monkeypatch)
        assert main(
            ["sweep", "table1", "--refs", "1000", "--jobs", "1",
             "--out", str(tmp_path / "one")]
        ) == 0
        # One worker drains in process: nothing forked.
        assert "on 1 worker(s)" in capsys.readouterr().err

    def test_resume_of_a_complete_store_starts_no_process(
        self, capsys, monkeypatch, tmp_path
    ):
        args = ["sweep", "table1", "--refs", "1000", "--jobs", "2",
                "--out", str(tmp_path / "store")]
        assert main(args) == 0
        first = capsys.readouterr().out
        self._forbid_fork(monkeypatch)
        assert main(args + ["--resume"]) == 0
        captured = capsys.readouterr()
        assert captured.out == first
        assert "(0 run, 11 cached, 0 retried) on 0 worker(s)" in captured.err

    def test_sweep_spans_land_on_two_worker_tracks(self, capsys, tmp_path):
        import json

        trace = tmp_path / "spans.json"
        assert main(
            ["sweep", "table1", "--refs", "20000", "--jobs", "2",
             "--out", str(tmp_path / "store"), "--spans", str(trace)]
        ) == 0
        capsys.readouterr()
        events = json.loads(trace.read_text())["traceEvents"]
        tracks = {e["tid"] for e in events if e.get("cat") == "job"}
        assert len(tracks) == 2
        names = {
            e["args"]["name"] for e in events if e.get("ph") == "M"
            and e["tid"] in tracks
        }
        assert all(name.startswith("worker ") for name in names)
        assert {"queue", "store", "campaign"} <= {
            e.get("cat") for e in events
        }

    def test_config_error_job_runs_once_and_degrades(
        self, capsys, monkeypatch, tmp_path
    ):
        from repro.campaign import JobSpec, get_experiment
        from repro.campaign import worker as worker_mod
        from repro.common.errors import ConfigError

        bad = get_experiment("table1").jobs(refs=1000)[4].content_hash()
        executed = []
        original = worker_mod.execute_spec

        def misconfigured(payload):
            job_hash = JobSpec.from_payload(payload).content_hash()
            executed.append(job_hash)
            if job_hash == bad:
                raise ConfigError("unsupported associativity 3")
            return original(payload)

        monkeypatch.setattr(worker_mod, "execute_spec", misconfigured)
        code = main(
            ["sweep", "table1", "--refs", "1000", "--jobs", "1",
             "--out", str(tmp_path / "store")]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert executed.count(bad) == 1
        assert "DEGRADED" in captured.out
        assert "unsupported associativity 3" in captured.out
        assert "1 quarantined" in captured.err

    def test_chaos_kill_hang_corrupt_is_identical(self, capsys, tmp_path):
        assert main(
            ["chaos", "degradation", "--refs", "12000", "--jobs", "2",
             "--worker-chaos", "kill@2;corrupt@1,hang@2:1", "--timeout",
             "0.3", "--out", str(tmp_path / "chaos")]
        ) == 0
        captured = capsys.readouterr()
        assert "output IDENTICAL to the clean serial run" in captured.err
        assert "1 worker death(s)" in captured.err

    def test_chaos_restart_revives_a_job_quarantined_by_sabotage(
        self, capsys, tmp_path
    ):
        """With a one-attempt budget the corrupted job is parked and the
        sabotaged run ends degraded; the clean restart runs it again."""
        assert main(
            ["chaos", "degradation", "--refs", "12000", "--jobs", "2",
             "--worker-chaos", "corrupt@1", "--max-reclaims", "1",
             "--out", str(tmp_path / "chaos")]
        ) == 0
        err = capsys.readouterr().err
        assert "run 1 died" in err and "DEGRADED" in err
        assert "converged in 2 run(s)" in err
        assert "output IDENTICAL to the clean serial run" in err

    def test_worker_drains_a_prepared_store(self, capsys, tmp_path):
        from repro.campaign import ResultStore, get_experiment

        target = get_experiment("table1")
        specs = target.jobs(refs=1000)[:3]
        store = ResultStore(tmp_path / "store")
        store.write_manifest("table1", specs, {})
        assert main(["worker", str(tmp_path / "store"), "--ttl", "5"]) == 0
        err = capsys.readouterr().err
        assert "3 committed" in err
        assert len(store.completed([s.content_hash() for s in specs])) == 3

    def test_worker_without_manifest_errors(self, capsys, tmp_path):
        assert main(["worker", str(tmp_path / "empty")]) == 2
        assert "manifest" in capsys.readouterr().err

    def test_worker_rejects_an_unregistered_experiment(
        self, capsys, tmp_path
    ):
        from repro.campaign import JobSpec, ResultStore

        store = ResultStore(tmp_path / "store")
        store.write_manifest(
            "retired", [JobSpec.make("retired", "cell", {"i": 1})], {}
        )
        assert main(["worker", str(tmp_path / "store")]) == 2
        assert capsys.readouterr().err.startswith(
            "error: unknown experiment 'retired'"
        )
        assert not list((tmp_path / "store").glob("quarantine/*"))

    def test_bad_worker_chaos_grammar_rejected(self, capsys, tmp_path):
        code = main(
            ["sweep", "table1", "--refs", "1000", "--jobs", "2",
             "--out", str(tmp_path / "x"),
             "--worker-chaos", "explode@3"]
        )
        assert code == 2
        assert "worker-chaos" in capsys.readouterr().err

    def test_removed_options_are_gone(self):
        for argv in (
            ["sweep", "table1", "--distributed", "2"],
            ["sweep", "table1", "--retries", "2"],
            ["chaos", "table1", "--crash", "0.5"],
            ["chaos", "table1", "--chaos-seed", "1"],
        ):
            with pytest.raises(SystemExit):
                main(argv)
