"""CLI tests (argument parsing and command execution)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_args(self):
        args = build_parser().parse_args(
            ["simulate", "PR", "kron", "--setups", "droplet", "--max-refs", "100"]
        )
        assert args.workload == "PR"
        assert args.setups == ["droplet"]
        assert args.max_refs == 100

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "KMEANS", "kron"])

    def test_figure_choices(self):
        args = build_parser().parse_args(["figure", "fig11b", "--quick"])
        assert args.name == "fig11b" and args.quick

    def test_profile_args(self):
        args = build_parser().parse_args(
            [
                "profile", "--workload", "bfs", "--dataset", "mesh",
                "--interval", "1000", "--out", "somewhere",
            ]
        )
        assert args.workload == "BFS"  # case-normalized
        assert args.dataset == "mesh"
        assert args.setup == "droplet"
        assert args.interval == 1000 and args.out == "somewhere"

    def test_profile_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["profile", "--workload", "bfs", "--dataset", "nope"]
            )

    def test_sweep_telemetry_flag(self):
        args = build_parser().parse_args(
            ["sweep", "--telemetry", "--telemetry-interval", "9000"]
        )
        assert args.telemetry and args.telemetry_interval == 9000
        assert not build_parser().parse_args(["sweep"]).telemetry

    def test_profile_attribution_flags(self):
        args = build_parser().parse_args(
            ["profile", "--workload", "bfs", "--dataset", "mesh"]
        )
        assert not args.no_attribution and not args.no_classify
        args = build_parser().parse_args(
            [
                "profile", "--workload", "bfs", "--dataset", "mesh",
                "--no-attribution", "--no-classify",
            ]
        )
        assert args.no_attribution and args.no_classify

    def test_diff_args(self):
        args = build_parser().parse_args(
            ["diff", "a.json", "b.json", "--out", "d.json", "--metrics", "cache"]
        )
        assert args.baseline == "a.json" and args.candidate == "b.json"
        assert args.out == "d.json" and args.metrics == ["cache"]
        assert args.phase_rate == "llc_mpki_property"

    def test_sweep_resilience_flags(self):
        args = build_parser().parse_args(
            [
                "sweep", "--timeout", "30", "--retries", "5",
                "--backoff", "0.5", "--faults", "crash@2,hang@5",
                "--run-id", "myrun", "--ledger-root", "/tmp/runs",
            ]
        )
        assert args.timeout == 30.0 and args.retries == 5
        assert args.backoff == 0.5 and args.faults == "crash@2,hang@5"
        assert args.run_id == "myrun" and args.ledger_root == "/tmp/runs"
        defaults = build_parser().parse_args(["sweep"])
        assert defaults.timeout is None and defaults.retries == 2
        assert defaults.resume is None and not defaults.no_ledger

    def test_sweep_resume_flag(self):
        args = build_parser().parse_args(["sweep", "--resume", "run-1"])
        assert args.resume == "run-1"

    def test_sweep_no_spans_flag(self):
        assert build_parser().parse_args(["sweep", "--no-spans"]).no_spans
        assert not build_parser().parse_args(["sweep"]).no_spans

    def test_status_args(self):
        args = build_parser().parse_args(
            ["status", "run-1", "--json", "--ledger-root", "/tmp/runs",
             "--chrome", "out.json"]
        )
        assert args.run_id == "run-1" and args.json
        assert args.ledger_root == "/tmp/runs" and args.chrome == "out.json"
        defaults = build_parser().parse_args(["status", "run-1"])
        assert not defaults.json and not defaults.watch
        assert defaults.poll == 2.0 and defaults.ledger_root is None

    def test_trend_args(self):
        args = build_parser().parse_args(
            ["trend", "store", "--threshold", "0.1", "--json", "--strict"]
        )
        assert args.store == "store" and args.threshold == 0.1
        assert args.json and args.strict
        defaults = build_parser().parse_args(["trend"])
        assert defaults.store == "." and defaults.threshold == 0.05

    def test_serve_args(self):
        args = build_parser().parse_args(
            ["serve", "--host", "0.0.0.0", "--port", "9000", "--workers", "4",
             "--ledger-root", "/tmp/runs", "--access-log", "/tmp/a.jsonl",
             "--drain-timeout", "5"]
        )
        assert args.host == "0.0.0.0" and args.port == 9000
        assert args.workers == 4 and args.ledger_root == "/tmp/runs"
        assert args.access_log == "/tmp/a.jsonl" and args.drain_timeout == 5.0
        defaults = build_parser().parse_args(["serve"])
        # --port defaults to None so --join can pick an ephemeral port;
        # _cmd_serve resolves None to 8321 for a standalone daemon.
        assert defaults.host == "127.0.0.1" and defaults.port is None
        assert defaults.workers == 2 and defaults.ledger_root is None
        assert defaults.join is None and defaults.max_queue == 256
        assert defaults.lease_ttl == 30.0 and defaults.faults is None

    def test_submit_args(self):
        args = build_parser().parse_args(
            ["submit", "--url", "http://h:1", "--workloads", "PR", "BFS",
             "--run-id", "r1", "--wait", "--json", "--deadline", "60",
             "--submit-retries", "3", "--submit-backoff", "0.1"]
        )
        assert args.url == "http://h:1" and args.workloads == ["PR", "BFS"]
        assert args.run_id == "r1" and args.wait and args.json
        assert args.deadline == 60.0 and args.submit_retries == 3
        defaults = build_parser().parse_args(["submit"])
        assert defaults.run_id is None and not defaults.wait
        assert defaults.submit_retries == 8

    def test_profile_prom_flag(self):
        args = build_parser().parse_args(
            ["profile", "--workload", "pr", "--dataset", "kron", "--prom"]
        )
        assert args.prom
        assert not build_parser().parse_args(
            ["profile", "--workload", "pr", "--dataset", "kron"]
        ).prom


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets", "--scale-shift", "-5"]) == 0
        out = capsys.readouterr().out
        assert "kron" in out and "road" in out

    def test_simulate(self, capsys):
        code = main(
            [
                "simulate", "PR", "kron",
                "--scale-shift", "-4",
                "--max-refs", "5000",
                "--setups", "droplet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "droplet" in out and "speedup" in out

    def test_figure_quick(self, capsys):
        assert main(["figure", "fig01", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "fig01" in out

    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Baseline architecture" in out
        assert "Prefetchers for evaluation" in out

    def test_profile(self, capsys, tmp_path):
        import json

        from repro.telemetry import validate_telemetry_payload

        out_dir = tmp_path / "prof"
        code = main(
            [
                "profile",
                "--workload", "bfs",
                "--dataset", "mesh",
                "--scale-shift", "-3",
                "--max-refs", "8000",
                "--interval", "2000",
                "--out", str(out_dir),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "profiled BFS/mesh/droplet" in out
        assert "timeline:" in out
        payload = json.loads((out_dir / "profile.json").read_text())
        validate_telemetry_payload(payload, require_phases=True)
        assert payload["meta"]["workload"] == "BFS"
        assert (out_dir / "profile.html").exists()
        assert (out_dir / "profile.csv").exists()
        assert (out_dir / "profile.events.jsonl").exists()
        # Attribution is on by default for profiles.
        assert "attribution:" in out
        assert "attribution" in payload
        assert "attribution" in payload["families"]

    def test_profile_prom_output(self, capsys, tmp_path):
        from repro.telemetry import parse_prom_text

        out_dir = tmp_path / "prof"
        code = main(
            [
                "profile",
                "--workload", "pr",
                "--dataset", "kron",
                "--scale-shift", "-6",
                "--max-refs", "3000",
                "--no-attribution",
                "--no-classify",
                "--prom",
                "--out", str(out_dir),
            ]
        )
        assert code == 0
        assert "prom" in capsys.readouterr().out
        text = (out_dir / "profile.prom").read_text()
        parsed = parse_prom_text(text)  # strict: valid exposition format
        labels = '{dataset="kron",setup="droplet",workload="PR"}'
        assert parsed["repro_core_instructions_total" + labels] > 0
        assert ("repro_rate_ipc" + labels) in parsed

    def test_profile_no_attribution(self, capsys, tmp_path):
        import json

        out_dir = tmp_path / "prof"
        code = main(
            [
                "profile",
                "--workload", "bfs",
                "--dataset", "mesh",
                "--scale-shift", "-3",
                "--max-refs", "4000",
                "--no-attribution",
                "--out", str(out_dir),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "attribution:" not in out
        payload = json.loads((out_dir / "profile.json").read_text())
        assert "attribution" not in payload

    def test_profile_warns_on_dropped_events(self, capsys, tmp_path):
        code = main(
            [
                "profile",
                "--workload", "bfs",
                "--dataset", "mesh",
                "--scale-shift", "-3",
                "--max-refs", "8000",
                "--events", "8",  # tiny ring: must drop and warn
                "--out", str(tmp_path / "prof"),
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "dropped" in err and "--events" in err

    def test_diff_command(self, capsys, tmp_path):
        import json

        from repro.telemetry import validate_diff_payload

        for setup, out_dir in (("stream", "a"), ("droplet", "b")):
            assert main(
                [
                    "profile",
                    "--workload", "bfs",
                    "--dataset", "mesh",
                    "--scale-shift", "-3",
                    "--max-refs", "6000",
                    "--interval", "2000",
                    "--setup", setup,
                    "--out", str(tmp_path / out_dir),
                ]
            ) == 0
        capsys.readouterr()
        diff_path = tmp_path / "diff.json"
        code = main(
            [
                "diff",
                str(tmp_path / "a" / "profile.json"),
                str(tmp_path / "b" / "profile.json"),
                "--out", str(diff_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "llc_mpki_property" in out
        assert "per-phase llc_mpki_property" in out
        diff = json.loads(diff_path.read_text())
        validate_diff_payload(diff)
        assert diff["baseline"]["meta"]["setup"] == "stream"
        assert diff["candidate"]["meta"]["setup"] == "droplet"
        assert (tmp_path / "diff.html").exists()

    def test_sweep_with_telemetry(self, capsys, tmp_path, monkeypatch):
        import json

        monkeypatch.setenv("REPRO_RUN_LEDGER", str(tmp_path / "runs"))
        report_path = tmp_path / "sweep.json"
        code = main(
            [
                "sweep",
                "--workloads", "PR",
                "--datasets", "kron",
                "--setups", "droplet",
                "--max-refs", "3000",
                "--scale-shift", "-6",
                "--no-trace-cache",
                "--telemetry",
                "--telemetry-interval", "2000",
                "--out", str(report_path),
            ]
        )
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["formats"]["telemetry"] == "repro-telemetry-v1"
        for entry in payload["points"]:
            assert entry["seed"] == 7  # kron paper-default backfilled
            assert entry["telemetry"]["samples"]


class TestSweepResilience:
    """Satellite: exit codes, fault injection and ledger resume via the CLI."""

    BASE = [
        "sweep",
        "--workloads", "PR",
        "--datasets", "kron",
        "--max-refs", "3000",
        "--scale-shift", "-6",
        "--no-trace-cache",
    ]

    @pytest.fixture(autouse=True)
    def _ledger_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_LEDGER", str(tmp_path / "runs"))
        self.tmp_path = tmp_path

    def test_partial_failure_exits_1_with_stderr_summary(self, capsys):
        # 2 points (none + droplet); the fault re-fires every attempt.
        code = main(
            self.BASE
            + ["--setups", "droplet", "--faults", "error@0", "--retries", "0",
               "--no-ledger", "--backoff", "0.01"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "1/2 sweep points failed" in err
        assert "FaultError" in err

    def test_total_failure_exits_2(self, capsys):
        code = main(
            self.BASE
            + ["--setups", "none", "--faults", "error@0", "--retries", "0",
               "--no-ledger", "--backoff", "0.01"]
        )
        assert code == 2
        assert "1/1 sweep points failed" in capsys.readouterr().err

    def test_injected_fault_recovers_with_retries(self, capsys):
        # With a ledger the fault plan gets a trip dir: one-shot fault,
        # so the default retry budget recovers the point.
        code = main(
            self.BASE
            + ["--setups", "droplet", "--faults", "error@1",
               "--run-id", "faulty", "--backoff", "0.01"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "resilience: 1 retries" in out
        assert "run id faulty" in out

    def test_resume_restores_journaled_points(self, capsys, tmp_path):
        import json

        assert main(self.BASE + ["--setups", "droplet", "--run-id", "rerun"]) == 0
        capsys.readouterr()
        report_path = tmp_path / "resumed.json"
        code = main(
            self.BASE
            + ["--setups", "droplet", "--resume", "rerun",
               "--out", str(report_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "resume" in out
        payload = json.loads(report_path.read_text())
        assert payload["metrics"]["restored_points"] == 2
        assert payload["metrics"]["traces_generated"] == 0
        assert all(p["restored"] for p in payload["points"])

    def test_resume_unknown_run_id_exits_2(self, capsys):
        code = main(self.BASE + ["--resume", "no-such-run"])
        assert code == 2
        assert "no ledger found" in capsys.readouterr().err

    def test_failure_summary_names_span_artifacts(self, capsys):
        code = main(
            self.BASE
            + ["--setups", "droplet", "--faults", "error@0", "--retries", "0",
               "--run-id", "broken", "--backoff", "0.01"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "ledger:" in err and "spans:" in err and "trace:" in err
        assert "repro status broken" in err


class TestSweepSpecGrammar:
    """``repro sweep`` validates its flags with the service's spec parser."""

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--max-refs", "0", {"max_refs": 0}),
            ("--timeout", "0", {"timeout": 0}),
            ("--retries", "-1", {"retries": -1}),
        ],
    )
    def test_bad_value_exits_2_with_the_spec_message(
        self, capsys, tmp_path, monkeypatch, flag, value, field
    ):
        from repro.service import parse_spec

        monkeypatch.setenv("REPRO_RUN_LEDGER", str(tmp_path / "runs"))
        code = main(
            ["sweep", "--workloads", "PR", "--datasets", "kron",
             flag, value, "--no-trace-cache"]
        )
        assert code == 2
        with pytest.raises(ValueError) as spec_error:
            parse_spec(field)
        assert str(spec_error.value) in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    SWEEP = ["sweep", "--workloads", "PR", "--datasets", "kron", "--no-trace-cache"]
    PARETO = ["pareto", "PR", "kron", "--space", "setup=none,stream",
              "--max-refs", "3000", "--scale-shift", "-6", "--no-trace-cache"]

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--timeout", "0", {"timeout": 0}),
            ("--timeout", "-1", {"timeout": -1}),
            ("--retries", "-1", {"retries": -1}),
        ],
    )
    def test_pareto_retry_flags_get_the_spec_checks(
        self, capsys, tmp_path, monkeypatch, flag, value, field
    ):
        from repro.service import parse_spec

        monkeypatch.setenv("REPRO_RUN_LEDGER", str(tmp_path / "runs"))
        assert main(self.PARETO + [flag, value]) == 2
        with pytest.raises(ValueError) as spec_error:
            parse_spec(field)
        assert str(spec_error.value) in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("verb", ["sweep", "pareto"])
    @pytest.mark.parametrize("flag", ["--run-id", "--resume"])
    def test_bad_run_id_exits_2_before_writing(
        self, capsys, tmp_path, monkeypatch, verb, flag
    ):
        from repro.service import parse_spec

        monkeypatch.setenv("REPRO_RUN_LEDGER", str(tmp_path / "runs"))
        argv = self.SWEEP if verb == "sweep" else self.PARETO
        assert main(argv + [flag, "a/b"]) == 2
        with pytest.raises(ValueError) as spec_error:
            parse_spec({"run_id": "a/b"})
        assert "error: %s" % spec_error.value in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("verb", ["sweep", "pareto"])
    def test_bad_fault_spec_exits_2_before_writing(
        self, capsys, tmp_path, monkeypatch, verb
    ):
        monkeypatch.setenv("REPRO_RUN_LEDGER", str(tmp_path / "runs"))
        argv = self.SWEEP if verb == "sweep" else self.PARETO
        assert main(argv + ["--faults", "explode@1"]) == 2
        assert "bad fault term 'explode@1'" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize(
        "verb", [["sweep"], ["pareto", "PR", "kron"], ["submit"]], ids=str
    )
    def test_replay_selector_flag_is_gone(self, capsys, verb):
        with pytest.raises(SystemExit) as exited:
            main(verb + ["--fast-path", "auto"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --fast-path" in capsys.readouterr().err


class TestStatusAndTrend:
    """Tentpole CLI verbs: live/post-hoc run status and cross-run trends."""

    BASE = [
        "sweep",
        "--workloads", "PR",
        "--datasets", "kron",
        "--setups", "droplet",
        "--max-refs", "3000",
        "--scale-shift", "-6",
        "--no-trace-cache",
    ]

    @pytest.fixture(autouse=True)
    def _ledger_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_LEDGER", str(tmp_path / "runs"))
        self.tmp_path = tmp_path

    def test_status_matches_sweep_report(self, capsys, tmp_path):
        import json

        report_path = tmp_path / "sweep.json"
        assert main(
            self.BASE
            + ["--faults", "error@0", "--run-id", "st", "--backoff", "0.01",
               "--out", str(report_path)]
        ) == 0
        capsys.readouterr()
        assert main(["status", "st", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        report = json.loads(report_path.read_text())
        assert payload["finished"] is True
        # The baseline "none" setup rides along: 2 points total.
        assert payload["states"]["done"] == 2
        for key in ("retries", "timeouts", "recovered_workers", "errors"):
            assert payload["counters"][key] == report["metrics"][key], key
        assert payload["counters"]["retries"] == 1

    def test_status_human_rendering_and_chrome_export(self, capsys, tmp_path):
        import json

        assert main(self.BASE + ["--run-id", "hr"]) == 0
        capsys.readouterr()
        trace_path = tmp_path / "export.trace.json"
        assert main(["status", "hr", "--chrome", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "run hr: 2 point(s)" in out
        assert "[finished]" in out
        assert "done" in out
        trace = json.loads(trace_path.read_text())
        assert any(e["name"] == "point" for e in trace["traceEvents"])

    def test_status_unknown_run_exits_2(self, capsys):
        assert main(["status", "ghost"]) == 2
        assert "no ledger or span sidecar" in capsys.readouterr().err

    def test_status_watch_terminates_on_finished_run(self, capsys):
        assert main(self.BASE + ["--run-id", "wt"]) == 0
        capsys.readouterr()
        assert main(["status", "wt", "--watch", "--poll", "0.1"]) == 0
        assert "[finished]" in capsys.readouterr().out

    def test_trend_flags_regression_and_strict_exit(self, capsys, tmp_path):
        import json
        import os
        import time

        store = tmp_path / "store"
        store.mkdir()
        now = time.time()
        for i, speedup in enumerate((2.0, 2.1, 1.2)):
            path = store / ("bench-%d.json" % i)
            path.write_text(json.dumps({
                "schema": "repro-replay-bench-v2",
                "cells": {"PR": {"droplet": {"speedup": speedup}}},
            }))
            os.utime(path, (now - 30 + 10 * i,) * 2)
        assert main(["trend", str(store)]) == 0
        captured = capsys.readouterr()
        assert "bench:PR/droplet:speedup" in captured.out
        assert "REGRESSION" in captured.err
        assert main(["trend", str(store), "--strict"]) == 1
        capsys.readouterr()
        assert main(["trend", str(store), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "repro-trend-v1"
        assert payload["regressions"]

    def test_trend_empty_store_exits_2(self, capsys, tmp_path):
        assert main(["trend", str(tmp_path / "empty")]) == 2
        assert "no sweep reports" in capsys.readouterr().err

    def test_trend_empty_store_strict_json_does_not_crash(self, capsys, tmp_path):
        import json

        # --strict on an empty store is "nothing to check", not a
        # regression: the empty-store exit (2) wins, without a traceback.
        assert main(["trend", str(tmp_path / "void"), "--strict"]) == 2
        capsys.readouterr()
        assert main(["trend", str(tmp_path / "void"), "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["snapshots"] == [] and payload["regressions"] == []

    def test_trend_single_snapshot_strict_exits_0(self, capsys, tmp_path):
        import json

        store = tmp_path / "store"
        store.mkdir()
        (store / "only.json").write_text(json.dumps({
            "schema": "repro-replay-bench-v2",
            "cells": {"PR": {"droplet": {"speedup": 2.0}}},
        }))
        # One snapshot has no baseline to regress against: no flags,
        # strict mode stays green.
        assert main(["trend", str(store), "--strict"]) == 0
        out = capsys.readouterr()
        assert "1 snapshot(s)" in out.out
        assert "REGRESSION" not in out.err

    def test_trend_mixed_schema_versions_skipped_without_flags(
        self, capsys, tmp_path
    ):
        import json
        import os
        import time

        store = tmp_path / "store"
        store.mkdir()
        now = time.time()
        # Two parsable same-schema snapshots with flat numbers...
        for i in range(2):
            path = store / ("bench-%d.json" % i)
            path.write_text(json.dumps({
                "schema": "repro-replay-bench-v2",
                "cells": {"PR": {"droplet": {"speedup": 2.0}}},
            }))
            os.utime(path, (now - 20 + 10 * i,) * 2)
        # ...plus unknown/older schema versions and junk, all of which
        # must be skipped silently rather than crash or skew the series.
        (store / "old-bench.json").write_text(json.dumps({
            "schema": "repro-replay-bench-v1",
            "cells": {"PR": {"droplet": {"speedup": 0.1}}},
        }))
        (store / "old-sweep.json").write_text(json.dumps({
            "format": "repro-sweep-v1",
            "points": [],
        }))
        (store / "not-even.json").write_text("{{{")
        (store / "list.json").write_text("[1, 2, 3]")
        assert main(["trend", str(store), "--strict"]) == 0
        captured = capsys.readouterr()
        assert "2 snapshot(s)" in captured.out
        assert "REGRESSION" not in captured.err
        capsys.readouterr()
        assert main(["trend", str(store), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["snapshots"]) == 2
        assert payload["regressions"] == []
