"""Resilient sweep execution: faults, retries, timeouts, ledger resume.

Exercises the PR's tentpole guarantees end to end: fault-injected sweeps
(crashes, hangs, transient errors, cache corruption) complete with
results bit-identical to a clean run for every surviving point; serial
and parallel execution take identical retry/fail decisions; interrupted
runs resume from the ledger re-executing only unfinished points.

Parallel tests spawn real worker processes and real pool breakage, so
points stay tiny (scale_shift=-6, a few thousand references).
"""

from __future__ import annotations

import json

import pytest

from repro.runtime import (
    FaultError,
    FaultPlan,
    LedgerError,
    PointError,
    PointResult,
    RetryPolicy,
    RunLedger,
    SweepPoint,
    SweepRunner,
    TraceCache,
    WorkerCrash,
    point_key,
)

MAX_REFS = 3000
SCALE_SHIFT = -6


def make_points(workloads=("PR", "BFS"), setups=("none", "droplet")):
    return [
        SweepPoint(
            workload=w,
            dataset="kron",
            setup=s,
            max_refs=MAX_REFS,
            scale_shift=SCALE_SHIFT,
        )
        for w in workloads
        for s in setups
    ]


def serial_runner(tmp_path, **kwargs) -> SweepRunner:
    kwargs.setdefault("return_full", False)
    return SweepRunner(trace_cache=TraceCache(tmp_path / "traces"), **kwargs)


def parallel_runner(tmp_path, workers=2, **kwargs) -> SweepRunner:
    kwargs.setdefault("return_full", False)
    return SweepRunner(
        workers=workers, trace_cache=TraceCache(tmp_path / "traces"), **kwargs
    )


FAST_RETRY = RetryPolicy(max_attempts=3, backoff=0.01)


class TestFaultPlan:
    def test_spec_roundtrip(self):
        plan = FaultPlan.from_spec("crash@2,hang@5,error@1,corrupt@3,error@4")
        assert plan.crash == (2,)
        assert plan.hang == (5,)
        assert plan.error == (1, 4)
        assert plan.corrupt == (3,)
        assert FaultPlan.from_spec(plan.to_spec()) == plan

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError, match="bad fault term"):
            FaultPlan.from_spec("explode@3")
        with pytest.raises(ValueError, match="bad fault term"):
            FaultPlan.from_spec("error3")

    def test_probabilistic_selection_is_seed_deterministic(self):
        a = FaultPlan(error_prob=0.5, seed=11)
        b = FaultPlan(error_prob=0.5, seed=11)
        picks = [a._selected("error", i) for i in range(64)]
        assert picks == [b._selected("error", i) for i in range(64)]
        assert any(picks) and not all(picks)
        c = FaultPlan(error_prob=0.5, seed=12)
        assert picks != [c._selected("error", i) for i in range(64)]

    def test_one_shot_trip_semantics(self, tmp_path):
        plan = FaultPlan(error=(0,), trip_dir=str(tmp_path / "trips"))
        with pytest.raises(FaultError):
            plan.fire(0)
        assert plan.fired("error", 0)
        plan.fire(0)  # second attempt passes through

    def test_refires_without_trip_dir(self):
        plan = FaultPlan(error=(0,))
        for _ in range(3):
            with pytest.raises(FaultError):
                plan.fire(0)

    def test_crash_raises_in_process(self):
        with pytest.raises(WorkerCrash):
            FaultPlan(crash=(1,)).fire(1, in_worker=False)


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(backoff=0.5, backoff_factor=2.0, max_backoff=1.5)
        assert policy.delay(1) == 0.5
        assert policy.delay(2) == 1.0
        assert policy.delay(3) == 1.5  # capped
        assert RetryPolicy(backoff=0.0).delay(5) == 0.0

    def test_transient_classification(self):
        policy = RetryPolicy()
        assert policy.is_transient(PointError(kind="FaultError", message=""))
        assert policy.is_transient(PointError(kind="WorkerCrash", message=""))
        assert policy.is_transient(PointError(kind="PointTimeout", message=""))
        assert not policy.is_transient(PointError(kind="ValueError", message=""))
        assert not policy.is_transient(None)

    def test_hard_timeout_derived_from_soft(self):
        assert RetryPolicy().hard_timeout is None
        assert RetryPolicy(timeout=10.0).hard_timeout == 25.0


class TestSerialResilience:
    def test_transient_error_retries_to_success(self, tmp_path):
        points = make_points()
        clean = serial_runner(tmp_path).run(points)
        faults = FaultPlan(error=(1,), trip_dir=str(tmp_path / "trips"))
        report = serial_runner(
            tmp_path, retry=FAST_RETRY, faults=faults
        ).run(points)
        assert report.ok()
        assert report.summaries() == clean.summaries()
        assert report.points[1].attempts == 2
        assert report.metrics.retries == 1
        assert report.metrics.timeouts == 0

    def test_deterministic_failure_fails_fast(self, tmp_path):
        points = make_points(workloads=("PR",), setups=("none", "bogus"))
        report = serial_runner(tmp_path, retry=FAST_RETRY).run(points)
        good, bad = report.points
        assert good.ok and not bad.ok
        assert bad.error.kind == "ValueError"
        assert bad.attempts == 1  # no retry budget wasted
        assert report.metrics.retries == 0

    def test_retries_exhaust_with_persistent_fault(self, tmp_path):
        points = make_points(workloads=("PR",), setups=("none",))
        faults = FaultPlan(error=(0,))  # no trip_dir: re-fires every attempt
        report = serial_runner(
            tmp_path, retry=RetryPolicy(max_attempts=2, backoff=0.01),
            faults=faults,
        ).run(points)
        (failed,) = report.points
        assert not failed.ok
        assert failed.error.kind == "FaultError"
        assert failed.attempts == 2
        assert report.metrics.retries == 1

    def test_serial_crash_stand_in_is_retried(self, tmp_path):
        points = make_points(workloads=("PR",), setups=("none",))
        faults = FaultPlan(crash=(0,), trip_dir=str(tmp_path / "trips"))
        report = serial_runner(
            tmp_path, retry=FAST_RETRY, faults=faults
        ).run(points)
        (result,) = report.points
        assert result.ok and result.attempts == 2

    def test_hang_is_cut_by_watchdog_and_retried(self, tmp_path):
        points = make_points(workloads=("PR",), setups=("none",))
        faults = FaultPlan(
            hang=(0,), hang_seconds=30.0, trip_dir=str(tmp_path / "trips")
        )
        report = serial_runner(
            tmp_path,
            retry=RetryPolicy(max_attempts=3, timeout=1.0, backoff=0.01),
            faults=faults,
        ).run(points)
        (result,) = report.points
        assert result.ok and result.attempts == 2
        assert report.metrics.timeouts == 1
        assert report.metrics.retries == 1

    def test_exit_codes(self, tmp_path):
        ok = serial_runner(tmp_path).run(
            make_points(workloads=("PR",), setups=("none",))
        )
        assert ok.exit_code() == 0 and ok.failure_summary() == ""
        partial = serial_runner(tmp_path).run(
            make_points(workloads=("PR",), setups=("none", "bogus"))
        )
        assert partial.exit_code() == 1
        assert "1/2 sweep points failed" in partial.failure_summary()
        assert "PR/kron/bogus" in partial.failure_summary()
        total = serial_runner(tmp_path).run(
            make_points(workloads=("PR",), setups=("bogus",))
        )
        assert total.exit_code() == 2


class TestCorruptionRecovery:
    def test_corrupt_cache_entry_quarantined_and_regenerated(self, tmp_path):
        points = make_points(workloads=("PR",), setups=("none", "droplet"))
        clean = serial_runner(tmp_path).run(points)  # warms the disk cache
        faults = FaultPlan(corrupt=(0,), trip_dir=str(tmp_path / "trips"))
        # Fresh runner: empty memo, so the corrupted entry is actually read.
        report = serial_runner(
            tmp_path, retry=FAST_RETRY, faults=faults
        ).run(points)
        assert report.ok()
        assert report.summaries() == clean.summaries()
        assert report.metrics.quarantined_entries >= 1
        quarantine = tmp_path / "traces" / "quarantine"
        assert quarantine.is_dir() and any(quarantine.iterdir())


class TestParallelResilience:
    def test_worker_crash_recovers_bit_identical(self, tmp_path):
        points = make_points()
        clean = serial_runner(tmp_path).run(points)
        faults = FaultPlan(crash=(1,), trip_dir=str(tmp_path / "trips"))
        report = parallel_runner(
            tmp_path, retry=FAST_RETRY, faults=faults
        ).run(points)
        assert report.ok()
        assert report.summaries() == clean.summaries()
        assert report.points[1].attempts >= 2
        assert report.metrics.recovered_workers >= 1
        assert report.metrics.retries >= 1

    def test_worker_hang_cut_by_in_worker_watchdog(self, tmp_path):
        points = make_points()
        clean = serial_runner(tmp_path).run(points)
        faults = FaultPlan(
            hang=(0,), hang_seconds=60.0, trip_dir=str(tmp_path / "trips")
        )
        report = parallel_runner(
            tmp_path,
            retry=RetryPolicy(max_attempts=3, timeout=1.5, backoff=0.01),
            faults=faults,
        ).run(points)
        assert report.ok()
        assert report.summaries() == clean.summaries()
        assert report.metrics.timeouts >= 1


class TestSerialParallelParity:
    """Satellite: both execution modes take identical retry/fail decisions."""

    def test_recovered_faults_identical_results(self, tmp_path):
        points = make_points()
        faults_serial = FaultPlan(
            error=(1,), crash=(2,), trip_dir=str(tmp_path / "trips-s")
        )
        faults_parallel = FaultPlan(
            error=(1,), crash=(2,), trip_dir=str(tmp_path / "trips-p")
        )
        serial = serial_runner(
            tmp_path, retry=FAST_RETRY, faults=faults_serial
        ).run(points)
        parallel = parallel_runner(
            tmp_path, retry=FAST_RETRY, faults=faults_parallel
        ).run(points)
        assert serial.ok() and parallel.ok()
        assert parallel.summaries() == serial.summaries()
        assert serial.points[1].attempts >= 2
        assert parallel.points[1].attempts >= 2

    def test_exhausted_faults_identical_decisions(self, tmp_path):
        points = make_points(workloads=("PR",))
        faults = FaultPlan(error=(0,))  # persistent: exhausts retries
        policy = RetryPolicy(max_attempts=2, backoff=0.01)
        serial = serial_runner(tmp_path, retry=policy, faults=faults).run(points)
        parallel = parallel_runner(tmp_path, retry=policy, faults=faults).run(
            points
        )
        assert [r.ok for r in serial.points] == [r.ok for r in parallel.points]
        assert serial.points[0].error.kind == "FaultError"
        assert parallel.points[0].error.kind == "FaultError"
        assert parallel.summaries() == serial.summaries()
        assert serial.exit_code() == parallel.exit_code() == 1


class TestRunLedger:
    def point(self, setup="none"):
        return SweepPoint(
            "PR", "kron", setup=setup, max_refs=MAX_REFS, scale_shift=SCALE_SHIFT
        )

    def test_point_key_tracks_identity(self):
        assert point_key(self.point()) == point_key(self.point())
        assert point_key(self.point()) != point_key(self.point("droplet"))

    def test_record_and_restore_roundtrip(self, tmp_path):
        ledger = RunLedger("run-a", root=tmp_path)
        assert ledger.open() == 0
        result = PointResult(
            point=self.point(),
            summary={"cycles": 123},
            wall_time=1.5,
            trace_cache_hit=True,
            attempts=2,
        )
        ledger.record(self.point(), result)
        fresh = RunLedger("run-a", root=tmp_path)
        assert fresh.open() == 1
        restored = fresh.restore(self.point())
        assert restored.restored is True
        assert restored.summary == {"cycles": 123}
        assert restored.attempts == 2
        assert fresh.restore(self.point("droplet")) is None

    def test_failures_are_not_journaled(self, tmp_path):
        ledger = RunLedger("run-b", root=tmp_path)
        ledger.open()
        ledger.record(
            self.point(),
            PointResult(
                point=self.point(),
                error=PointError(kind="ValueError", message="nope"),
            ),
        )
        fresh = RunLedger("run-b", root=tmp_path)
        assert fresh.open() == 0

    def test_failed_records_are_journaled_but_never_restored(self, tmp_path):
        ledger = RunLedger("run-f", root=tmp_path)
        ledger.open()
        ledger.record(
            self.point(),
            PointResult(
                point=self.point(),
                error=PointError(kind="ValueError", message="nope"),
                attempts=2,
            ),
        )
        lines = ledger.path.read_text().splitlines()
        (record,) = [
            r for r in map(json.loads, lines) if r.get("kind") == "point"
        ]
        assert record["ok"] is False
        assert record["data"]["error_kind"] == "ValueError"
        assert record["data"]["attempts"] == 2
        assert len(ledger) == 0
        assert ledger.restore(self.point()) is None
        fresh = RunLedger("run-f", root=tmp_path)
        assert fresh.open() == 0 and len(fresh) == 0
        assert fresh.restore(self.point()) is None
        fresh.refresh()
        assert fresh.completed_records() == {}

    def test_torn_tail_is_tolerated(self, tmp_path):
        ledger = RunLedger("run-c", root=tmp_path)
        ledger.open()
        ledger.record(
            self.point(), PointResult(point=self.point(), summary={"cycles": 1})
        )
        with open(ledger.path, "a") as handle:
            handle.write('{"kind": "point", "key": "tr')  # hard-kill torn line
        fresh = RunLedger("run-c", root=tmp_path)
        assert fresh.open() == 1

    def test_telemetry_settings_mismatch_rejected(self, tmp_path):
        RunLedger("run-d", root=tmp_path).open(telemetry=False)
        with pytest.raises(LedgerError, match="telemetry"):
            RunLedger("run-d", root=tmp_path).open(telemetry=True)

    def test_bad_run_ids_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            RunLedger("../escape", root=tmp_path)
        with pytest.raises(ValueError):
            RunLedger("", root=tmp_path)


class TestResume:
    def test_resume_executes_only_unfinished_points(self, tmp_path):
        points = make_points()
        clean = serial_runner(tmp_path).run(points)
        # First (interrupted) run journals only the first two points.
        first = serial_runner(
            tmp_path, ledger=RunLedger("run-x", root=tmp_path / "runs")
        )
        first.run(points[:2])
        # Resume: same run id, full point list, fresh runner/memo.
        resumed = serial_runner(
            tmp_path, ledger=RunLedger("run-x", root=tmp_path / "runs")
        )
        report = resumed.run(points)
        assert report.ok()
        assert [r.restored for r in report.points] == [True, True, False, False]
        assert report.metrics.restored == 2
        assert report.summaries() == clean.summaries()
        # Restored points were not re-executed: no fresh trace/cache work.
        assert report.metrics.cache_hits + report.metrics.cache_misses == 2

    def test_resume_re_executes_journaled_failures(self, tmp_path):
        points = make_points(workloads=("PR",))
        first = serial_runner(
            tmp_path,
            ledger=RunLedger("run-z", root=tmp_path / "runs"),
            faults=FaultPlan.from_spec("error@0"),
            retry=RetryPolicy(max_attempts=1),
        ).run(points)
        assert [r.ok for r in first.points] == [False, True]
        resumed = serial_runner(
            tmp_path, ledger=RunLedger("run-z", root=tmp_path / "runs")
        ).run(points)
        assert resumed.ok()
        assert [r.restored for r in resumed.points] == [False, True]
        assert resumed.metrics.restored == 1

    def test_fully_journaled_run_restores_everything(self, tmp_path):
        points = make_points(workloads=("PR",))
        serial_runner(
            tmp_path, ledger=RunLedger("run-y", root=tmp_path / "runs")
        ).run(points)
        report = serial_runner(
            tmp_path, ledger=RunLedger("run-y", root=tmp_path / "runs")
        ).run(points)
        assert report.metrics.restored == len(points)
        assert report.metrics.traces_generated == 0
        assert report.metrics.cache_hits == 0 and report.metrics.cache_misses == 0


class TestResilienceTelemetry:
    def test_metrics_dict_and_text_carry_resilience_fields(self, tmp_path):
        points = make_points(workloads=("PR",), setups=("none",))
        faults = FaultPlan(error=(0,), trip_dir=str(tmp_path / "trips"))
        report = serial_runner(
            tmp_path, retry=FAST_RETRY, faults=faults
        ).run(points)
        d = report.metrics.as_dict()
        for key in (
            "retries",
            "timeouts",
            "recovered_workers",
            "quarantined_entries",
            "restored_points",
        ):
            assert key in d
        assert d["retries"] == 1
        assert "resilience: 1 retries" in report.metrics.to_text()

    def test_table_rows_show_tries_for_resilient_runs(self, tmp_path):
        from repro.reporting import sweep_table_rows

        points = make_points(workloads=("PR",))
        faults = FaultPlan(error=(0,), trip_dir=str(tmp_path / "trips"))
        report = serial_runner(
            tmp_path, retry=FAST_RETRY, faults=faults
        ).run(points)
        rows = sweep_table_rows(report)
        assert rows[0]["tries"] == "2"
        assert rows[1]["tries"] == "1"
        plain = serial_runner(tmp_path).run(points)
        assert "tries" not in sweep_table_rows(plain)[0]
