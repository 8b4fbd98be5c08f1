"""Run-status reconstruction and cross-run trend tracking.

The store seam of the observability PR: ``load_run_status`` must rebuild
a sweep's per-point state purely from its on-disk ledger + span sidecar,
and a *finished* traced run's counters must match the sweep report's
resilience counters exactly.  Trend tests exercise the metrics-store
scanner and direction-aware regression flags on synthetic snapshots.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.experiments.common import render_table
from repro.runtime import (
    FaultPlan,
    PointResult,
    RetryPolicy,
    RunLedger,
    RunStatusBuilder,
    SweepPoint,
    SweepRunner,
    TraceCache,
    load_run_status,
    status_paths,
    status_table_rows,
    watch,
)
from repro.runtime.status import COUNTER_KEYS
from repro.telemetry.tail import JsonlTailer
from repro.telemetry import spans
from repro.telemetry.trend import (
    flag_regressions,
    scan_store,
    trend_report,
    trend_series,
    trend_table_rows,
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


def live_ledger(tmp_path, run_id, points, workers=1, mode="serial"):
    """A ledger as a live sweep leaves it: opened, with its run record."""
    ledger = RunLedger(run_id, root=tmp_path / "runs")
    ledger.open()
    ledger.start_run(points, workers, mode)
    return ledger


def traced_runner(tmp_path, run_id, **kwargs):
    """Serial runner journaling to a ledger + span sidecar under tmp_path."""
    kwargs.setdefault("return_full", False)
    ledger = RunLedger(run_id, root=tmp_path / "runs")
    tracer = spans.SpanRecorder(sidecar=spans.sidecar_path(ledger.path))
    runner = SweepRunner(
        trace_cache=TraceCache(tmp_path / "traces"),
        ledger=ledger,
        tracer=tracer,
        **kwargs,
    )
    return runner, ledger, tracer


class TestRunStatus:
    def test_finished_run_counters_match_report_exactly(self, tmp_path):
        runner, ledger, _ = traced_runner(
            tmp_path,
            "faulty",
            # trip_dir makes the fault one-shot, so the retry recovers it.
            faults=FaultPlan(error=(1,), trip_dir=str(tmp_path / "trips")),
            retry=RetryPolicy(max_attempts=3, backoff=0.01),
        )
        report = runner.run(make_points(workloads=("PR",)))
        assert report.ok()
        status = load_run_status("faulty", root=tmp_path / "runs")
        assert status.found and status.finished
        assert status.total == 2
        assert status.count("done") == 2
        metrics = report.metrics.as_dict()
        for key in (
            "retries",
            "timeouts",
            "recovered_workers",
            "quarantined_entries",
            "restored_points",
            "errors",
        ):
            assert status.counters[key] == metrics[key], key
        assert status.counters["retries"] == 1  # the injected fault
        assert status.metrics == metrics  # F record carried verbatim

    def test_point_states_and_annotations(self, tmp_path):
        runner, _, _ = traced_runner(
            tmp_path,
            "run-a",
            faults=FaultPlan.from_spec("error@0"),
            retry=RetryPolicy(max_attempts=1),
        )
        report = runner.run(make_points(workloads=("PR",)))
        assert not report.ok()
        status = load_run_status("run-a", root=tmp_path / "runs")
        failed, good = status.points
        assert failed.state == "failed"
        assert failed.error_kind == "FaultError"
        assert good.state == "done"
        assert good.cache_hit is not None
        assert good.wall_time and good.wall_time > 0
        rows = status_table_rows(status)
        assert [r["state"] for r in rows] == ["failed", "done"]
        # The replay path is the machine's business, not a point's.
        assert "tier" not in rows[1] and "tier" not in good.as_dict()
        assert rows[1]["cache"] in ("hit", "miss")

    def test_status_as_dict_is_json_safe(self, tmp_path):
        runner, _, _ = traced_runner(tmp_path, "run-b")
        runner.run(make_points(workloads=("PR",), setups=("none",)))
        status = load_run_status("run-b", root=tmp_path / "runs")
        payload = json.loads(json.dumps(status.as_dict()))
        assert payload["finished"] is True
        assert payload["states"]["done"] == 1
        assert payload["total"] == 1
        assert payload["eta_s"] == 0.0

    def test_live_run_shows_unfinished_point_as_running(self, tmp_path):
        # Forge the artifacts a live sweep would have written: the ledger's
        # run record and one settled point, and in the sidecar one eager
        # begin without an end.
        points = make_points(workloads=("PR",))
        ledger = live_ledger(tmp_path, "live", points, workers=2, mode="parallel")
        ledger.record(
            points[0],
            PointResult(
                point=points[0],
                summary={},
                wall_time=1.5,
                trace_cache_hit=False,
            ),
        )
        rec = spans.SpanRecorder(sidecar=spans.sidecar_path(ledger.path))
        rec.start("point", index=1, label="PR/kron/droplet", attempt=2)
        rec.event("point.retry", index=1)
        status = load_run_status("live", root=tmp_path / "runs")
        assert status.found and not status.finished
        assert status.mode == "parallel" and status.workers == 2
        done, running = status.points
        assert done.state == "done"
        assert running.state == "running" and running.attempts == 2
        assert status.counters["retries"] == 1
        assert status.eta_seconds() == pytest.approx(1.5 / 2)

    def test_retried_point_without_open_span_shows_retrying(self, tmp_path):
        points = make_points(workloads=("PR",), setups=("none",))
        ledger = live_ledger(tmp_path, "retry", points)
        rec = spans.SpanRecorder(sidecar=spans.sidecar_path(ledger.path))
        rec.event("point.retry", index=0)
        status = load_run_status("retry", root=tmp_path / "runs")
        (point,) = status.points
        assert point.state == "retrying"
        assert point.attempts == 2

    def test_ledger_only_historical_run(self, tmp_path):
        # A run journaled before span tracing existed (or --no-spans):
        # the ledger alone yields completion and durations.
        runner, ledger, _ = traced_runner(tmp_path, "old")
        runner.run(make_points(workloads=("PR",)))
        spans.sidecar_path(ledger.path).unlink()
        status = load_run_status("old", root=tmp_path / "runs")
        assert status.found and status.finished
        assert status.count("done") == 2
        assert all(p.wall_time for p in status.points)

    def test_ledger_records_with_windows_degraded_still_load(self, tmp_path):
        # Ledgers journaled while the replay engine had a degraded tier
        # carry a per-point ``windows_degraded`` count; they must still
        # restore and fold.
        runner, ledger, _ = traced_runner(tmp_path, "legacy")
        points = make_points(workloads=("PR",), setups=("none",))
        runner.run(points)
        spans.sidecar_path(ledger.path).unlink()
        records = [json.loads(line) for line in ledger.path.read_text().splitlines()]
        for record in records:
            if record.get("kind") == "point":
                record["data"]["windows_degraded"] = 3
        ledger.path.write_text("".join(json.dumps(r) + "\n" for r in records))
        status = load_run_status("legacy", root=tmp_path / "runs")
        assert status.count("done") == 1
        assert "degraded" not in status_table_rows(status)[0]
        reopened = RunLedger("legacy", root=tmp_path / "runs")
        assert reopened.open() == 1
        restored = reopened.restore(points[0])
        assert restored is not None and restored.restored
        assert restored.wall_time == status.points[0].wall_time

    def test_unknown_run_not_found(self, tmp_path):
        status = load_run_status("ghost", root=tmp_path / "runs")
        assert not status.found
        assert status.total == 0


#: The point-record fields the previous ledger layout journaled.
OLD_POINT_DATA = (
    "summary",
    "completed_at",
    "duration_s",
    "wall_time",
    "trace_cache_hit",
    "telemetry",
    "attempts",
)


def rotate_twice(sidecar):
    """Push a sidecar through two size rotations with filler records."""
    filler = spans.SpanRecorder(sidecar=sidecar, max_bytes=512)
    while filler.rotations < 2:
        filler.event("filler", pad="x" * 64)


def delete_sidecar(sidecar):
    for path in spans.sidecar_generations(sidecar):
        path.unlink()


class TestLedgerIsTheRecord:
    """Status of a settled point comes from the ledger, whatever happened
    to the size-rotated span sidecar."""

    def test_rotation_loses_no_failure(self, tmp_path):
        ledger = RunLedger("rotating", root=tmp_path / "runs")
        tracer = spans.SpanRecorder(
            sidecar=spans.sidecar_path(ledger.path), max_bytes=1500
        )
        runner = SweepRunner(
            trace_cache=TraceCache(tmp_path / "traces"),
            return_full=False,
            ledger=ledger,
            tracer=tracer,
            faults=FaultPlan.from_spec("error@0"),
            retry=RetryPolicy(max_attempts=1),
        )
        report = runner.run(
            make_points(
                workloads=("PR", "BFS", "CC"),
                setups=("none", "stream", "droplet"),
            )
        )
        assert tracer.rotations >= 2
        status = load_run_status("rotating", root=tmp_path / "runs")
        assert status.finished
        assert status.total == 9
        assert status.count("failed") == 1
        assert status.points[0].error_kind == "FaultError"
        metrics = report.metrics.as_dict()
        for key in COUNTER_KEYS:
            assert status.counters[key] == metrics[key], key

    def test_finished_status_ignores_the_sidecar(self, tmp_path):
        runner, _, tracer = traced_runner(
            tmp_path,
            "sealed",
            faults=FaultPlan.from_spec("error@0"),
            retry=RetryPolicy(max_attempts=1),
        )
        runner.run(make_points(workloads=("PR",)))
        present = load_run_status("sealed", root=tmp_path / "runs").as_dict()
        assert present["finished"] and present["metrics"] is not None
        assert present["states"]["failed"] == 1
        rotate_twice(tracer.sidecar)
        rotated = load_run_status("sealed", root=tmp_path / "runs").as_dict()
        assert rotated == present
        delete_sidecar(tracer.sidecar)
        deleted = load_run_status("sealed", root=tmp_path / "runs").as_dict()
        assert deleted == present

    def test_resumed_points_stay_restored_without_a_sidecar(self, tmp_path):
        points = make_points()
        first, _, _ = traced_runner(tmp_path, "resumed")
        first.run(points[:2])
        resumed, _, tracer = traced_runner(tmp_path, "resumed")
        report = resumed.run(points)
        delete_sidecar(tracer.sidecar)
        status = load_run_status("resumed", root=tmp_path / "runs")
        assert status.finished
        assert [p.state for p in status.points] == [
            "restored", "restored", "done", "done",
        ]
        assert status.counters["restored_points"] == report.metrics.restored == 2

    def test_old_layout_ledger_still_restores_and_renders(self, tmp_path):
        # A ledger journaled before run, finish and failed-point records
        # existed: successful point records with the old field set only,
        # including the replay tier that records no longer carry.
        runner, ledger, _ = traced_runner(tmp_path, "old-layout")
        points = make_points(workloads=("PR",))
        runner.run(points)
        spans.sidecar_path(ledger.path).unlink()
        records = [json.loads(line) for line in ledger.path.read_text().splitlines()]
        old = [records[0]] + [
            {
                "kind": "point",
                "key": r["key"],
                "label": r["label"],
                "data": dict(
                    {name: r["data"][name] for name in OLD_POINT_DATA},
                    replay_tier="vector",
                ),
            }
            for r in records
            if r["kind"] == "point"
        ]
        ledger.path.write_text("".join(json.dumps(r) + "\n" for r in old))
        status = load_run_status("old-layout", root=tmp_path / "runs")
        assert status.found and status.finished
        assert [p.state for p in status.points] == ["done", "done"]
        assert all(p.wall_time for p in status.points)
        assert status.metrics is None
        assert "done" in render_table(status_table_rows(status))
        reopened = RunLedger("old-layout", root=tmp_path / "runs")
        assert reopened.open() == 2
        for point in points:
            restored = reopened.restore(point)
            assert restored is not None and restored.restored
        resumed, _, _ = traced_runner(tmp_path, "old-layout")
        report = resumed.run(points)
        assert report.metrics.restored == 2
        assert {r.point.label: r.summary for r in report.points} == {
            r["label"]: r["data"]["summary"] for r in old[1:]
        }


class TestWatchIncremental:
    def test_incremental_folds_match_full_reload_at_every_step(self, tmp_path):
        """Replaying real artifacts record-by-record, the incremental
        builder's snapshot equals a full reload after every chunk —
        the parity `--watch` (and the service pollers) rely on."""
        runner, ledger, tracer = traced_runner(
            tmp_path,
            "parity",
            faults=FaultPlan(error=(1,), trip_dir=str(tmp_path / "trips")),
            retry=RetryPolicy(max_attempts=3, backoff=0.01),
        )
        runner.run(make_points(workloads=("PR",)))
        ledger_lines = ledger.path.read_text().splitlines(keepends=True)
        sidecar_lines = tracer.sidecar.read_text().splitlines(keepends=True)

        shadow = tmp_path / "shadow"
        shadow.mkdir()
        shadow_ledger, shadow_sidecar = status_paths("parity", shadow)
        builder = RunStatusBuilder("parity", shadow_ledger, shadow_sidecar)
        ledger_tail = JsonlTailer(shadow_ledger)
        sidecar_tail = JsonlTailer(shadow_sidecar)

        def drip(path, lines):
            with open(path, "a", encoding="utf-8") as fh:
                fh.write("".join(lines))

        # Interleave ledger and sidecar appends a few lines at a time.
        steps = []
        for i in range(0, len(ledger_lines), 2):
            steps.append((shadow_ledger, ledger_lines[i : i + 2]))
        for i in range(0, len(sidecar_lines), 3):
            steps.append((shadow_sidecar, sidecar_lines[i : i + 3]))
        for path, lines in steps:
            drip(path, lines)
            for record in ledger_tail.poll():
                builder.fold_ledger(record)
            for record in sidecar_tail.poll():
                builder.fold_span(record)
            incremental = builder.snapshot().as_dict()
            full = load_run_status("parity", root=shadow).as_dict()
            # ETA depends on point completion only; dicts match exactly.
            assert incremental == full
        assert builder.snapshot().finished

    def test_watch_tails_a_live_run_to_completion(self, tmp_path):
        import threading

        runner, _, _ = traced_runner(tmp_path, "livewatch")
        worker = threading.Thread(
            target=runner.run,
            args=(make_points(workloads=("PR",), setups=("none",)),),
        )
        worker.start()
        try:
            seen = []
            status = watch(
                "livewatch",
                root=tmp_path / "runs",
                poll=0.05,
                render=seen.append,
                max_polls=600,
            )
        finally:
            worker.join()
        assert status.finished
        assert status.count("done") == 1
        assert len(seen) >= 1 and seen[-1].finished
        # The final incremental status equals a full reload.
        assert status.as_dict() == load_run_status(
            "livewatch", root=tmp_path / "runs"
        ).as_dict()

    def test_watch_max_polls_bounds_an_unfinished_run(self, tmp_path):
        points = make_points(workloads=("PR",), setups=("none",))
        ledger = live_ledger(tmp_path, "stuck", points)
        rec = spans.SpanRecorder(sidecar=spans.sidecar_path(ledger.path))
        rec.start("point", index=0, label="PR/kron/none", attempt=1)
        status = watch(
            "stuck", root=tmp_path / "runs", poll=0.01, max_polls=2
        )
        assert not status.finished
        assert status.points[0].state == "running"


class TestTrend:
    @staticmethod
    def _write(path, payload, mtime):
        path.write_text(json.dumps(payload))
        import os

        os.utime(path, (mtime, mtime))

    @staticmethod
    def _sweep_payload(cycles, ipc=0.5):
        return {
            "format": "repro-sweep-v2",
            "points": [
                {
                    "ok": True,
                    "label": "PR/kron/droplet",
                    "summary": {"cycles": cycles, "ipc": ipc},
                }
            ],
        }

    @staticmethod
    def _bench_payload(speedup):
        return {
            "schema": "repro-replay-bench-v2",
            "cells": {"PR": {"droplet": {"speedup": speedup}}},
        }

    @pytest.fixture()
    def store(self, tmp_path):
        now = time.time()
        self._write(tmp_path / "sweep-1.json", self._sweep_payload(100.0), now - 40)
        self._write(tmp_path / "sweep-2.json", self._sweep_payload(101.0), now - 30)
        self._write(tmp_path / "sweep-3.json", self._sweep_payload(120.0), now - 20)
        self._write(tmp_path / "bench-1.json", self._bench_payload(2.0), now - 15)
        self._write(tmp_path / "bench-2.json", self._bench_payload(1.5), now - 10)
        (tmp_path / "noise.json").write_text('{"format": "other"}')
        (tmp_path / "broken.json").write_text("{not json")
        return tmp_path

    def test_scan_classifies_and_orders_by_mtime(self, store):
        snapshots = scan_store(store)
        assert [s.kind for s in snapshots] == [
            "sweep", "sweep", "sweep", "bench", "bench",
        ]
        assert snapshots[0].label == "sweep-1.json"

    def test_scan_missing_store_is_empty(self, tmp_path):
        assert scan_store(tmp_path / "nope") == []

    def test_series_track_each_metric(self, store):
        series = trend_series(scan_store(store))
        assert series["PR/kron/droplet:cycles"] == [
            ("sweep-1.json", 100.0),
            ("sweep-2.json", 101.0),
            ("sweep-3.json", 120.0),
        ]
        assert series["bench:PR/droplet:speedup"] == [
            ("bench-1.json", 2.0),
            ("bench-2.json", 1.5),
        ]

    def test_flags_are_direction_aware(self, store):
        series = trend_series(scan_store(store))
        flags = flag_regressions(series, threshold=0.05)
        flagged = {f.series for f in flags}
        # cycles rose 100.5 -> 120 (larger-is-worse): flagged.
        assert "PR/kron/droplet:cycles" in flagged
        # speedup fell 2.0 -> 1.5 (smaller-is-worse): flagged.
        assert "bench:PR/droplet:speedup" in flagged
        # ipc held flat: not flagged.
        assert "PR/kron/droplet:ipc" not in flagged
        cycles_flag = next(
            f for f in flags if f.series == "PR/kron/droplet:cycles"
        )
        assert cycles_flag.baseline == pytest.approx(100.5)  # median of priors
        assert "rose" in cycles_flag.to_text()

    def test_improvements_are_not_flagged(self, tmp_path):
        now = time.time()
        self._write(tmp_path / "a.json", self._sweep_payload(100.0), now - 20)
        self._write(tmp_path / "b.json", self._sweep_payload(80.0), now - 10)
        series = trend_series(scan_store(tmp_path))
        assert flag_regressions(series) == []

    def test_single_snapshot_never_flagged(self, tmp_path):
        self._write(
            tmp_path / "a.json", self._sweep_payload(100.0), time.time()
        )
        assert flag_regressions(trend_series(scan_store(tmp_path))) == []

    def test_table_rows_and_report(self, store):
        snapshots = scan_store(store)
        series = trend_series(snapshots)
        flags = flag_regressions(series)
        rows = trend_table_rows(series, flags)
        by_series = {r["series"]: r for r in rows}
        assert by_series["PR/kron/droplet:cycles"]["flag"] == "REGRESSION"
        assert by_series["PR/kron/droplet:ipc"]["flag"] is None
        assert by_series["PR/kron/droplet:cycles"]["delta_pct"] == pytest.approx(20.0)
        report = trend_report(store, threshold=0.05)
        assert report["format"] == "repro-trend-v1"
        assert len(report["snapshots"]) == 5
        assert {r["series"] for r in report["regressions"]} == {
            "PR/kron/droplet:cycles",
            "bench:PR/droplet:speedup",
        }
        json.dumps(report)  # JSON-safe
