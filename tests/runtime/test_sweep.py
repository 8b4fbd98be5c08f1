"""SweepRunner: ordering, determinism, error isolation, metrics.

The parallel tests here spawn real worker processes; points are kept
tiny (scale_shift=-6, a few thousand references) so the whole module
stays fast while still covering the cross-process paths.
"""

from __future__ import annotations

import pytest

from repro.droplet.composite import make_prefetch_setup
from repro.runtime import (
    SweepError,
    SweepPoint,
    SweepRunner,
    TraceCache,
    TraceSpec,
)
from repro.system.runner import compare_setups
from repro.workloads.registry import PAPER_WORKLOAD_ORDER

MAX_REFS = 3000
SCALE_SHIFT = -6


def make_points(workloads=("PR", "BFS"), setups=("none", "droplet"), **kwargs):
    return [
        SweepPoint(
            workload=w,
            dataset="kron",
            setup=s,
            max_refs=MAX_REFS,
            scale_shift=SCALE_SHIFT,
            **kwargs,
        )
        for w in workloads
        for s in setups
    ]


def serial_runner(tmp_path, **kwargs) -> SweepRunner:
    return SweepRunner(trace_cache=TraceCache(tmp_path / "traces"), **kwargs)


def parallel_runner(tmp_path, workers=2, **kwargs) -> SweepRunner:
    return SweepRunner(
        workers=workers, trace_cache=TraceCache(tmp_path / "traces"), **kwargs
    )


class TestSerialSweep:
    def test_results_in_submission_order(self, tmp_path):
        points = make_points()
        report = serial_runner(tmp_path).run(points)
        assert [r.point for r in report.points] == points
        assert report.ok() and not report.errors()
        assert len(report) == len(points)

    def test_summaries_and_full_results(self, tmp_path):
        report = serial_runner(tmp_path).run(make_points(workloads=("PR",)))
        for r in report.points:
            assert r.summary["cycles"] > 0
            assert r.result is not None
            assert r.summary["cycles"] == r.result.cycles
            assert r.wall_time > 0

    def test_return_full_false_keeps_summaries_only(self, tmp_path):
        runner = serial_runner(tmp_path, return_full=False)
        report = runner.run(make_points(workloads=("PR",)))
        assert all(r.result is None and r.summary is not None for r in report)
        with pytest.raises(SweepError, match="return_full"):
            report.results_by_key()

    def test_error_isolation(self, tmp_path):
        points = make_points(workloads=("PR",), setups=("none", "bogus"))
        report = serial_runner(tmp_path).run(points)
        good, bad = report.points
        assert good.ok and not bad.ok
        assert bad.error.kind == "ValueError"
        assert "bogus" in bad.error.message
        assert bad.error.traceback  # full traceback captured for the log
        assert report.metrics.errors == 1
        with pytest.raises(SweepError, match="PR/kron/bogus"):
            report.raise_errors()

    def test_metrics_cold_then_warm(self, tmp_path):
        runner = serial_runner(tmp_path)
        points = make_points()  # 2 workloads x 2 setups -> 2 unique traces
        cold = runner.run(points)
        assert cold.metrics.total_points == 4
        assert cold.metrics.traces_generated == 2
        assert cold.metrics.cache_misses == 2
        assert cold.metrics.cache_hits == 2  # second setup reuses the memo
        runner.clear_memo()
        warm = runner.run(points)
        assert warm.metrics.traces_generated == 0
        assert warm.metrics.cache_hits == 4
        assert warm.metrics.elapsed > 0
        assert warm.metrics.as_dict()["trace_cache_hits"] == 4
        assert "4 points" in warm.metrics.to_text()

    def test_variant_points_change_the_machine(self, tmp_path):
        base, llc4, no_l2 = serial_runner(tmp_path).run(
            [
                SweepPoint("PR", "kron", max_refs=MAX_REFS, scale_shift=SCALE_SHIFT),
                SweepPoint(
                    "PR",
                    "kron",
                    max_refs=MAX_REFS,
                    scale_shift=SCALE_SHIFT,
                    llc_multiplier=4,
                ),
                SweepPoint(
                    "PR",
                    "kron",
                    max_refs=MAX_REFS,
                    scale_shift=SCALE_SHIFT,
                    l2_config=(None, 8),
                ),
            ]
        ).points
        assert llc4.summary["llc_mpki"] <= base.summary["llc_mpki"]
        assert no_l2.summary["l2_hit_rate"] == 0.0
        assert base.summary["l2_hit_rate"] > 0.0

    def test_replay_path_is_not_a_point_knob(self):
        # The machine picks the replay path; both give identical results.
        with pytest.raises(TypeError):
            SweepPoint("PR", "kron", fast_path="off")


class TestParallelSweep:
    def test_parallel_matches_serial(self, tmp_path):
        points = make_points()
        serial = serial_runner(tmp_path).run(points)
        parallel = parallel_runner(tmp_path).run(points)
        assert parallel.summaries() == serial.summaries()
        assert [r.point for r in parallel.points] == points
        assert parallel.metrics.workers == 2

    def test_parallel_error_isolation(self, tmp_path):
        points = make_points(workloads=("PR",), setups=("none", "bogus"))
        report = parallel_runner(tmp_path).run(points)
        good, bad = report.points
        assert good.ok and not bad.ok and bad.error.kind == "ValueError"

    def test_parallel_full_results_cross_the_pool(self, tmp_path):
        points = make_points(workloads=("PR",))
        report = parallel_runner(tmp_path).run(points)
        matrix = report.results_by_key()
        base = matrix[("PR", "kron", "none")]
        assert matrix[("PR", "kron", "droplet")].speedup_vs(base) > 0

    def test_warm_phase_traces_each_spec_once(self, tmp_path):
        points = make_points()  # 2 unique traces, 4 points
        report = parallel_runner(tmp_path).run(points)
        assert report.metrics.traces_generated == 2
        # warm phase: 2 misses; simulate phase: 4 memo/disk hits.
        assert report.metrics.cache_misses == 2
        assert report.metrics.cache_hits == 4
        assert 0 < report.metrics.utilization <= 1.0


class TestDeterminism:
    """Satellite: the same sweep is bit-identical however it executes."""

    def test_fig11_shaped_sweep_serial_vs_parallel(self, tmp_path):
        points = make_points(
            workloads=PAPER_WORKLOAD_ORDER,
            setups=("none", "stream", "streamMPP1", "droplet"),
        )
        assert len(points) == 20  # 5 workloads x 4 setups — Fig. 11 shaped
        serial = serial_runner(tmp_path, return_full=False).run(points)
        one_worker = SweepRunner(
            workers=1,
            trace_cache=TraceCache(tmp_path / "traces"),
            return_full=False,
        ).run(points)
        four_workers = parallel_runner(tmp_path, workers=4, return_full=False).run(
            points
        )
        assert serial.ok()
        assert one_worker.summaries() == serial.summaries()
        assert four_workers.summaries() == serial.summaries()

    def test_repeat_runs_identical_even_without_cache(self, tmp_path):
        points = make_points(workloads=("PR",))
        first = SweepRunner(trace_cache=False).run(points)
        second = SweepRunner(trace_cache=False).run(points)
        assert first.summaries() == second.summaries()
        assert first.metrics.cache_misses == 1  # traced once, memo reused


class TestMetricsAggregation:
    """Satellite: worker/utilization accounting on the serial fallback."""

    def test_serial_fallback_reports_one_serial_worker(self, tmp_path):
        for workers in (None, 0, 1):
            runner = SweepRunner(
                workers=workers, trace_cache=TraceCache(tmp_path / "traces")
            )
            report = runner.run(make_points(workloads=("PR",), setups=("none",)))
            assert report.metrics.workers == 1
            assert report.metrics.mode == "serial"
            # Serial execution is ~100% busy by construction; timer
            # granularity must never push it past 1.0.
            assert 0 < report.metrics.utilization <= 1.0
            assert "serial worker" in report.metrics.to_text()

    def test_parallel_mode_reported(self, tmp_path):
        report = parallel_runner(tmp_path).run(
            make_points(workloads=("PR",), setups=("none",))
        )
        assert report.metrics.mode == "parallel"
        assert report.metrics.workers == 2
        assert report.metrics.as_dict()["mode"] == "parallel"

    def test_degenerate_metrics_are_zero_not_nan(self):
        from repro.runtime.sweep import SweepMetrics

        assert SweepMetrics().utilization == 0.0
        assert SweepMetrics(elapsed=0.0, point_time=5.0).utilization == 0.0
        capped = SweepMetrics(elapsed=1.0, point_time=1.5, workers=1)
        assert capped.utilization == 1.0


class TestTelemetrySweep:
    """Tentpole: per-point telemetry payloads riding on sweep results."""

    def test_serial_sweep_attaches_payloads(self, tmp_path):
        runner = serial_runner(tmp_path, telemetry=True, telemetry_interval=2000)
        report = runner.run(make_points(workloads=("PR",)))
        from repro.telemetry import validate_telemetry_payload

        for r in report.points:
            assert r.telemetry is not None
            validate_telemetry_payload(r.telemetry)
            assert r.telemetry["meta"]["label"] == r.point.label
            # Sweep payloads stay slim: summary counts only, no records.
            assert "records" not in r.telemetry["events"]
            assert r.as_dict()["telemetry"] == r.telemetry

    def test_parallel_payloads_cross_the_pool(self, tmp_path):
        points = make_points(workloads=("PR",))
        serial = serial_runner(
            tmp_path, telemetry=True, telemetry_interval=2000
        ).run(points)
        parallel = parallel_runner(
            tmp_path, telemetry=True, telemetry_interval=2000
        ).run(points)
        for s, p in zip(serial.points, parallel.points):
            assert p.telemetry is not None
            assert p.telemetry["samples"] == s.telemetry["samples"]

    def test_telemetry_off_by_default(self, tmp_path):
        report = serial_runner(tmp_path).run(
            make_points(workloads=("PR",), setups=("none",))
        )
        assert all(r.telemetry is None for r in report.points)
        assert "telemetry" not in report.points[0].as_dict()

    def test_telemetry_does_not_change_summaries(self, tmp_path):
        points = make_points(workloads=("PR",))
        plain = serial_runner(tmp_path).run(points)
        instrumented = serial_runner(
            tmp_path, telemetry=True, telemetry_interval=2000
        ).run(points)
        assert instrumented.summaries() == plain.summaries()


class TestCompareSetups:
    """Satellite: compare_setups construction fix + PrefetchSetup objects."""

    @pytest.fixture(scope="class")
    def trace_run(self):
        return TraceSpec(
            "PR", "kron", max_refs=MAX_REFS, scale_shift=SCALE_SHIFT
        ).trace()

    def test_accepts_prefetch_setup_objects(self, trace_run):
        setups = ("none", make_prefetch_setup("droplet"))
        results = compare_setups(trace_run, setups=setups)
        assert set(results) == {"none", "droplet"}
        assert results["droplet"].setup_name == "droplet"
