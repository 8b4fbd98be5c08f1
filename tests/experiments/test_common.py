"""Tests for the experiment infrastructure."""

import math

import pytest

from repro.experiments import (
    FIGURES,
    ExperimentConfig,
    ExperimentResult,
    clear_caches,
    figure_points,
    geomean,
    get_graph,
    get_trace_run,
    render_table,
    run_points,
)
from repro.runtime import PointResult, SweepReport


class TestExperimentConfig:
    def test_default_covers_paper_matrix(self):
        cfg = ExperimentConfig()
        assert cfg.workloads == ("BC", "BFS", "PR", "SSSP", "CC")
        assert cfg.datasets == ("kron", "urand", "orkut", "livejournal", "road")

    def test_quick_is_reduced(self):
        q = ExperimentConfig.quick()
        assert len(q.workloads) < 5
        assert q.max_refs < ExperimentConfig().max_refs

    def test_hashable(self):
        assert hash(ExperimentConfig.quick()) == hash(ExperimentConfig.quick())


class TestCaches:
    def test_graph_cache_returns_same_object(self):
        clear_caches()
        a = get_graph("kron", scale_shift=-5)
        b = get_graph("kron", scale_shift=-5)
        assert a is b

    def test_trace_cache(self):
        clear_caches()
        a = get_trace_run("PR", "kron", max_refs=2_000, scale_shift=-5)
        b = get_trace_run("PR", "kron", max_refs=2_000, scale_shift=-5)
        assert a.trace.name == b.trace.name
        assert (a.trace.addr == b.trace.addr).all()
        c = get_trace_run("PR", "kron", max_refs=3_000, scale_shift=-5)
        assert len(c.trace) > len(a.trace)

    def test_weighted_graph_for_sssp(self):
        clear_caches()
        run = get_trace_run("SSSP", "urand", max_refs=2_000, scale_shift=-5)
        assert run.weighted


class TestRunPoints:
    def test_one_sweep_of_the_distinct_points(self):
        points = figure_points(FIGURES, ExperimentConfig.quick())
        sweeps = []

        class Recorder:
            def run(self, todo):
                sweeps.append(todo)
                return SweepReport(
                    points=[PointResult(p, summary={}, result=p.label) for p in todo]
                )

        results = run_points(points, Recorder())
        assert len(sweeps) == 1
        assert len(points) > len(sweeps[0]) == len(set(points))
        assert results == {p: p.label for p in points}


class TestGeomean:
    def test_basic(self):
        assert abs(geomean([2, 8]) - 4.0) < 1e-9

    def test_single(self):
        assert geomean([3.0]) == pytest.approx(3.0)

    def test_empty_is_nan(self):
        assert math.isnan(geomean([]))

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])


class TestRenderTable:
    def test_alignment_and_header(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 200, "b": "z"}]
        text = render_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_missing_cells(self):
        text = render_table([{"a": 1}, {"b": 2}])
        assert "a" in text and "b" in text

    def test_empty(self):
        assert render_table([]) == "(no rows)"

    def test_float_formatting(self):
        text = render_table([{"x": 1.23456}])
        assert "1.235" in text


class TestExperimentResult:
    def test_to_text_includes_notes(self):
        r = ExperimentResult("figX", "demo", rows=[{"a": 1}], notes=["hello"])
        text = r.to_text()
        assert "figX" in text and "hello" in text

    def test_column(self):
        r = ExperimentResult("f", "t", rows=[{"a": 1}, {"a": 2}])
        assert r.column("a") == [1, 2]
        assert r.column("zz") == [None, None]
