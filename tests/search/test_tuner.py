"""Successive-halving tuner: halving soundness, resume, CLI end-to-end.

The micro-space here is the PR/kron configuration the regression golden
also pins (scale_shift=-6, 3000-ref full window): small enough to run in
seconds, rich enough that the rungs actually prune.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.runtime import (
    FaultPlan,
    RetryPolicy,
    RunLedger,
    SweepRunner,
    TraceCache,
)
from repro.search import (
    HalvingSchedule,
    ParetoSearch,
    SearchError,
    pareto_table_rows,
)
from repro.search.frontier import (
    frontier_indices,
    objective_vector,
    parse_objectives,
)
from repro.search.space import parse_space
from repro.telemetry import spans

WORKLOAD, DATASET = "PR", "kron"
SCALE_SHIFT = -6
FULL_REFS = 3000
SPACE = "setup=none,stream;llc=1,2"
OBJECTIVES = "cycles,area_mm2"


@pytest.fixture(scope="module")
def trace_cache(tmp_path_factory):
    """One on-disk cache for every search in this module (traces reuse)."""
    return tmp_path_factory.mktemp("traces")


def make_search(**overrides) -> ParetoSearch:
    kwargs = dict(
        workload=WORKLOAD,
        dataset=DATASET,
        candidates=parse_space(SPACE),
        objectives=parse_objectives(OBJECTIVES),
        schedule=HalvingSchedule(full_refs=FULL_REFS, rungs=3, eta=2, min_refs=500),
        scale_shift=SCALE_SHIFT,
    )
    kwargs.update(overrides)
    return ParetoSearch(**kwargs)


def make_runner(trace_cache, tmp_path, run_id="search", **kwargs):
    kwargs.setdefault("retry", RetryPolicy(max_attempts=1))
    return SweepRunner(
        workers=0,
        trace_cache=TraceCache(trace_cache),
        return_full=False,
        ledger=RunLedger(run_id, root=tmp_path / "runs"),
        **kwargs,
    )


def run_search(trace_cache, tmp_path, run_id="search", **runner_kwargs) -> dict:
    return make_search().run(
        make_runner(trace_cache, tmp_path, run_id=run_id, **runner_kwargs)
    )


class TestHalvingSchedule:
    def test_windows_grow_geometrically_to_the_full_trace(self):
        schedule = HalvingSchedule(full_refs=40_000, rungs=3, eta=2, min_refs=500)
        assert schedule.windows() == [10_000, 20_000, 40_000]

    def test_min_refs_floors_the_early_rungs(self):
        schedule = HalvingSchedule(full_refs=2000, rungs=4, eta=4, min_refs=900)
        windows = schedule.windows()
        assert windows[0] == 900
        assert windows[-1] == 2000
        assert windows == sorted(set(windows))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            HalvingSchedule(full_refs=0)
        with pytest.raises(ValueError):
            HalvingSchedule(full_refs=100, rungs=0)
        with pytest.raises(ValueError):
            HalvingSchedule(full_refs=100, eta=1)


def test_replay_path_is_not_a_search_knob():
    with pytest.raises(TypeError):
        make_search(fast_path="off")
    with pytest.raises(TypeError):
        parse_space(SPACE)[0].point(WORKLOAD, DATASET, FULL_REFS, fast_path="off")
    assert "fast_path" not in make_search().spec_dict()


class TestSearchCorrectness:
    def test_frontier_matches_exhaustive_full_evaluation(
        self, trace_cache, tmp_path
    ):
        """Halving prunes *work*, never frontier points (acceptance gate)."""
        report = run_search(trace_cache, tmp_path)
        search = make_search()
        points = [
            c.point(WORKLOAD, DATASET, FULL_REFS, scale_shift=SCALE_SHIFT)
            for c in search.candidates
        ]
        exhaustive = make_runner(
            trace_cache, tmp_path, run_id="exhaustive"
        ).run(points)
        assert not exhaustive.errors()
        vectors = [
            objective_vector(r.summary, search.objectives)
            for r in exhaustive.points
        ]
        expected = sorted(
            search.candidates[i].label
            for i in frontier_indices(vectors, search.objectives)
        )
        assert sorted(e["label"] for e in report["frontier"]) == expected
        # ... and the search did strictly less full-window work than the
        # exhaustive sweep unless nothing was prunable.
        assert report["counters"]["pruned"] > 0

    def test_rungs_never_prune_their_own_frontier(self, trace_cache, tmp_path):
        report = run_search(trace_cache, tmp_path)
        for rung in report["rungs"][:-1]:
            assert set(rung["frontier"]) <= set(rung["promoted"])
            assert not set(rung["frontier"]) & set(rung["pruned"])
            assert sorted(rung["promoted"] + rung["pruned"]) == sorted(
                rung["candidates"]
            )

    def test_report_shape_and_counters(self, trace_cache, tmp_path):
        report = run_search(trace_cache, tmp_path)
        assert report["format"] == "repro-pareto-v1"
        counters = report["counters"]
        assert counters["rungs"] == len(report["rungs"])
        assert counters["frontier_size"] == len(report["frontier"])
        assert counters["dominated"] == len(report["space"]) - len(
            report["frontier"]
        )
        for entry in report["frontier"]:
            assert set(entry["objectives"]) == {"cycles", "area_mm2"}
            assert entry["metrics"]["area_mm2"] == entry["objectives"]["area_mm2"]
        rows = pareto_table_rows(report)
        assert rows and rows[0]["status"] == "frontier"

    def test_search_emits_pareto_spans(self, trace_cache, tmp_path):
        tracer = spans.SpanRecorder()
        with spans.use(tracer):
            run_search(trace_cache, tmp_path)
        records = list(tracer.records())
        names = [r.get("name") for r in records]
        assert "pareto.run" in names
        assert names.count("pareto.rung") >= 3  # begin records per rung
        finish = [r for r in records if r.get("name") == "pareto.finish"]
        assert finish and finish[-1]["k"] == "F"
        for counter in ("rungs", "evaluations", "pruned", "promoted",
                        "frontier_size", "dominated"):
            assert counter in finish[-1]["attrs"]
        assert any(r.get("name") == "pareto.prune" for r in records)


class TestDeterministicResume:
    def test_interrupted_search_resumes_byte_identical(
        self, trace_cache, tmp_path
    ):
        clean = run_search(trace_cache, tmp_path, run_id="clean")
        clean_bytes = json.dumps(clean, indent=2, sort_keys=True)

        # Interrupt: a deterministic error fault fails one rung-0 point
        # on its only attempt, aborting the search mid-rung.
        with pytest.raises(SearchError) as excinfo:
            run_search(
                trace_cache,
                tmp_path,
                run_id="faulty",
                faults=FaultPlan.from_spec("error@2", trip_dir=None),
            )
        assert excinfo.value.failed
        ledger = RunLedger("faulty", root=tmp_path / "runs")
        ledger.refresh()
        assert 0 < len(ledger) < 4  # partial rung journaled

        # Resume: same spec, same ledger, faults gone.
        resumed = run_search(trace_cache, tmp_path, run_id="faulty")
        assert json.dumps(resumed, indent=2, sort_keys=True) == clean_bytes

    def test_resume_restores_instead_of_recomputing(
        self, trace_cache, tmp_path
    ):
        run_search(trace_cache, tmp_path, run_id="twice")
        ledger = RunLedger("twice", root=tmp_path / "runs")
        ledger.refresh()
        journaled = len(ledger)
        tracer = spans.SpanRecorder()
        runner = make_runner(trace_cache, tmp_path, run_id="twice")
        with spans.use(tracer):
            make_search().run(runner)
        # Every evaluation restores from the ledger: no new point spans.
        names = [r.get("name") for r in tracer.records()]
        assert names.count("point") == 0
        assert names.count("ledger.restore") == journaled


class TestParetoCLI:
    @pytest.fixture(autouse=True)
    def _env(self, tmp_path, monkeypatch, trace_cache):
        monkeypatch.setenv("REPRO_RUN_LEDGER", str(tmp_path / "runs"))
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(trace_cache))

    ARGS = [
        "pareto", WORKLOAD, DATASET,
        "--space", SPACE,
        "--objectives", OBJECTIVES,
        "--max-refs", str(FULL_REFS),
        "--min-refs", "500",
        "--scale-shift", str(SCALE_SHIFT),
        "--retries", "0",
    ]

    def test_end_to_end_report_figure_and_resume(self, tmp_path, capsys):
        out = tmp_path / "pareto.json"
        figure = tmp_path / "frontier.svg"
        args = self.ARGS + [
            "--out", str(out), "--figure", str(figure), "--run-id", "cli",
        ]
        assert main(args) == 0
        shown = capsys.readouterr().out
        assert "frontier" in shown
        payload = json.loads(out.read_text())
        assert payload["format"] == "repro-pareto-v1"
        assert payload["frontier"]
        svg = figure.read_text()
        assert svg.startswith("<svg") and "frontier" in svg

        # A second invocation resumes from the ledger and must reproduce
        # the report byte for byte.
        rerun = tmp_path / "pareto2.json"
        assert main(
            self.ARGS + ["--out", str(rerun), "--resume", "cli"]
        ) == 0
        assert rerun.read_bytes() == out.read_bytes()

    def test_interrupted_cli_search_resumes_byte_identical(
        self, tmp_path, capsys
    ):
        clean = tmp_path / "clean.json"
        assert main(
            self.ARGS + ["--out", str(clean), "--run-id", "cli-clean"]
        ) == 0
        faulty = tmp_path / "faulty.json"
        args = self.ARGS + ["--out", str(faulty), "--run-id", "cli-faulty"]
        assert main(args + ["--faults", "error@2"]) == 1
        assert not faulty.exists()
        err = capsys.readouterr().err
        assert "search aborted" in err and "--resume" in err
        assert main(args) == 0
        assert faulty.read_bytes() == clean.read_bytes()

    def test_resume_with_a_different_spec_is_rejected(self, tmp_path, capsys):
        assert main(self.ARGS + ["--run-id", "guard"]) == 0
        changed = list(self.ARGS)
        changed[changed.index("--space") + 1] = "setup=none,droplet"
        assert main(changed + ["--resume", "guard"]) == 2
        assert "different search spec" in capsys.readouterr().err

    def test_resume_without_a_ledger_is_an_error(self, capsys):
        assert main(self.ARGS + ["--resume", "ghost"]) == 2
        assert "no ledger" in capsys.readouterr().err

    def test_bad_objectives_are_a_usage_error(self, capsys):
        args = list(self.ARGS)
        args[args.index("--objectives") + 1] = "cycles:down"
        assert main(args) == 2
        assert "sense" in capsys.readouterr().err
