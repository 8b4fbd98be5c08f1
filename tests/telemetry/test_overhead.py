"""Telemetry's contract with the simulator: zero interference.

The acceptance bar for the subsystem: instrumented runs must not change
simulated results at all (the registry is pull-based, sampling happens
at window boundaries, events never feed back), and an absent session
(``None``) must leave the machine on the exact uninstrumented code path.
The same bar applies to runtime span tracing: with no recorder installed
the instrumented control paths must allocate zero span records.
"""

from __future__ import annotations

import pytest

from repro.reporting import summarize
from repro.runtime import SweepPoint, SweepRunner, TraceCache, TraceSpec
from repro.system.runner import simulate
from repro.telemetry import Telemetry, telemetry_dict, validate_telemetry_payload
from repro.telemetry import spans

MAX_REFS = 3000
SCALE_SHIFT = -6


@pytest.fixture(scope="module")
def kron_run():
    return TraceSpec(
        "PR", "kron", max_refs=MAX_REFS, scale_shift=SCALE_SHIFT
    ).trace()


@pytest.fixture(scope="module")
def mesh_pr_run():
    # side-12 mesh: all ten PageRank iterations fit in the budget.
    return TraceSpec(
        "PR", "mesh", max_refs=40_000, scale_shift=-3
    ).trace()


class TestZeroInterference:
    @pytest.mark.parametrize("setup", ["none", "droplet"])
    def test_enabled_session_never_changes_simulated_results(
        self, kron_run, setup
    ):
        absent = summarize(simulate(kron_run, setup=setup, telemetry=None))
        session = Telemetry(interval_cycles=5_000)
        instrumented = summarize(
            simulate(kron_run, setup=setup, telemetry=session)
        )
        assert instrumented == absent
        assert len(session.timeline) > 0  # it really did sample

    def test_session_is_single_use(self, kron_run):
        session = Telemetry()
        simulate(kron_run, setup="none", telemetry=session)
        with pytest.raises(RuntimeError, match="already attached"):
            simulate(kron_run, setup="none", telemetry=session)

    @pytest.mark.parametrize("setup", ["none", "stream", "droplet"])
    def test_attribution_never_changes_simulated_results(self, kron_run, setup):
        absent = summarize(simulate(kron_run, setup=setup, telemetry=None))
        session = Telemetry(interval_cycles=5_000, attribution=True)
        instrumented = summarize(
            simulate(kron_run, setup=setup, telemetry=session)
        )
        assert instrumented == absent
        profiler = session.attribution_profiler
        assert profiler is not None
        assert profiler.l3.total_misses > 0  # it really did observe

    def test_attribution_block_in_payload_validates(self, kron_run):
        session = Telemetry(interval_cycles=5_000, attribution=True)
        simulate(kron_run, setup="droplet", telemetry=session)
        payload = telemetry_dict(session, meta={"label": "unit"})
        validate_telemetry_payload(payload)
        assert "attribution" in payload["families"]
        block = payload["attribution"]
        assert set(block["levels"]) == {"l2", "l3"}
        assert "pollution" in block
        # MPKI uses the final sample's instruction count.
        instructions = payload["samples"][-1]["values"]["core.instructions"]
        l3 = block["levels"]["l3"]
        total_mpki = sum(l3["mpki"].values())
        assert total_mpki == pytest.approx(
            1000.0 * l3["total_misses"] / instructions
        )

    def test_plain_session_has_no_attribution_block(self, kron_run):
        session = Telemetry(interval_cycles=5_000)
        simulate(kron_run, setup="droplet", telemetry=session)
        payload = telemetry_dict(session)
        assert "attribution" not in payload
        assert "attribution" not in payload["families"]


class TestInstrumentedRun:
    @pytest.fixture(scope="class")
    def session(self, kron_run):
        session = Telemetry(interval_cycles=2_000)
        simulate(kron_run, setup="droplet", telemetry=session)
        return session

    def test_core_metric_families_present(self, session):
        families = session.registry.families()
        assert set(("cache", "core", "dram", "prefetch")) <= set(families)
        assert "droplet" in families  # MPP instrumented under droplet setup

    def test_final_sample_matches_machine_totals(self, kron_run, session):
        result = simulate(kron_run, setup="droplet")
        final = session.timeline.samples[-1]
        assert final.reason == "final"
        assert final.values["core.instructions"] == result.instructions
        assert final.values["cache.l3.misses"] == result.hierarchy.l3.stats.total_misses
        assert final.ref_index == len(kron_run.trace)

    def test_events_and_payload_validate(self, session):
        assert session.events.emitted > 0
        payload = telemetry_dict(session, meta={"label": "unit"})
        validate_telemetry_payload(payload)
        assert len(payload["intervals"]) >= 2  # interval sampling happened

    def test_window_histograms_populated(self, session):
        histograms = session.registry.histograms()
        assert histograms["core.window_exposed"]["count"] > 0


class TestSpanZeroOverhead:
    """Satellite: tracing disabled means *zero* span allocations."""

    POINT = SweepPoint(
        "PR", "kron", max_refs=MAX_REFS, scale_shift=SCALE_SHIFT
    )

    def test_simulate_with_tracing_off_allocates_no_spans(self, kron_run):
        assert spans.current() is None
        before = spans.spans_created()
        simulate(kron_run, setup="droplet")
        assert spans.spans_created() == before

    def test_sweep_with_tracing_off_allocates_no_spans(self, tmp_path):
        runner = SweepRunner(trace_cache=TraceCache(tmp_path / "traces"))
        before = spans.spans_created()
        report = runner.run([self.POINT])
        assert report.ok()
        assert spans.spans_created() == before

    def test_traced_sweep_results_bit_identical_to_untraced(self, tmp_path):
        untraced = SweepRunner(
            trace_cache=TraceCache(tmp_path / "a")
        ).run([self.POINT])
        traced = SweepRunner(
            trace_cache=TraceCache(tmp_path / "b"),
            tracer=spans.SpanRecorder(),
        ).run([self.POINT])
        assert traced.points[0].summary == untraced.points[0].summary
        paths = {r.points[0].result.fast_path for r in (traced, untraced)}
        assert paths == {"vector"}

    def test_traced_sweep_really_recorded(self, tmp_path):
        tracer = spans.SpanRecorder()
        SweepRunner(
            trace_cache=TraceCache(tmp_path / "traces"), tracer=tracer
        ).run([self.POINT])
        records = tracer.records()
        names = {r.get("name") for r in records}
        assert {"point", "machine.run"} <= names
        # The run's record is the ledger's; the timeline holds spans and
        # instants only.
        assert {r["k"] for r in records} <= {"B", "E", "I"}
        assert spans.current() is None  # runner restored the global


class TestPhaseTimelines:
    def test_pagerank_mesh_one_phase_sample_per_iteration(self, mesh_pr_run):
        markers = mesh_pr_run.trace.phases
        assert [label for _, label in markers] == [
            "iteration:%d" % i for i in range(10)
        ]
        session = Telemetry(interval_cycles=10**9)  # phases only
        simulate(mesh_pr_run, setup="droplet", telemetry=session)
        assert session.timeline.phase_labels() == [
            "iteration:%d" % i for i in range(10)
        ]
        # Phase samples are attributed to non-decreasing cycles/refs.
        phases = session.timeline.phases()
        cycles = [s.cycle for s in phases]
        assert cycles == sorted(cycles)
        refs = [s.ref_index for s in phases]
        assert refs == sorted(refs)
        payload = telemetry_dict(session)
        validate_telemetry_payload(payload, require_phases=True)

    def test_bfs_mesh_records_frontier_levels(self):
        run = TraceSpec("BFS", "mesh", max_refs=20_000, scale_shift=-3).trace()
        session = Telemetry(interval_cycles=10**9)
        simulate(run, setup="none", telemetry=session)
        labels = session.timeline.phase_labels()
        assert labels, "BFS should mark frontier levels"
        assert all(label.split(":")[0] in ("level", "bottomup") for label in labels)
