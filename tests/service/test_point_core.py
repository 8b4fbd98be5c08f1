"""The point core ``repro sweep`` and ``repro serve`` share.

Both settle points through one attempt loop and journal runs through
one :class:`~repro.runtime.ledger.RunJournal`, so a spec's ``timeout``
fires on the daemon's worker threads, and a CLI run and a daemon run of
the same points journal the same tally.
"""

from __future__ import annotations

import json
import time

from repro.runtime import RunLedger, SweepRunner, TraceCache, load_run_status
from repro.service import SweepService, parse_spec

SPEC = {
    "workloads": ["PR"],
    "datasets": ["kron"],
    "setups": ["droplet"],
    "max_refs": 3000,
    "scale_shift": -6,
}

#: The finish-record metrics both schedulers tally the same way.
SHARED_METRICS = (
    "trace_cache_hits",
    "trace_cache_misses",
    "traces_generated",
    "retries",
    "timeouts",
    "errors",
    "restored_points",
)


def make_service(root, traces, workers=1):
    return SweepService(root=root, workers=workers, trace_cache=TraceCache(traces))


def wait_finished(service, run_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if service.run_finished(run_id):
            return
        time.sleep(0.01)
    raise AssertionError("run %s did not finish in time" % run_id)


def ledger_records(root, run_id, kind):
    lines = RunLedger(run_id, root=root).path.read_text().splitlines()
    return [r for r in map(json.loads, lines) if r.get("kind") == kind]


class TestDaemonTimeout:
    def test_spec_timeout_stops_a_slow_point(self, tmp_path, monkeypatch):
        from repro.system import runner as runner_mod

        def slow_simulate(*args, **kwargs):
            end = time.monotonic() + 2.0
            while time.monotonic() < end:
                time.sleep(0.01)
            raise RuntimeError("the simulation ran to completion")

        spec = dict(SPEC, setups=["none"], timeout=0.5, retries=0, run_id="slow")
        (point,), _ = parse_spec(spec)
        traces = tmp_path / "traces"
        TraceCache(traces).get_or_trace(point.trace_spec)
        monkeypatch.setattr(runner_mod, "simulate", slow_simulate)
        root = tmp_path / "runs"
        service = make_service(root, traces).start()
        try:
            start = time.monotonic()
            service.submit(spec)
            wait_finished(service, "slow")
            elapsed = time.monotonic() - start
        finally:
            assert service.drain(timeout=10)
        assert elapsed < 1.5
        status = load_run_status("slow", root=root)
        assert [p.state for p in status.points] == ["failed"]
        assert status.points[0].error_kind == "PointTimeout"
        assert service.counters["timeouts"] == 1
        (record,) = ledger_records(root, "slow", "point")
        assert record["data"]["error_kind"] == "PointTimeout"
        assert record["data"]["timeouts"] == 1


class TestOneTally:
    def test_cli_and_daemon_journal_the_same_tally(self, tmp_path):
        points, _ = parse_spec(SPEC)
        cli_root = tmp_path / "cli-runs"
        SweepRunner(
            trace_cache=TraceCache(tmp_path / "cli-traces"),
            return_full=False,
            ledger=RunLedger("cli", root=cli_root),
        ).run(points)

        service_root = tmp_path / "service-runs"
        service = make_service(service_root, tmp_path / "service-traces").start()
        try:
            service.submit(dict(SPEC, run_id="daemon"))
            wait_finished(service, "daemon")
        finally:
            assert service.drain(timeout=10)

        (cli,) = ledger_records(cli_root, "cli", "finish")
        (daemon,) = ledger_records(service_root, "daemon", "finish")
        assert cli["metrics"]["traces_generated"] == 1
        assert {k: daemon["metrics"][k] for k in SHARED_METRICS} == {
            k: cli["metrics"][k] for k in SHARED_METRICS
        }
