"""Engine crash recovery, deadlines, and admission control (in-process).

The subprocess chaos harness (``test_chaos.py``) proves the same
invariants against real daemons; these tests pin the engine-level
mechanics deterministically with a stubbed executor.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.runtime import TraceCache, load_run_status, point_key
from repro.runtime.ledger import RunLedger
from repro.runtime.points import PointError, PointResult
from repro.service import SweepService, parse_spec
from repro.service.engine import DEADLINE_KIND, QueueFull
from repro.service.journal import SubmissionJournal
from repro.service.lease import LeaseManager
from repro.telemetry import spans
from repro.telemetry.tail import read_jsonl

SPEC = {
    "workloads": ["PR"],
    "datasets": ["kron"],
    "setups": ["droplet"],
    "max_refs": 3000,
    "scale_shift": -6,
}


def make_service(tmp_path, workers=1, **kwargs):
    return SweepService(
        root=tmp_path / "runs",
        workers=workers,
        trace_cache=TraceCache(tmp_path / "traces"),
        **kwargs,
    )


def fake_result(point):
    return PointResult(
        point=point,
        summary={"cycles": 1},
        wall_time=0.01,
        trace_cache_hit=True,
    )


def stub_executor(monkeypatch, executed=None, gate=None):
    from repro.service import engine as engine_mod

    def fake_execute(point, *args, **kwargs):
        if executed is not None:
            executed.append(point.label)
        if gate is not None:
            gate.wait(timeout=60)
        return fake_result(point)

    monkeypatch.setattr(engine_mod, "execute_point", fake_execute)


def wait_finished(service, run_id, timeout=30.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if service.run_finished(run_id):
            return
        time.sleep(0.02)
    raise AssertionError("run %s did not finish in time" % run_id)


def journal_spec(run_id):
    return dict(SPEC, run_id=run_id)


def failed_result(point):
    return PointResult(
        point=point, error=PointError(kind="ValueError", message="bad setup")
    )


def ledger_records(root, run_id, kind):
    """The run's ledger records of one kind, in file order."""
    records = read_jsonl(RunLedger(run_id, root=root).path)
    return [r for r in records if r.get("kind") == kind]


def ledger_point_keys(root, run_id):
    """Point keys of every point record in the run's ledger, sorted."""
    return sorted(r["key"] for r in ledger_records(root, run_id, "point"))


class TestJournalReplay:
    def test_replay_executes_a_pending_run(self, tmp_path, monkeypatch):
        """A journaled-but-never-enqueued run (killed between accept and
        enqueue) executes to completion on restart with no client action."""
        executed = []
        stub_executor(monkeypatch, executed)
        SubmissionJournal(tmp_path / "runs").submit(
            "crashed", journal_spec("crashed")
        )
        service = make_service(tmp_path).start()
        wait_finished(service, "crashed")
        assert service.counters["journal_replays"] == 1
        assert sorted(executed) == ["PR/kron/droplet", "PR/kron/none"]
        # Completion is journaled: a second restart has nothing to do.
        entries, _ = SubmissionJournal(tmp_path / "runs").replay()
        assert [e.done for e in entries] == [True]
        assert service.drain(timeout=10)

    def test_replay_adopts_settled_points_silently(self, tmp_path, monkeypatch):
        """Points the dead process already journaled are adopted — no new
        writes — and only the remainder re-executes."""
        from repro.service.engine import RunHandle

        root = tmp_path / "runs"
        points, _ = parse_spec(SPEC)
        SubmissionJournal(root).submit("crashed", journal_spec("crashed"))
        # The pre-crash process journaled the run and settled point 0,
        # then died before point 1.
        pre = RunHandle(
            "crashed", root, points, workers=1, leases=LeaseManager(root)
        )
        pre.settle(0, points[0], fake_result(points[0]), restored=False)

        executed = []
        stub_executor(monkeypatch, executed)
        service = make_service(tmp_path).start()
        wait_finished(service, "crashed")
        assert executed == ["PR/kron/droplet"]  # point 0 never re-ran
        assert service.counters["journal_replays"] == 1

        # The once-marker kept the restart from journaling a second run
        # record, and each point settled once.
        assert len(ledger_records(root, "crashed", "run")) == 1
        assert ledger_point_keys(root, "crashed") == sorted(
            point_key(p) for p in points
        )
        assert len(ledger_records(root, "crashed", "finish")) == 1
        # Adopted results seed the shared cache: a resubmission of the
        # same sweep restores instantly.
        rerun = service.submit(dict(SPEC, run_id="again"))
        wait_finished(service, rerun, timeout=10)
        assert service.counters["cached_answers"] >= 1
        assert service.drain(timeout=10)

    def test_replay_skips_completed_runs(self, tmp_path, monkeypatch):
        stub_executor(monkeypatch)
        journal = SubmissionJournal(tmp_path / "runs")
        journal.submit("finished", journal_spec("finished"))
        journal.done("finished")
        service = make_service(tmp_path).start()
        assert service.counters["journal_replays"] == 0
        assert service.run_finished("finished") is None  # not re-opened
        assert service.drain(timeout=10)

    def test_ledger_ahead_of_journal_reconstructs_the_final(
        self, tmp_path, monkeypatch
    ):
        """Killed right after a point's ledger append: recovery settles
        the point from that record and writes no second one."""
        root = tmp_path / "runs"
        points, _ = parse_spec(SPEC)
        SubmissionJournal(root).submit("crashed", journal_spec("crashed"))
        ledger = RunLedger("crashed", root=root)
        ledger.open()
        ledger.record(points[0], fake_result(points[0]))

        executed = []
        stub_executor(monkeypatch, executed)
        service = make_service(tmp_path).start()
        wait_finished(service, "crashed")
        assert executed == ["PR/kron/droplet"]
        status = load_run_status("crashed", root=root)
        assert [p.state for p in status.points] == ["done", "done"]
        assert ledger_point_keys(root, "crashed") == sorted(
            point_key(p) for p in points
        )
        assert service.drain(timeout=10)

    @pytest.mark.parametrize("sidecar_fate", ["deleted", "rotated"])
    def test_failed_point_settled_before_the_crash_stays_failed(
        self, tmp_path, monkeypatch, sidecar_fate
    ):
        """A point the dead process settled as failed is neither
        re-executed nor changed, whatever became of the span sidecar."""
        from repro.service.engine import RunHandle

        root = tmp_path / "runs"
        points, _ = parse_spec(SPEC)
        SubmissionJournal(root).submit("crashed", journal_spec("crashed"))
        pre = RunHandle(
            "crashed", root, points, workers=1, leases=LeaseManager(root)
        )
        span = pre.tracer.start("point", index=0, label=points[0].label)
        pre.tracer.finish(span, status="error")
        pre.settle(0, points[0], failed_result(points[0]), restored=False)
        sidecar = root / "crashed.spans.jsonl"
        if sidecar_fate == "deleted":
            sidecar.unlink()
        else:
            filler = spans.SpanRecorder(sidecar=sidecar, max_bytes=512)
            while filler.rotations < 2:
                filler.event("filler", pad="x" * 64)

        executed = []
        stub_executor(monkeypatch, executed)
        service = make_service(tmp_path).start()
        wait_finished(service, "crashed")
        assert executed == ["PR/kron/droplet"]  # point 0 never re-ran
        status = load_run_status("crashed", root=root)
        assert [p.state for p in status.points] == ["failed", "done"]
        assert status.points[0].error_kind == "ValueError"
        assert status.counters["errors"] == status.metrics["errors"] == 1
        assert ledger_point_keys(root, "crashed") == sorted(
            point_key(p) for p in points
        )
        assert service.drain(timeout=10)

    def test_replay_error_spec_is_skipped_not_fatal(self, tmp_path, monkeypatch):
        stub_executor(monkeypatch)
        journal = SubmissionJournal(tmp_path / "runs")
        journal.submit("bad", {"workloads": ["NOPE"], "run_id": "bad"})
        journal.submit("good", journal_spec("good"))
        service = make_service(tmp_path).start()
        wait_finished(service, "good")
        assert service.counters["journal_replays"] == 1
        assert service.run_finished("bad") is None
        events = spans.read_sidecar(tmp_path / "runs" / "service.spans.jsonl")
        assert any(r.get("name") == "service.replay_error" for r in events)
        assert service.drain(timeout=10)

    def test_spec_journaled_with_a_replay_selector_fails_replay(
        self, tmp_path, monkeypatch
    ):
        # Older daemons accepted a spec-level ``fast_path``; the parser
        # now rejects it like any unknown field.
        stub_executor(monkeypatch)
        journal = SubmissionJournal(tmp_path / "runs")
        journal.submit("old", dict(journal_spec("old"), fast_path="auto"))
        journal.submit("good", journal_spec("good"))
        service = make_service(tmp_path).start()
        wait_finished(service, "good")
        assert service.run_finished("old") is None
        events = spans.read_sidecar(tmp_path / "runs" / "service.spans.jsonl")
        errors = [r for r in events if r.get("name") == "service.replay_error"]
        assert [r["attrs"]["run_id"] for r in errors] == ["old"]
        assert "fast_path" in errors[0]["attrs"]["error"]
        assert service.drain(timeout=10)


class TestDeadlines:
    def test_expired_sweep_fails_unsettled_points(self, tmp_path, monkeypatch):
        gate = threading.Event()
        stub_executor(monkeypatch, gate=gate)
        # lease_ttl 0.9 -> housekeeper ticks every 0.3s.
        service = make_service(tmp_path, lease_ttl=0.9).start()
        run_id = service.submit(dict(SPEC, deadline=0.3, run_id="doomed"))
        wait_finished(service, run_id, timeout=15)
        assert service.counters["deadline_exceeded"] >= 1
        records = ledger_records(tmp_path / "runs", "doomed", "point")
        kinds = [r["data"].get("error_kind") for r in records]
        assert DEADLINE_KIND in kinds
        gate.set()
        assert service.drain(timeout=10)

    def test_unexpired_sweep_is_untouched(self, tmp_path, monkeypatch):
        stub_executor(monkeypatch)
        service = make_service(tmp_path, lease_ttl=0.9).start()
        run_id = service.submit(dict(SPEC, deadline=60.0))
        wait_finished(service, run_id)
        assert service.counters["deadline_exceeded"] == 0
        assert service.drain(timeout=10)


class TestAdmissionControl:
    def test_queue_overflow_raises_queue_full(self, tmp_path, monkeypatch):
        gate = threading.Event()
        stub_executor(monkeypatch, gate=gate)
        service = make_service(tmp_path, workers=1, max_queue=1).start()
        service.submit(dict(SPEC, run_id="hog"))  # 2 points: 1 runs, 1 queues
        deadline = time.time() + 10
        while service.queue_depth() < 1 and time.time() < deadline:
            time.sleep(0.01)
        with pytest.raises(QueueFull) as err:
            service.submit(dict(SPEC, max_refs=SPEC["max_refs"] + 1))
        assert err.value.retry_after >= 1
        assert service.counters["rejected_429"] == 1
        # The rejected submission left nothing behind: no run, no journal
        # entry, and the queue is unchanged.
        assert len(service.run_ids()) == 1
        entries, _ = SubmissionJournal(tmp_path / "runs").replay()
        assert [e.run_id for e in entries] == ["hog"]
        gate.set()
        wait_finished(service, "hog")
        assert service.drain(timeout=10)

    def test_retry_after_scales_with_observed_exec_time(
        self, tmp_path, monkeypatch
    ):
        gate = threading.Event()
        stub_executor(monkeypatch, gate=gate)
        service = make_service(tmp_path, workers=1, max_queue=1).start()
        service.submit(dict(SPEC, run_id="hog"))
        deadline = time.time() + 10
        while service.queue_depth() < 1 and time.time() < deadline:
            time.sleep(0.01)
        with pytest.raises(QueueFull) as err:
            service.submit(dict(SPEC, max_refs=SPEC["max_refs"] + 1))
        assert 1 <= err.value.retry_after <= 60
        gate.set()
        assert service.drain(timeout=10)


class TestLeaseIntegration:
    def test_stolen_lease_discards_the_result(self, tmp_path, monkeypatch):
        """A lease_steal fault mid-execution: the victim's result is
        discarded (leases_lost), the job re-runs under the new epoch."""
        from repro.runtime.faults import ServiceFaultPlan

        executed = []
        stub_executor(monkeypatch, executed)
        service = make_service(
            tmp_path, workers=1, lease_ttl=1.0,
            faults=ServiceFaultPlan(lease_steal=(0,)),
        ).start()
        run_id = service.submit(dict(SPEC, setups=["droplet"]))
        wait_finished(service, run_id, timeout=30)
        assert service.counters["leases_lost"] >= 1
        assert service.counters["lease_takeovers"] >= 1  # chaos owner went stale
        # The stolen point executed at least twice (victim + retaker)
        # but settled exactly once per index.
        assert len(executed) >= 3  # 2 points + at least one re-run
        points, _ = parse_spec(dict(SPEC, setups=["droplet"]))
        assert ledger_point_keys(tmp_path / "runs", run_id) == sorted(
            point_key(p) for p in points
        )
        records = spans.read_sidecar(
            tmp_path / "runs" / ("%s.spans.jsonl" % run_id)
        )
        superseded = [
            r for r in records
            if r.get("k") == "E" and (r.get("attrs") or {}).get("status")
            == "superseded"
        ]
        assert len(superseded) >= 1
        assert service.drain(timeout=10)

    def test_peer_settled_lease_is_adopted(self, tmp_path, monkeypatch):
        """A point whose lease a 'peer' already settled is answered from
        the peer's run ledger instead of executing."""
        root = tmp_path / "runs"
        points, _ = parse_spec(dict(SPEC, setups=["droplet"]))
        # Fake peer: executed point 0 under run "peer", settled its lease.
        peer_ledger = RunLedger("peer", root=root)
        peer_ledger.open()
        peer_ledger.record(points[0], fake_result(points[0]))
        peer_leases = LeaseManager(root, owner="peer:1")
        lease = peer_leases.acquire(point_key(points[0]))
        peer_leases.release(lease, "done", extra={"run": "peer"})

        executed = []
        stub_executor(monkeypatch, executed)
        service = make_service(tmp_path, workers=1).start()
        run_id = service.submit(dict(SPEC, setups=["droplet"]))
        wait_finished(service, run_id, timeout=30)
        assert executed == ["PR/kron/droplet"]  # point 0 came from the peer
        assert service.counters["remote_settled"] >= 1
        assert ledger_point_keys(root, run_id) == sorted(
            point_key(p) for p in points
        )
        adopted = {
            r["label"]: r["data"] for r in ledger_records(root, run_id, "point")
        }
        assert adopted[points[0].label]["restored"] is True
        assert "restored" not in adopted[points[1].label]
        status = load_run_status(run_id, root=root)
        assert [p.state for p in status.points] == ["restored", "done"]
        assert service.drain(timeout=10)

    def test_peer_failed_point_settles_once(self, tmp_path, monkeypatch):
        """Two services share a root: the point one of them fails is
        adopted by the other from the run's ledger, not settled again."""
        from repro.service import engine as engine_mod

        gate = threading.Event()
        executed = []

        def fake_execute(point, *args, **kwargs):
            executed.append(point.label)
            gate.wait(timeout=60)
            if point.setup == "droplet":
                return failed_result(point)
            return fake_result(point)

        monkeypatch.setattr(engine_mod, "execute_point", fake_execute)
        first = make_service(tmp_path, lease_ttl=0.9)
        second = make_service(tmp_path, lease_ttl=0.9)
        first.leases.owner = "first:1"
        second.leases.owner = "second:1"
        first.start()
        second.start()
        run_id = first.submit(dict(SPEC, run_id="shared", retries=0))
        deadline = time.time() + 30
        while (
            second.counters["journal_adoptions"] < 1 and time.time() < deadline
        ):
            time.sleep(0.02)
        assert second.counters["journal_adoptions"] == 1
        gate.set()
        wait_finished(first, run_id)
        wait_finished(second, run_id)
        assert sorted(executed) == ["PR/kron/droplet", "PR/kron/none"]

        root = tmp_path / "runs"
        points, _ = parse_spec(SPEC)
        assert ledger_point_keys(root, run_id) == sorted(
            point_key(p) for p in points
        )
        status = load_run_status(run_id, root=root)
        assert [p.state for p in status.points] == ["done", "failed"]
        assert status.points[1].error_kind == "ValueError"
        assert first.drain(timeout=10)
        assert second.drain(timeout=10)
