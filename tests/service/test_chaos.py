"""Service-level chaos harness: real daemons, real kills, real disks.

Each scenario drives ``repro serve`` subprocesses through the
crash-safety contract the in-process tests pin mechanically:

* ``kill -9`` mid-run, restart, and the recovered run's ``repro status
  --json`` view is identical (modulo wall-clock fields) to an
  uninterrupted run of the same sweep;
* a daemon killed *between* journal accept and enqueue
  (``kill_after_accept`` fault) loses nothing — the client's idempotent
  resubmission lands on the replayed run;
* two daemons sharing a ledger root partition points via leases with no
  double execution, and a killed daemon's in-flight leases are taken
  over by the survivor.

The sweeps use warm trace-cache points sized (~0.5s each) so a kill
reliably lands mid-run and cache-hit attributes match across legs.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.runtime.ledger import point_key
from repro.service.client import fetch_status, submit_sweep, wait_for_run
from repro.service.engine import parse_spec
from repro.telemetry import parse_prom_text, spans
from repro.telemetry.tail import read_jsonl

REPO = Path(__file__).resolve().parents[2]

#: ~0.5s per point with a warm trace cache: slow enough to kill mid-run.
CHAOS_SPEC = {
    "workloads": ["PR", "BFS"],
    "datasets": ["kron"],
    "setups": ["stream", "droplet"],
    "max_refs": 150_000,
    "scale_shift": -4,
}
CHAOS_POINTS = 6  # 2 workloads x (none + stream + droplet)

#: Fast cold spec for scenarios where execution time is irrelevant.
SMALL_SPEC = {
    "workloads": ["PR"],
    "datasets": ["kron"],
    "setups": ["droplet"],
    "max_refs": 3000,
    "scale_shift": -6,
}


def service_env(cache_dir) -> dict:
    env = dict(os.environ)
    env["REPRO_TRACE_CACHE"] = str(cache_dir)
    env["PYTHONPATH"] = (
        str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Daemon:
    """One ``repro serve`` subprocess with its log captured to a file."""

    def __init__(self, root, port, env, log, extra=()):
        self.port = port
        self.url = "http://127.0.0.1:%d" % port
        self.log = Path(log)
        argv = [
            sys.executable, "-m", "repro.cli", "serve",
            "--ledger-root", str(root), "--host", "127.0.0.1",
            "--port", str(port), *extra,
        ]
        self.proc = subprocess.Popen(
            argv, env=env, stdout=open(self.log, "ab"),
            stderr=subprocess.STDOUT,
        )

    def wait_healthy(self, timeout=30.0) -> "Daemon":
        deadline = time.time() + timeout
        while time.time() < deadline:
            if self.proc.poll() is not None:
                raise AssertionError(
                    "daemon exited %s during startup:\n%s"
                    % (self.proc.returncode, self.log.read_text())
                )
            try:
                with urllib.request.urlopen(
                    self.url + "/healthz", timeout=2
                ) as resp:
                    if resp.status == 200:
                        return self
            except OSError:
                time.sleep(0.05)
        raise AssertionError(
            "daemon not healthy in %.0fs:\n%s" % (timeout, self.log.read_text())
        )

    def metrics(self) -> dict:
        with urllib.request.urlopen(self.url + "/metrics", timeout=10) as resp:
            return parse_prom_text(resp.read().decode())

    def sigkill(self) -> None:
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=10)

    def terminate(self, timeout=30.0) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """A trace cache pre-warmed for CHAOS_SPEC (one CLI sweep)."""
    cache = tmp_path_factory.mktemp("chaos-cache")
    runs = tmp_path_factory.mktemp("chaos-warmup")
    subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "sweep",
            "--workloads", "PR", "BFS", "--datasets", "kron",
            "--setups", "stream", "droplet",
            "--max-refs", "150000", "--scale-shift", "-4",
            "--workers", "2", "--ledger-root", str(runs),
            "--run-id", "warmup",
        ],
        env=service_env(cache), check=True, capture_output=True,
        timeout=600,
    )
    return cache


def completed(status: dict) -> int:
    states = status.get("states", {})
    return states.get("done", 0) + states.get("failed", 0) + states.get(
        "restored", 0
    )


def stable_view(status: dict) -> dict:
    """Strip wall-clock and path fields; everything else must match."""
    view = json.loads(json.dumps(status))  # deep copy
    for key in ("eta_s", "ledger", "spans"):
        view.pop(key, None)
    for bucket in ("metrics", "counters"):
        data = view.get(bucket)
        if isinstance(data, dict):
            for volatile in ("elapsed_s", "point_time_s", "utilization"):
                data.pop(volatile, None)
    for point in view.get("points", []):
        point.pop("wall_time", None)
    return view


def final_records(root, run_id):
    records = spans.read_sidecar(Path(root) / ("%s.spans.jsonl" % run_id))
    return [
        r for r in records
        if r.get("k") == "I" and r.get("name") == "point.final"
    ]


def ledger_point_keys(root, run_id):
    """Point keys of every point record in the run's ledger, sorted."""
    records = read_jsonl(Path(root) / ("%s.jsonl" % run_id))
    return sorted(r["key"] for r in records if r.get("kind") == "point")


#: One ledger point record per CHAOS_SPEC point, each exactly once.
CHAOS_KEYS = sorted(point_key(p) for p in parse_spec(CHAOS_SPEC)[0])


class TestSigkillRestart:
    def test_recovered_status_is_identical_to_uninterrupted(
        self, tmp_path, warm_cache
    ):
        env = service_env(warm_cache)
        spec = dict(CHAOS_SPEC, run_id="chaos")

        # Leg 1: the uninterrupted reference run.
        clean_root = tmp_path / "clean"
        clean = Daemon(
            clean_root, free_port(), env, tmp_path / "clean.log",
            extra=("--workers", "2"),
        ).wait_healthy()
        try:
            submit_sweep(clean.url, spec)
            reference = wait_for_run(clean.url, "chaos", poll=0.1, timeout=300)
        finally:
            clean.terminate()
        assert reference["finished"] is True
        assert reference["states"]["done"] == CHAOS_POINTS

        # Leg 2: same sweep, SIGKILL mid-run, restart, zero client action.
        chaos_root = tmp_path / "chaos"
        victim = Daemon(
            chaos_root, free_port(), env, tmp_path / "victim.log",
            extra=("--workers", "2"),
        ).wait_healthy()
        submit_sweep(victim.url, spec)
        killed_mid_run = False
        deadline = time.time() + 300
        while time.time() < deadline:
            status = fetch_status(victim.url, "chaos")
            if status.get("finished"):
                break  # too fast to catch — recovery still exercised below
            if completed(status) >= 1:
                killed_mid_run = True
                break
            time.sleep(0.02)
        victim.sigkill()

        survivor = Daemon(
            chaos_root, free_port(), env, tmp_path / "survivor.log",
            extra=("--workers", "2"),
        ).wait_healthy()
        try:
            recovered = wait_for_run(
                survivor.url, "chaos", poll=0.1, timeout=300
            )
            if killed_mid_run:
                assert survivor.metrics()[
                    "repro_service_journal_replays_total"
                ] >= 1
        finally:
            survivor.terminate()

        # The acceptance criterion: byte-identical stable views.
        assert stable_view(recovered) == stable_view(reference)
        # And exactly one point.final per index — the restart re-settled
        # nothing the dead daemon had already journaled.
        for root, run_dir in ((clean_root, "clean"), (chaos_root, "chaos")):
            finals = final_records(root, "chaos")
            indexes = sorted(r["attrs"]["index"] for r in finals)
            assert indexes == list(range(CHAOS_POINTS)), run_dir
            assert ledger_point_keys(root, "chaos") == CHAOS_KEYS, run_dir


class TestKillAfterAccept:
    def test_accepted_but_not_enqueued_run_survives(self, tmp_path, warm_cache):
        from repro.service.client import SubmitError
        from repro.service.journal import SubmissionJournal

        env = service_env(warm_cache)
        root = tmp_path / "runs"
        port = free_port()
        spec = dict(SMALL_SPEC, run_id="idem")
        faults = ("--faults", "kill_after_accept@0")

        victim = Daemon(
            root, port, env, tmp_path / "victim.log",
            extra=("--workers", "1", *faults),
        ).wait_healthy()
        # The daemon journals the accept, then dies before enqueueing —
        # the client sees a dead connection, never a 202.
        with pytest.raises(SubmitError):
            submit_sweep(victim.url, spec, max_attempts=1)
        victim.proc.wait(timeout=10)
        assert victim.proc.returncode == 1
        entries, _ = SubmissionJournal(root).replay()
        assert [e.run_id for e in entries] == ["idem"]
        assert not entries[0].done

        # Restart with the SAME fault spec: the one-shot trip marker
        # persisted under <root>/faults, so it must not re-fire.
        survivor = Daemon(
            root, port, env, tmp_path / "survivor.log",
            extra=("--workers", "1", *faults),
        ).wait_healthy()
        try:
            accepted = submit_sweep(survivor.url, spec, max_attempts=8)
            assert accepted["run_id"] == "idem"
            final = wait_for_run(survivor.url, "idem", poll=0.1, timeout=120)
            assert final["finished"] is True
            assert final["states"]["done"] == final["total"]
            metrics = survivor.metrics()
            assert metrics["repro_service_journal_replays_total"] >= 1
            assert metrics["repro_service_idempotent_hits_total"] >= 1
        finally:
            survivor.terminate()


class TestMultiHost:
    def test_two_daemons_partition_points_without_double_execution(
        self, tmp_path, warm_cache
    ):
        from repro.runtime.ledger import point_key
        from repro.service.engine import parse_spec
        from repro.service.lease import LEASE_DIR

        env = service_env(warm_cache)
        root = tmp_path / "runs"
        spec = dict(CHAOS_SPEC, run_id="multi")
        first = Daemon(
            root, free_port(), env, tmp_path / "first.log",
            extra=("--workers", "1", "--lease-ttl", "5"),
        ).wait_healthy()
        second = Daemon(
            root, free_port(), env, tmp_path / "second.log",
            extra=("--join", str(root), "--workers", "2", "--lease-ttl", "5"),
        ).wait_healthy()
        try:
            submit_sweep(first.url, spec)
            final = wait_for_run(first.url, "multi", poll=0.1, timeout=300)
            assert final["states"]["done"] == CHAOS_POINTS
            # The joined daemon discovered the run from the shared
            # journal and converges on the same finished view.
            deadline = time.time() + 30
            while time.time() < deadline:
                if second.metrics().get(
                    "repro_service_journal_adoptions_total", 0
                ) >= 1:
                    break
                time.sleep(0.1)
            assert second.metrics()[
                "repro_service_journal_adoptions_total"
            ] >= 1
            peer_view = fetch_status(second.url, "multi")
            assert peer_view["finished"] is True
        finally:
            first.terminate()
            second.terminate()

        # Span-sidecar accounting: every point settled exactly once,
        # with no superseded (stolen mid-run) executions.
        finals = final_records(root, "multi")
        indexes = sorted(r["attrs"]["index"] for r in finals)
        assert indexes == list(range(CHAOS_POINTS))
        assert ledger_point_keys(root, "multi") == CHAOS_KEYS
        records = spans.read_sidecar(root / "multi.spans.jsonl")
        ok_ends = [
            r for r in records
            if r.get("k") == "E" and r.get("name") == "point"
            and (r.get("attrs") or {}).get("status") == "ok"
        ]
        assert len(ok_ends) == CHAOS_POINTS
        assert not any(
            (r.get("attrs") or {}).get("status") == "superseded"
            for r in records if r.get("k") == "E"
        )
        # Every point's lease settled as done, attributed to the run,
        # and the work was actually partitioned across both daemons.
        points, _ = parse_spec(spec)
        owners = set()
        for point in points:
            lease = json.loads(
                (root / LEASE_DIR / (point_key(point) + ".lease")).read_text()
            )
            assert lease["state"] == "done"
            assert lease["run"] == "multi"
            owners.add(lease["owner"])
        assert len(owners) >= 2, owners

    def test_survivor_takes_over_a_killed_daemons_leases(
        self, tmp_path, warm_cache
    ):
        env = service_env(warm_cache)
        root = tmp_path / "runs"
        spec = dict(CHAOS_SPEC, run_id="takeover")
        victim = Daemon(
            root, free_port(), env, tmp_path / "victim.log",
            extra=("--workers", "2", "--lease-ttl", "2"),
        ).wait_healthy()
        survivor = Daemon(
            root, free_port(), env, tmp_path / "survivor.log",
            extra=("--join", str(root), "--workers", "1", "--lease-ttl", "2"),
        ).wait_healthy()
        try:
            submit_sweep(victim.url, spec)
            # Kill as soon as the victim holds work in flight: those
            # leases go stale and must be taken over.
            deadline = time.time() + 120
            while time.time() < deadline:
                if victim.metrics().get("repro_service_inflight", 0) >= 1:
                    break
                time.sleep(0.02)
            victim.sigkill()

            final = wait_for_run(
                survivor.url, "takeover", poll=0.2, timeout=300
            )
            assert final["finished"] is True
            assert final["states"]["done"] == CHAOS_POINTS
            assert survivor.metrics()[
                "repro_service_lease_takeovers_total"
            ] >= 1
        finally:
            survivor.terminate()
            victim.terminate()
        finals = final_records(root, "takeover")
        indexes = sorted(r["attrs"]["index"] for r in finals)
        assert indexes == list(range(CHAOS_POINTS))
        assert ledger_point_keys(root, "takeover") == CHAOS_KEYS
