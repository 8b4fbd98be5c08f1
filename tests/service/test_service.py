"""Sweep service: spec parsing, dedupe engine, HTTP observability e2e."""

from __future__ import annotations

import json
import re
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.runtime import TraceCache, point_key
from repro.service import ServiceHTTPServer, SweepService, parse_spec
from repro.service.engine import SERVICE_SIDECAR
from repro.service.http import MAX_BODY_BYTES
from repro.telemetry import parse_prom_text, spans

MAX_REFS = 3000
SCALE_SHIFT = -6

SPEC = {
    "workloads": ["PR"],
    "datasets": ["kron"],
    "setups": ["droplet"],
    "max_refs": MAX_REFS,
    "scale_shift": SCALE_SHIFT,
}


def make_service(tmp_path, workers=2):
    return SweepService(
        root=tmp_path / "runs",
        workers=workers,
        trace_cache=TraceCache(tmp_path / "traces"),
    )


def wait_finished(service, run_id, timeout=90.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if service.run_finished(run_id):
            return
        time.sleep(0.05)
    raise AssertionError("run %s did not finish in time" % run_id)


class TestParseSpec:
    def test_defaults_mirror_repro_sweep(self):
        points, options = parse_spec({})
        # Full paper matrix with the "none" baseline prepended per setup
        # list, exactly like the CLI's default sweep.
        labels = [p.label for p in points]
        assert "PR/kron/none" in labels and "PR/kron/droplet" in labels
        assert points[0].max_refs == 150_000
        assert options["run_id"] is None
        assert options["retry"].max_attempts == 3

    def test_explicit_fields(self):
        points, options = parse_spec(
            dict(SPEC, timeout=5, retries=0, run_id="my-run")
        )
        assert [p.label for p in points] == ["PR/kron/none", "PR/kron/droplet"]
        assert all(p.max_refs == MAX_REFS for p in points)
        assert options["run_id"] == "my-run"
        assert options["retry"].max_attempts == 1
        assert options["timeout"] == 5.0

    def test_workload_names_are_case_insensitive(self):
        points, _ = parse_spec(dict(SPEC, workloads=["pr"]))
        assert points[0].workload == "PR"

    @pytest.mark.parametrize(
        "bad",
        [
            {"workloads": ["NOPE"]},
            {"datasets": ["mars"]},
            {"setups": ["warp-drive"]},
            {"max_refs": 0},
            {"max_refs": "many"},
            {"fast_path": "sometimes"},
            {"run_id": "a/b"},
            {"run_id": ""},
            {"mystery_field": 1},
            {"workloads": []},
        ],
    )
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(ValueError):
            parse_spec(dict(SPEC, **bad))

    @pytest.mark.parametrize("mode", ["auto", "off", "on"])
    def test_replay_selector_is_an_unknown_field(self, mode):
        with pytest.raises(ValueError, match=r"unknown spec field\(s\): fast_path"):
            parse_spec(dict(SPEC, fast_path=mode))

    def test_rejects_non_dict(self):
        with pytest.raises(ValueError):
            parse_spec(["not", "a", "dict"])


class TestEngineDedupe:
    def test_identical_points_collapse_to_one_execution(self, tmp_path, monkeypatch):
        """Two runs over the same point key share one (stubbed) execution:
        the second submission joins in flight, and a third — after
        completion — answers instantly from the result cache."""
        from repro.runtime.points import PointResult
        from repro.service import engine as engine_mod

        started = threading.Event()
        release = threading.Event()
        executions = []

        def fake_execute(point, config, cache, memo, return_full, **kwargs):
            executions.append(point.label)
            started.set()
            release.wait(timeout=30)
            return PointResult(
                point=point,
                summary={"cycles": 1},
                wall_time=0.01,
                trace_cache_hit=True,
            )

        monkeypatch.setattr(engine_mod, "execute_point", fake_execute)
        service = make_service(tmp_path, workers=1).start()
        spec = dict(SPEC, setups=["droplet"], workloads=["PR"])
        first = service.submit(spec)
        assert started.wait(timeout=10)
        second = service.submit(spec)  # joins the in-flight jobs
        assert service.counters["dedup_hits"] >= 1
        release.set()
        wait_finished(service, first)
        wait_finished(service, second)
        third = service.submit(spec)  # instant: result cache
        wait_finished(service, third, timeout=5)
        # Each unique point key executed exactly once across three runs.
        assert len(executions) == len(set(point_key(p) for p, _ in [
            (p, None) for p in parse_spec(spec)[0]
        ]))
        assert service.counters["cached_answers"] >= 2
        assert service.drain(timeout=10)

    def test_draining_service_rejects_submissions(self, tmp_path):
        service = make_service(tmp_path).start()
        assert service.drain(timeout=10)
        with pytest.raises(RuntimeError):
            service.submit(SPEC)

    def test_run_id_resubmission_idempotent_or_rejected(self, tmp_path, monkeypatch):
        from repro.runtime.points import PointResult
        from repro.service import engine as engine_mod

        release = threading.Event()

        def fake_execute(point, *args, **kwargs):
            release.wait(timeout=30)
            return PointResult(point=point, summary={}, wall_time=0.0)

        monkeypatch.setattr(engine_mod, "execute_point", fake_execute)
        service = make_service(tmp_path, workers=1).start()
        first = service.submit(dict(SPEC, run_id="dup"))
        # Identical spec under the same run id: idempotent resubmission
        # (the client never saw its first accept) returns the same run.
        assert service.submit(dict(SPEC, run_id="dup")) == first
        assert service.counters["idempotent_hits"] == 1
        # A *different* spec under an active run id is a collision.
        with pytest.raises(ValueError):
            service.submit(dict(SPEC, run_id="dup", max_refs=SPEC["max_refs"] + 1))
        release.set()
        assert service.drain(timeout=10)


@pytest.fixture(scope="class")
def live_server(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("service")
    service = make_service(tmp_path)
    server = ServiceHTTPServer(
        service, port=0, access_log=tmp_path / "access.jsonl"
    ).start()
    yield server, service, tmp_path
    server.stop(drain_timeout=30)


def post_json(url, payload, expect_error=False):
    req = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as exc:
        if not expect_error:
            raise
        return exc.code, json.loads(exc.read() or b"{}")


def get(url, timeout=30):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, resp.read().decode()


class TestHTTPEndToEnd:
    """The acceptance flow: submit → stream → status parity → dedupe."""

    def test_submit_stream_status_and_cached_resubmission(self, live_server):
        server, service, tmp_path = live_server
        url = server.url

        status_code, accepted = post_json(url + "/sweeps", SPEC)
        assert status_code == 202
        run_id = accepted["run_id"]
        assert accepted["status_url"] == "/sweeps/%s" % run_id

        # SSE delivers the point spans while the run executes; the run's
        # start, points and finish are ledger records, never sidecar ones.
        events = []
        last_id = None
        with urllib.request.urlopen(
            url + accepted["events_url"], timeout=120
        ) as stream:
            for raw in stream:
                line = raw.decode().strip()
                if line.startswith("event: end"):
                    break
                if line.startswith("id: "):
                    last_id = int(line[4:])
                if line.startswith("data: "):
                    events.append(json.loads(line[6:]))
        kinds = {(e.get("k"), e.get("name")) for e in events}
        assert ("B", "point") in kinds and ("E", "point") in kinds
        assert {k for k, _ in kinds} <= {"B", "E", "I"}
        assert last_id is not None and last_id > 0

        # A reconnect with Last-Event-ID resumes past consumed history.
        req = urllib.request.Request(
            url + accepted["events_url"],
            headers={"Last-Event-ID": str(last_id)},
        )
        with urllib.request.urlopen(req, timeout=30) as stream:
            resumed = [raw.decode().strip() for raw in stream]
        assert any(l.startswith("event: end") for l in resumed)
        assert not any(l.startswith("event: span") for l in resumed)

        # GET /sweeps/<id> byte-matches `repro status --json`.
        wait_finished(service, run_id)
        import contextlib
        import io

        from repro.cli import main

        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert main(
                ["status", run_id, "--ledger-root", str(tmp_path / "runs"),
                 "--json"]
            ) == 0
        _, http_body = get(url + "/sweeps/" + run_id)
        assert http_body == buffer.getvalue()
        payload = json.loads(http_body)
        assert payload["finished"] is True
        assert payload["mode"] == "service"
        assert payload["states"]["done"] == len(payload["points"])

        # Identical resubmission: all points answered from the result
        # cache — run finishes without any worker touching it.
        status_code, again = post_json(url + "/sweeps", SPEC)
        assert status_code == 202
        rerun = again["run_id"]
        wait_finished(service, rerun, timeout=10)
        _, rerun_body = get(url + "/sweeps/" + rerun)
        rerun_payload = json.loads(rerun_body)
        assert rerun_payload["states"]["restored"] == len(
            rerun_payload["points"]
        )
        sidecar = spans.read_sidecar(
            tmp_path / "runs" / (rerun + ".spans.jsonl")
        )
        worker_spans = [
            r for r in sidecar if r.get("k") == "B" and r.get("name") == "point"
        ]
        assert worker_spans == []  # zero new worker spans

        # /metrics parses as Prometheus text and shows the dedupe, each
        # value once, under the service's own counters.
        _, metrics_text = get(url + "/metrics")
        parsed = parse_prom_text(metrics_text)
        assert parsed["repro_service_dedup_hits_total"] > 0
        assert parsed["repro_service_submissions_total"] >= 2
        assert "repro_service_queue_depth" in parsed
        assert parsed["repro_service_restored_points_total"] >= len(
            rerun_payload["points"]
        )
        assert "repro_service_quarantined_entries_total" in parsed
        assert not any(key.startswith("repro_sweep_") for key in parsed)
        assert any(key.startswith("repro_service_worker_busy{") for key in parsed)

    def test_stream_of_a_run_finished_before_start_ends(
        self, tmp_path, monkeypatch
    ):
        """A run the journal marks done is not reopened, so the daemon
        holds no flag for it: its stream ends on the ledger's finish."""
        from repro.runtime.ledger import RunLedger
        from repro.runtime.points import PointResult
        from repro.service import engine as engine_mod
        from repro.service.journal import SubmissionJournal

        monkeypatch.setattr(
            engine_mod, "execute_point",
            lambda point, *a, **k: PointResult(
                point=point, summary={"cycles": 1}, wall_time=0.0
            ),
        )
        earlier = make_service(tmp_path, workers=1).start()
        wait_finished(earlier, earlier.submit(dict(SPEC, run_id="earlier")))
        assert earlier.drain(timeout=10)

        service = make_service(tmp_path, workers=1)
        server = ServiceHTTPServer(service, port=0).start()
        try:
            assert service.run_finished("earlier") is None
            entries, _ = SubmissionJournal(tmp_path / "runs").replay()
            assert [(e.run_id, e.done) for e in entries] == [("earlier", True)]
            ledger = RunLedger("earlier", root=tmp_path / "runs")
            ledger.refresh()
            assert ledger.finished
            with urllib.request.urlopen(
                server.url + "/sweeps/earlier/events", timeout=30
            ) as stream:
                lines = [raw.decode().strip() for raw in stream]
            assert lines.count("event: end") == 1
        finally:
            server.stop(drain_timeout=10)

    def test_bad_spec_is_a_400_with_message(self, live_server):
        server, _, _ = live_server
        code, body = post_json(
            server.url + "/sweeps",
            dict(SPEC, workloads=["NOPE"]),
            expect_error=True,
        )
        assert code == 400
        assert "NOPE" in body["error"]

    def test_unknown_run_is_404(self, live_server):
        server, _, _ = live_server
        with pytest.raises(urllib.error.HTTPError) as err:
            get(server.url + "/sweeps/no-such-run")
        assert err.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as err:
            get(server.url + "/sweeps/no-such-run/events")
        assert err.value.code == 404

    def test_healthz_reports_pool_liveness(self, live_server):
        server, _, _ = live_server
        code, body = get(server.url + "/healthz")
        assert code == 200
        payload = json.loads(body)
        assert payload["ok"] is True
        assert payload["workers"] == 2

    def test_unknown_endpoint_is_404(self, live_server):
        server, _, _ = live_server
        with pytest.raises(urllib.error.HTTPError) as err:
            get(server.url + "/teapot")
        assert err.value.code == 404


class TestHTTPErrorPaths:
    """Hardened ingestion: structured JSON errors, never tracebacks."""

    def _post_raw(self, server, body: bytes, content_type="application/json",
                  content_length=None):
        import http.client

        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.putrequest("POST", "/sweeps")
            if content_type is not None:
                conn.putheader("Content-Type", content_type)
            conn.putheader(
                "Content-Length",
                str(len(body)) if content_length is None else content_length,
            )
            conn.endheaders()
            conn.send(body)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read() or b"{}")
        finally:
            conn.close()

    def test_wrong_content_type_is_400(self, live_server):
        server, _, _ = live_server
        code, body = self._post_raw(
            server, json.dumps(SPEC).encode(),
            content_type="application/x-www-form-urlencoded",
        )
        assert code == 400
        assert "Content-Type" in body["error"]

    def test_charset_parameter_is_tolerated(self, live_server):
        server, service, _ = live_server
        code, body = self._post_raw(
            server, json.dumps(SPEC).encode(),
            content_type="application/json; charset=utf-8",
        )
        assert code == 202 and body["run_id"]
        wait_finished(service, body["run_id"])

    def test_missing_content_type_is_tolerated(self, live_server):
        # Bare curl / minimal clients send no Content-Type at all.
        server, service, _ = live_server
        code, body = self._post_raw(
            server, json.dumps(SPEC).encode(), content_type=None
        )
        assert code == 202
        wait_finished(service, body["run_id"])

    def test_malformed_json_is_400(self, live_server):
        server, _, _ = live_server
        code, body = self._post_raw(server, b'{"workloads": [')
        assert code == 400
        assert "JSON" in body["error"]

    def test_non_object_spec_is_400(self, live_server):
        server, _, _ = live_server
        code, body = self._post_raw(server, b'["PR", "BFS"]')
        assert code == 400
        assert "JSON object" in body["error"]

    def test_invalid_content_length_is_400(self, live_server):
        server, _, _ = live_server
        code, body = self._post_raw(server, b"{}", content_length="banana")
        assert code == 400
        assert "Content-Length" in body["error"]

    def test_oversized_body_is_413(self, live_server):
        server, _, _ = live_server
        blob = b'{"pad": "' + b"x" * MAX_BODY_BYTES + b'"}'
        code, body = self._post_raw(server, blob)
        assert code == 413
        assert body["limit_bytes"] == MAX_BODY_BYTES

    #: A request hidden in a refused POST's body: answered only if the
    #: server reads the unread body as the connection's next request.
    SMUGGLED = b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"

    @pytest.mark.parametrize(
        "path, length, status",
        [
            ("/nope", len(SMUGGLED), b"404"),
            ("/sweeps", MAX_BODY_BYTES + 1, b"413"),
        ],
        ids=["unknown-endpoint", "oversized"],
    )
    def test_refused_post_closes_before_its_body(
        self, live_server, path, length, status
    ):
        server, _, _ = live_server
        head = (
            "POST %s HTTP/1.1\r\nHost: x\r\nContent-Type: application/json"
            "\r\nContent-Length: %d\r\n\r\n" % (path, length)
        ).encode()
        received = b""
        with socket.create_connection(server.address, timeout=30) as sock:
            sock.sendall(head + self.SMUGGLED)
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                received += chunk
        assert re.findall(rb"HTTP/1\.1 (\d{3}) ", received) == [status]

    def test_queue_full_is_429_with_retry_after(self, tmp_path, monkeypatch):
        from repro.runtime.points import PointResult
        from repro.service import engine as engine_mod

        gate = threading.Event()

        def fake_execute(point, *args, **kwargs):
            gate.wait(timeout=60)
            return PointResult(point=point, summary={}, wall_time=0.0)

        monkeypatch.setattr(engine_mod, "execute_point", fake_execute)
        service = SweepService(
            root=tmp_path / "runs", workers=1, max_queue=1,
            trace_cache=TraceCache(tmp_path / "traces"),
        )
        server = ServiceHTTPServer(
            service, port=0, access_log=tmp_path / "access.jsonl"
        ).start()
        try:
            code, _ = post_json(server.url + "/sweeps", dict(SPEC, run_id="hog"))
            assert code == 202
            deadline = time.time() + 10
            while service.queue_depth() < 1 and time.time() < deadline:
                time.sleep(0.01)
            overflow = dict(SPEC, max_refs=SPEC["max_refs"] + 1)
            with pytest.raises(urllib.error.HTTPError) as err:
                post_json(server.url + "/sweeps", overflow)
            assert err.value.code == 429
            retry_after = err.value.headers.get("Retry-After")
            assert retry_after is not None and int(retry_after) >= 1
            payload = json.loads(err.value.read() or b"{}")
            assert payload["retry_after"] == int(retry_after)
            # The rejection is visible on /metrics.
            _, metrics_text = get(server.url + "/metrics")
            parsed = parse_prom_text(metrics_text)
            assert parsed["repro_service_rejected_429_total"] == 1
            assert parsed["repro_service_queue_limit"] == 1
        finally:
            gate.set()
            server.stop(drain_timeout=30)

    def test_journal_disk_full_is_503_with_retry_after(
        self, tmp_path, monkeypatch
    ):
        from repro.runtime.faults import ServiceFaultPlan
        from repro.runtime.points import PointResult
        from repro.service import engine as engine_mod

        monkeypatch.setattr(
            engine_mod, "execute_point",
            lambda point, *a, **k: PointResult(
                point=point, summary={}, wall_time=0.0
            ),
        )
        service = SweepService(
            root=tmp_path / "runs", workers=1,
            trace_cache=TraceCache(tmp_path / "traces"),
            faults=ServiceFaultPlan(disk_full=(0,)),
        )
        server = ServiceHTTPServer(
            service, port=0, access_log=tmp_path / "access.jsonl"
        ).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                post_json(server.url + "/sweeps", SPEC)
            assert err.value.code == 503
            assert err.value.headers.get("Retry-After") is not None
            # Nothing was accepted: the run does not exist.
            assert service.run_ids() == []
            # The client's retry (next ordinal, fault spent) succeeds.
            code, body = post_json(server.url + "/sweeps", SPEC)
            assert code == 202
            wait_finished(service, body["run_id"])
        finally:
            server.stop(drain_timeout=30)


class TestShutdown:
    def test_drain_journals_service_shutdown_span(self, tmp_path):
        service = make_service(tmp_path)
        server = ServiceHTTPServer(
            service, port=0, access_log=tmp_path / "access.jsonl"
        ).start()
        url = server.url
        get(url + "/healthz")
        assert server.stop(drain_timeout=30)
        records = spans.read_sidecar(tmp_path / "runs" / SERVICE_SIDECAR)
        shutdown_end = [
            r for r in records
            if r.get("k") == "E" and r.get("name") == "service.shutdown"
        ]
        assert len(shutdown_end) == 1
        assert shutdown_end[0]["attrs"]["clean"] is True
        # Health reports degraded once draining.
        assert not service.healthy()
        # The structured access log captured the request.
        lines = [
            json.loads(line)
            for line in (tmp_path / "access.jsonl").read_text().splitlines()
        ]
        assert any(
            entry["path"] == "/healthz" and entry["status"] == 200
            for entry in lines
        )
        assert all(
            {"ts", "method", "path", "status", "dur_ms", "client"} <= set(e)
            for e in lines
        )


class TestExplicitPointsSpec:
    """The ``points`` spec form: per-point machine knobs for shard/tuner use."""

    def test_points_spec_builds_sweep_points(self):
        points, _ = parse_spec(
            {
                "points": [
                    {
                        "workload": "pr",
                        "dataset": "kron",
                        "setup": "droplet",
                        "llc_multiplier": 4,
                        "l2_config": [2, 16],
                        "rob_entries": 512,
                        "mrb_entries": 64,
                        "seed": 7,
                    },
                    {"workload": "PR", "dataset": "kron"},
                ],
                "max_refs": MAX_REFS,
                "scale_shift": SCALE_SHIFT,
            }
        )
        first, second = points
        assert first.workload == "PR" and first.setup == "droplet"
        assert first.llc_multiplier == 4 and first.l2_config == (2, 16)
        assert first.rob_entries == 512 and first.mrb_entries == 64
        assert first.seed == 7 and first.max_refs == MAX_REFS
        assert first.scale_shift == SCALE_SHIFT
        assert second.label == "PR/kron/none"

    def test_point_entries_override_the_spec_level_window(self):
        points, _ = parse_spec(
            {
                "points": [
                    {"workload": "PR", "dataset": "kron", "max_refs": 99}
                ],
                "max_refs": MAX_REFS,
            }
        )
        assert points[0].max_refs == 99

    @pytest.mark.parametrize(
        "bad",
        [
            "not-an-object",
            {"workload": "NOPE", "dataset": "kron"},
            {"workload": "PR", "dataset": "mars"},
            {"workload": "PR", "dataset": "kron", "setup": "warp"},
            {"workload": "PR", "dataset": "kron", "max_refs": 0},
            {"workload": "PR", "dataset": "kron", "rob_entries": 0},
            {"workload": "PR", "dataset": "kron", "mrb_entries": -8},
            {"workload": "PR", "dataset": "kron", "llc_multiplier": "big"},
            {"workload": "PR", "dataset": "kron", "l2_config": [8]},
            {"workload": "PR", "dataset": "kron", "l2_config": [0, 8]},
            {"workload": "PR", "dataset": "kron", "turbo": 1},
        ],
    )
    def test_rejects_bad_point_entries(self, bad):
        with pytest.raises(ValueError, match=r"points\[0\]"):
            parse_spec({"points": [bad]})

    def test_points_cannot_be_combined_with_matrix_axes(self):
        with pytest.raises(ValueError, match="combined"):
            parse_spec(
                {
                    "points": [{"workload": "PR", "dataset": "kron"}],
                    "workloads": ["PR"],
                }
            )

    def test_points_must_be_a_non_empty_list(self):
        with pytest.raises(ValueError):
            parse_spec({"points": []})


class TestResultsAndParetoService:
    """``GET /sweeps/<id>/results`` and the ``repro pareto --service`` path."""

    POINTS_SPEC = {
        "points": [
            {"workload": "PR", "dataset": "kron", "setup": "none"},
            {
                "workload": "PR",
                "dataset": "kron",
                "setup": "stream",
                "mrb_entries": 128,
            },
        ],
        "max_refs": MAX_REFS,
        "scale_shift": SCALE_SHIFT,
        "run_id": "explicit",
    }

    def test_results_endpoint_serves_journaled_summaries(self, live_server):
        from repro.service import client

        server, service, _ = live_server
        status_code, _ = post_json(server.url + "/sweeps", self.POINTS_SPEC)
        assert status_code == 202
        wait_finished(service, "explicit")
        code, body = get(server.url + "/sweeps/explicit/results")
        assert code == 200
        payload = json.loads(body)
        points, _ = parse_spec(self.POINTS_SPEC)
        expected = {point_key(p): p.label for p in points}
        entries = payload["points"]
        assert {k: v["label"] for k, v in entries.items()} == expected
        assert all("cycles" in v["summary"] for v in entries.values())
        # The stdlib client sees the identical payload.
        assert client.fetch_results(server.url, "explicit") == payload

    def test_results_endpoint_ignores_failed_records(
        self, tmp_path, monkeypatch
    ):
        from repro.runtime.points import PointError, PointResult
        from repro.service import engine as engine_mod

        def fake_execute(point, *args, **kwargs):
            if point.setup == "droplet":
                error = PointError(kind="ValueError", message="bad setup")
                return PointResult(point=point, error=error)
            return PointResult(point=point, summary={"cycles": 1})

        monkeypatch.setattr(engine_mod, "execute_point", fake_execute)
        service = make_service(tmp_path, workers=1)
        server = ServiceHTTPServer(
            service, port=0, access_log=tmp_path / "access.jsonl"
        ).start()
        try:
            post_json(server.url + "/sweeps", dict(SPEC, run_id="half"))
            wait_finished(service, "half")
            _, body = get(server.url + "/sweeps/half/results")
        finally:
            server.stop(drain_timeout=10)
        points, _ = parse_spec(SPEC)
        assert json.loads(body)["points"] == {
            point_key(points[0]): {
                "label": points[0].label, "summary": {"cycles": 1},
            }
        }
        ledger = (tmp_path / "runs" / "half.jsonl").read_text().splitlines()
        kinds = [json.loads(line)["kind"] for line in ledger]
        assert kinds.count("point") == 2  # the failure is journaled too

    def test_results_for_unknown_run_is_404(self, live_server):
        server, _, _ = live_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(server.url + "/sweeps/ghost/results")
        assert excinfo.value.code == 404

    def test_pareto_search_through_the_service(self, live_server):
        from repro.search import HalvingSchedule, ParetoSearch
        from repro.search.frontier import parse_objectives
        from repro.search.space import parse_space

        server, service, _ = live_server
        search = ParetoSearch(
            workload="PR",
            dataset="kron",
            candidates=parse_space("setup=none,stream;llc=1,2"),
            objectives=parse_objectives("cycles,area_mm2"),
            schedule=HalvingSchedule(
                full_refs=MAX_REFS, rungs=3, eta=2, min_refs=500
            ),
            scale_shift=SCALE_SHIFT,
            service=server.url,
            service_poll=0.1,
        )
        report = search.run()
        assert report["format"] == "repro-pareto-v1"
        assert report["frontier"]
        # Each rung became its own content-addressed service run.
        digest = search.spec_digest()
        for rung in range(3):
            assert service.run_finished("par-%s-r%d" % (digest, rung))
        # Resubmitting the identical search dedupes into the finished
        # runs and reproduces the report byte for byte.
        again = search.run()
        assert json.dumps(again, sort_keys=True) == json.dumps(
            report, sort_keys=True
        )
