"""Span recorder, sidecar journal and Chrome-trace export."""

from __future__ import annotations

import json

import pytest

from repro.telemetry import spans
from repro.telemetry.spans import (
    RECORD_KINDS,
    SPANS_FORMAT,
    SpanRecorder,
    chrome_path,
    chrome_trace_events,
    read_sidecar,
    sidecar_path,
    write_chrome_trace,
)


class TestRecorder:
    def test_span_pair_records_begin_and_end(self):
        rec = SpanRecorder()
        with rec.span("work", index=3) as span:
            span.set(tier="vector")
        kinds = [r["k"] for r in rec.records()]
        assert kinds == ["B", "E"]
        begin, end = rec.records()
        assert begin["id"] == end["id"]
        assert begin["attrs"] == {"index": 3}
        assert end["attrs"] == {"index": 3, "tier": "vector", "status": "ok"}
        assert end["dur"] >= 0

    def test_span_exception_marks_error_and_reraises(self):
        rec = SpanRecorder()
        with pytest.raises(ValueError):
            with rec.span("work"):
                raise ValueError("boom")
        end = rec.records()[-1]
        assert end["k"] == "E"
        assert end["attrs"]["status"] == "error"
        assert end["attrs"]["error_kind"] == "ValueError"

    def test_event_kind(self):
        rec = SpanRecorder()
        rec.event("point.retry", index=1)
        assert [r["k"] for r in rec.records()] == ["I"]
        assert RECORD_KINDS == ("B", "E", "I")

    def test_ring_bound_drops_oldest(self):
        rec = SpanRecorder(capacity=4)
        for i in range(10):
            rec.event("tick", i=i)
        assert len(rec) == 4
        assert rec.emitted == 10
        assert rec.dropped == 6
        assert [r["attrs"]["i"] for r in rec.records()] == [6, 7, 8, 9]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            SpanRecorder(capacity=0)

    def test_allocation_counter_advances_per_record(self):
        before = spans.spans_created()
        rec = SpanRecorder()
        rec.event("a")
        with rec.span("b"):
            pass
        assert spans.spans_created() - before == 3  # I + B + E


class TestCurrentRecorder:
    def test_disabled_by_default(self):
        assert spans.current() is None

    def test_use_scopes_and_restores(self):
        rec = SpanRecorder()
        with spans.use(rec):
            assert spans.current() is rec
            inner = SpanRecorder()
            with spans.use(inner):
                assert spans.current() is inner
            assert spans.current() is rec
        assert spans.current() is None

    def test_use_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with spans.use(SpanRecorder()):
                raise RuntimeError("boom")
        assert spans.current() is None


class TestSidecar:
    def test_paths_derive_from_ledger(self, tmp_path):
        ledger = tmp_path / "run-1.jsonl"
        assert sidecar_path(ledger) == tmp_path / "run-1.spans.jsonl"
        assert chrome_path(ledger) == tmp_path / "run-1.trace.json"

    def test_round_trip(self, tmp_path):
        path = tmp_path / "runs" / "r.spans.jsonl"
        rec = SpanRecorder(sidecar=path)
        with rec.span("work", index=0):
            rec.event("inner")
        records = read_sidecar(path)
        assert [r["k"] for r in records] == ["B", "I", "E"]
        assert records == rec.records()

    def test_run_records_of_older_sidecars_are_skipped(self, tmp_path):
        # Sidecars once carried ``M``/``F`` copies of the run's ledger
        # records; readers skip them.
        path = tmp_path / "r.spans.jsonl"
        rec = SpanRecorder(sidecar=path)
        with path.open("a") as handle:
            handle.write('{"k":"M","name":"sweep.run","wall":1.0}\n')
        rec.event("a")
        with path.open("a") as handle:
            handle.write('{"k":"F","name":"sweep.finish","wall":2.0}\n')
        assert [r["k"] for r in read_sidecar(path)] == ["I"]

    def test_missing_sidecar_reads_empty(self, tmp_path):
        assert read_sidecar(tmp_path / "nope.jsonl") == []

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "r.spans.jsonl"
        rec = SpanRecorder(sidecar=path)
        rec.event("a")
        rec.event("b")
        # Simulate a hard kill mid-write: truncate the last line.
        text = path.read_text()
        path.write_text(text[: len(text) - 10])
        records = read_sidecar(path)
        assert [r["attrs"] for r in records if r["k"] == "I"] == [{}]

    def test_sidecar_survives_ring_wraparound(self, tmp_path):
        path = tmp_path / "r.spans.jsonl"
        rec = SpanRecorder(sidecar=path, capacity=2)
        for i in range(8):
            rec.event("tick", i=i)
        assert len(rec) == 2 and rec.dropped == 6
        assert len(read_sidecar(path)) == 8  # the journal keeps them all


class TestChromeExport:
    def test_complete_and_instant_events(self):
        rec = SpanRecorder()
        rec.event("pareto.run", candidates=1)
        with rec.span("point", index=0):
            rec.event("point.retry", index=0)
        events = chrome_trace_events(rec.records())
        phases = {e["name"]: e["ph"] for e in events}
        assert phases["point"] == "X"
        assert phases["point.retry"] == "i"
        assert phases["pareto.run"] == "i"
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)
        assert all(e["ts"] >= 0 for e in events)

    def test_unfinished_span_becomes_instant(self):
        rec = SpanRecorder()
        rec.start("point", index=0)  # never finished: a crashed worker
        events = chrome_trace_events(rec.records())
        assert [e["name"] for e in events] == ["point (unfinished)"]
        assert events[0]["ph"] == "i"

    def test_empty_records(self):
        assert chrome_trace_events([]) == []

    def test_write_from_recorder_prefers_sidecar(self, tmp_path):
        path = tmp_path / "r.spans.jsonl"
        rec = SpanRecorder(sidecar=path, capacity=2)
        for i in range(6):
            rec.event("tick", i=i)
        out = write_chrome_trace(rec, tmp_path / "r.trace.json")
        payload = json.loads(out.read_text())
        assert payload["otherData"]["format"] == SPANS_FORMAT
        assert len(payload["traceEvents"]) == 6  # all, not just the ring

    def test_write_from_path_and_records(self, tmp_path):
        path = tmp_path / "r.spans.jsonl"
        rec = SpanRecorder(sidecar=path)
        with rec.span("work"):
            pass
        from_path = json.loads(
            write_chrome_trace(path, tmp_path / "a.json").read_text()
        )
        from_records = json.loads(
            write_chrome_trace(rec.records(), tmp_path / "b.json").read_text()
        )
        assert from_path["traceEvents"] == from_records["traceEvents"]


class TestRotation:
    def _bounded(self, tmp_path, max_bytes=256):
        path = tmp_path / "r.spans.jsonl"
        return SpanRecorder(sidecar=path, max_bytes=max_bytes), path

    def test_rotates_past_the_byte_bound(self, tmp_path):
        rec, path = self._bounded(tmp_path)
        for i in range(32):
            rec.event("tick", i=i)
        rotated = path.parent / (path.name + ".1")
        assert rec.rotations >= 1
        assert rotated.is_file()
        # The footprint stays bounded: live file under the bound plus
        # one appended record, one prior generation kept.
        assert path.stat().st_size < 256 + 200

    def test_read_sidecar_spans_generations_in_order(self, tmp_path):
        rec, path = self._bounded(tmp_path)
        for i in range(32):
            rec.event("tick", i=i)
        records = read_sidecar(path)
        seen = [r["attrs"]["i"] for r in records]
        # Oldest-first with no reordering; only whole generations between
        # the two on disk may have been dropped (single .1 retention).
        assert seen == sorted(seen)
        assert seen[-1] == 31
        assert len(seen) >= 2

    def test_tailer_follows_rotation_without_loss(self, tmp_path):
        from repro.telemetry.tail import JsonlTailer

        rec, path = self._bounded(tmp_path, max_bytes=512)
        tailer = JsonlTailer(path)
        seen = []
        for i in range(64):
            rec.event("tick", i=i)
            if i % 5 == 0:
                seen.extend(r["attrs"]["i"] for r in tailer.poll())
        seen.extend(r["attrs"]["i"] for r in tailer.poll())
        assert seen == list(range(64))
        assert rec.rotations >= 1  # the scenario actually rotated

    def test_zero_or_unset_bound_disables_rotation(self, tmp_path, monkeypatch):
        monkeypatch.delenv(spans.ROTATE_ENV_VAR, raising=False)
        rec = SpanRecorder(sidecar=tmp_path / "a.jsonl")
        assert rec.max_bytes is None
        rec = SpanRecorder(sidecar=tmp_path / "b.jsonl", max_bytes=0)
        assert rec.max_bytes is None

    def test_env_var_sets_default_bound(self, tmp_path, monkeypatch):
        monkeypatch.setenv(spans.ROTATE_ENV_VAR, "300")
        rec = SpanRecorder(sidecar=tmp_path / "r.jsonl")
        assert rec.max_bytes == 300
        for i in range(32):
            rec.event("tick", i=i)
        assert rec.rotations >= 1

    def test_chrome_export_includes_rotated_generation(self, tmp_path):
        rec, path = self._bounded(tmp_path)
        for i in range(32):
            rec.event("tick", i=i)
        payload = json.loads(
            write_chrome_trace(rec, tmp_path / "t.json").read_text()
        )
        ticks = [e["args"]["i"] for e in payload["traceEvents"]]
        assert len(ticks) == len(read_sidecar(path))
        assert ticks[-1] == 31
