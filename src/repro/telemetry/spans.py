"""Runtime span tracing: structured spans, sidecars, Chrome traces.

The metric registry and event trace (PR 2) instrument *simulated* time;
this module instruments *wall-clock* runtime behaviour — what the sweep
scheduler, trace cache, ledger and replay engine were actually doing,
when, and for how long.  Three pieces:

* :class:`SpanRecorder` — a bounded, thread-safe in-memory recorder of
  structured span/event records with an optional **JSONL sidecar**: every
  record is also appended (one JSON line, ``O_APPEND``) to a file next
  to the run ledger, so concurrent worker *processes* of one sweep all
  journal into the same timeline and a live ``repro status`` can tail it
  while the sweep is still running.
* A module-level *current recorder* (:func:`current` / :func:`use`):
  instrumented control paths (sweep scheduler, trace cache, ledger,
  ``Machine.run``) fetch it with one global read and skip all work when
  tracing is off — a disabled run performs **zero span allocations**
  (asserted by ``tests/telemetry/test_overhead.py``).
* Exporters — :func:`write_chrome_trace` converts a sidecar (or an
  in-memory recorder) into Chrome trace-event JSON loadable in Perfetto
  or ``chrome://tracing``; :func:`read_sidecar` parses a sidecar back
  into records for ``repro status``.

Record vocabulary (the ``k`` field of each JSONL line):

``B``/``E``
    Span begin/end, paired by ``id``.  A begin without a matching end
    marks work that never finished — a worker killed mid-point shows up
    exactly this way in the timeline.
``I``
    Instant event (retry decisions, pool respawns, cache hits).

A sidecar holds only the timeline.  A run's start, its settled points
and its final metrics are records of the run ledger alone
(:mod:`repro.runtime.ledger`), which ``repro status`` folds.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path

from .tail import read_jsonl

__all__ = [
    "Span",
    "SpanRecorder",
    "current",
    "set_current",
    "use",
    "spans_created",
    "read_sidecar",
    "sidecar_generations",
    "chrome_trace_events",
    "write_chrome_trace",
    "sidecar_path",
    "chrome_path",
]

#: Format marker embedded in Chrome-trace exports.
SPANS_FORMAT = "repro-spans-v1"

#: Record kinds a sidecar line may carry.
RECORD_KINDS = ("B", "E", "I")

#: Environment variable bounding sidecar size (bytes); 0/unset disables
#: rotation.  Very long sweeps otherwise grow ``spans.jsonl`` without
#: bound; with a bound set, the sidecar rotates to ``spans.jsonl.1``
#: (one generation kept — on-disk footprint stays under 2× the bound).
ROTATE_ENV_VAR = "REPRO_SPAN_ROTATE_BYTES"


def _env_rotate_bytes() -> int | None:
    value = os.environ.get(ROTATE_ENV_VAR)
    if not value:
        return None
    try:
        parsed = int(value)
    except ValueError:
        return None
    return parsed if parsed > 0 else None

# ----------------------------------------------------------------------
# Zero-overhead accounting: every Span/record construction bumps this
# module counter, so tests can assert that a tracing-disabled hot path
# allocated *nothing* (mirroring the telemetry-off bit-identity checks).
_created = 0


def spans_created() -> int:
    """Total span/event records constructed in this process (testing)."""
    return _created


# ----------------------------------------------------------------------
_CURRENT: "SpanRecorder | None" = None


def current() -> "SpanRecorder | None":
    """The process-wide active recorder, or ``None`` when tracing is off.

    Instrumented sites guard with ``trc = current(); if trc is not None``
    — one global read and a comparison is the entire disabled-path cost.
    """
    return _CURRENT


def set_current(recorder: "SpanRecorder | None") -> "SpanRecorder | None":
    """Install ``recorder`` as the active one; returns the previous."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = recorder
    return previous


@contextmanager
def use(recorder: "SpanRecorder | None"):
    """Scoped :func:`set_current`: restores the previous recorder on exit."""
    previous = set_current(recorder)
    try:
        yield recorder
    finally:
        set_current(previous)


# ----------------------------------------------------------------------
def sidecar_path(ledger_path: str | Path) -> Path:
    """The span sidecar journaled next to a run ledger file."""
    return Path(ledger_path).with_suffix(".spans.jsonl")


def chrome_path(ledger_path: str | Path) -> Path:
    """The Chrome trace-event JSON exported next to a run ledger file."""
    return Path(ledger_path).with_suffix(".trace.json")


# ----------------------------------------------------------------------
class Span:
    """One open span: name, attrs, start timestamps, process identity.

    Returned by :meth:`SpanRecorder.span`; mutate :attr:`attrs` (or call
    :meth:`set`) before the context manager exits to annotate the end
    record — status, cache-hit flags, error kinds.
    """

    __slots__ = ("id", "name", "attrs", "wall0", "t0")

    def __init__(self, span_id: str, name: str, attrs: dict):
        self.id = span_id
        self.name = name
        self.attrs = attrs
        self.wall0 = time.time()
        self.t0 = time.perf_counter()

    def set(self, **attrs) -> "Span":
        """Merge ``attrs`` into the span's attributes (end-record bound)."""
        self.attrs.update(attrs)
        return self


class SpanRecorder:
    """Bounded recorder of span/event records with an optional sidecar.

    Parameters
    ----------
    sidecar:
        JSONL file every record is appended to (created on first write).
        Single-line ``O_APPEND`` writes keep records whole even when
        several worker processes of one sweep share the file.
    capacity:
        In-memory ring bound; the oldest records fall off a full ring
        (``dropped`` counts them).  The sidecar keeps everything —
        unless ``max_bytes`` bounds it.
    max_bytes:
        Size bound on the sidecar file.  When an append would find the
        file at or past the bound, the sidecar is first rotated to
        ``<sidecar>.1`` (replacing any previous generation), so very
        long sweeps keep at most ~2× ``max_bytes`` on disk.  Readers —
        :func:`read_sidecar`, the incremental
        :class:`~repro.telemetry.tail.JsonlTailer`, ``repro status``
        and the Chrome export — traverse both generations
        transparently.  ``None`` reads :data:`ROTATE_ENV_VAR`
        (``$REPRO_SPAN_ROTATE_BYTES``); 0 disables rotation.
    """

    def __init__(
        self,
        sidecar: str | Path | None = None,
        capacity: int = 65536,
        max_bytes: int | None = None,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sidecar = Path(sidecar) if sidecar is not None else None
        self.capacity = capacity
        if max_bytes is None:
            max_bytes = _env_rotate_bytes()
        self.max_bytes = max_bytes if max_bytes and max_bytes > 0 else None
        self._ring: deque[dict] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0
        self.emitted = 0
        #: Sidecar rotations this recorder performed.
        self.rotations = 0
        self.pid = os.getpid()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ring)

    @property
    def dropped(self) -> int:
        """Records lost to ring wraparound (the sidecar keeps them all)."""
        return self.emitted - len(self._ring)

    def records(self) -> list[dict]:
        """The retained records, oldest first."""
        with self._lock:
            return list(self._ring)

    # ------------------------------------------------------------------
    def _next_id(self) -> str:
        with self._lock:
            self._seq += 1
            return "%d-%d" % (self.pid, self._seq)

    def _maybe_rotate(self) -> None:
        """Rotate the sidecar to ``<sidecar>.1`` when past ``max_bytes``.

        Safe across the worker *processes* sharing one sidecar: the
        size check and rename happen under an exclusive ``flock`` on a
        lock file, so concurrent appenders rotate exactly once.  The
        per-append ``open(..., "a")`` below means nobody holds a stale
        handle on the renamed file.
        """
        try:
            if self.sidecar.stat().st_size < self.max_bytes:
                return
        except OSError:
            return  # nothing written yet
        lock_path = str(self.sidecar) + ".lock"
        handle = open(lock_path, "a")
        try:
            try:
                import fcntl

                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            except ImportError:  # non-POSIX: best-effort rotation
                pass
            try:
                if self.sidecar.stat().st_size >= self.max_bytes:
                    os.replace(self.sidecar, str(self.sidecar) + ".1")
                    self.rotations += 1
            except OSError:
                pass  # lost the race benignly (other process rotated)
        finally:
            handle.close()

    def _record(self, record: dict) -> None:
        global _created
        _created += 1
        record.setdefault("pid", self.pid)
        record.setdefault("tid", threading.get_ident() & 0xFFFF)
        line = None
        if self.sidecar is not None:
            line = json.dumps(record, separators=(",", ":"), sort_keys=True)
        with self._lock:
            self._ring.append(record)
            self.emitted += 1
            if line is not None:
                self.sidecar.parent.mkdir(parents=True, exist_ok=True)
                if self.max_bytes is not None:
                    self._maybe_rotate()
                with open(self.sidecar, "a", encoding="utf-8") as handle:
                    handle.write(line + "\n")
                    handle.flush()

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs):
        """Record a ``B``/``E`` span pair around the managed block.

        Yields the open :class:`Span`; attributes added to it before the
        block exits land on the end record.  An exception propagating
        out of the block marks the span ``status="error"`` (and still
        re-raises).
        """
        span = self.start(name, **attrs)
        try:
            yield span
        except BaseException as exc:
            span.attrs.setdefault("status", "error")
            span.attrs.setdefault("error_kind", type(exc).__name__)
            self.finish(span)
            raise
        self.finish(span)

    def start(self, name: str, **attrs) -> Span:
        """Open a span and journal its ``B`` record immediately.

        The eager begin record is what lets ``repro status`` see a point
        as *running* — and what survives when the process executing the
        span is killed before it can finish.
        """
        span = Span(self._next_id(), name, attrs)
        self._record(
            {
                "k": "B",
                "id": span.id,
                "name": name,
                "wall": span.wall0,
                "attrs": dict(attrs),
            }
        )
        return span

    def finish(self, span: Span, **attrs) -> None:
        """Close ``span``, journaling its ``E`` record with duration."""
        if attrs:
            span.attrs.update(attrs)
        span.attrs.setdefault("status", "ok")
        self._record(
            {
                "k": "E",
                "id": span.id,
                "name": span.name,
                "wall": time.time(),
                "dur": time.perf_counter() - span.t0,
                "attrs": dict(span.attrs),
            }
        )

    def event(self, name: str, **attrs) -> None:
        """Record one instant event."""
        self._record(
            {"k": "I", "name": name, "wall": time.time(), "attrs": attrs}
        )


# ----------------------------------------------------------------------
def sidecar_generations(path: str | Path) -> list[Path]:
    """The on-disk generations of a sidecar, oldest first.

    A size-rotated sidecar keeps one prior generation at ``<path>.1``;
    readers traverse it before the live file so rotation is invisible
    to ``repro status``, the Chrome export and the tailer.
    """
    path = Path(path)
    generations = [Path(str(path) + ".1"), path]
    return [p for p in generations if p.is_file()]


def read_sidecar(path: str | Path) -> list[dict]:
    """Parse a span sidecar, tolerating a torn trailing line.

    Returns records in file order — across rotated generations, oldest
    first; a missing file yields ``[]`` (a sweep may die before its
    first span lands).  Lines of another kind, such as the ``M``/``F``
    run records older sidecars carry, are skipped.
    """
    return [
        record
        for generation in sidecar_generations(path)
        for record in read_jsonl(generation)
        if record.get("k") in RECORD_KINDS
    ]


def chrome_trace_events(records: list[dict]) -> list[dict]:
    """Convert sidecar records into Chrome trace-event dicts.

    ``B``/``E`` pairs become complete (``ph="X"``) events; a begin whose
    end never arrived — a crashed worker — becomes an instant event named
    ``<name> (unfinished)``; ``I`` records become instants.
    Timestamps are wall-clock microseconds relative to the earliest
    record, so spans from different processes align on one timeline.
    """
    if not records:
        return []
    t0 = min(r["wall"] for r in records if "wall" in r)

    def us(wall: float) -> float:
        return round((wall - t0) * 1e6, 1)

    begins: dict[str, dict] = {}
    events: list[dict] = []
    for record in records:
        kind = record.get("k")
        if kind == "B":
            begins[record["id"]] = record
            continue
        base = {
            "name": record.get("name", "?"),
            "pid": record.get("pid", 0),
            "tid": record.get("tid", 0),
            "args": record.get("attrs", {}),
        }
        if kind == "E":
            begin = begins.pop(record["id"], None)
            dur_us = record.get("dur", 0.0) * 1e6
            start_wall = (
                begin["wall"] if begin is not None
                else record["wall"] - record.get("dur", 0.0)
            )
            events.append(
                {
                    **base,
                    "ph": "X",
                    "cat": "span",
                    "ts": us(start_wall),
                    "dur": round(dur_us, 1),
                }
            )
        elif kind == "I":
            events.append(
                {
                    **base,
                    "ph": "i",
                    "cat": "event",
                    "ts": us(record["wall"]),
                    "s": "g",
                }
            )
    # Unmatched begins: work that never finished (crashes, live spans).
    for begin in begins.values():
        events.append(
            {
                "name": "%s (unfinished)" % begin.get("name", "?"),
                "pid": begin.get("pid", 0),
                "tid": begin.get("tid", 0),
                "args": begin.get("attrs", {}),
                "ph": "i",
                "cat": "span",
                "ts": us(begin["wall"]),
                "s": "p",
            }
        )
    events.sort(key=lambda e: e["ts"])
    return events


def write_chrome_trace(
    source: "SpanRecorder | str | Path | list[dict]", out: str | Path
) -> Path:
    """Write Chrome trace-event JSON from a recorder, sidecar, or records.

    The output loads directly in Perfetto (https://ui.perfetto.dev) or
    ``chrome://tracing``.  Prefers the sidecar over the in-memory ring
    when a recorder has one — the sidecar holds every process's spans.
    """
    if isinstance(source, SpanRecorder):
        records = (
            read_sidecar(source.sidecar)
            if source.sidecar is not None
            else source.records()
        )
    elif isinstance(source, (str, Path)):
        records = read_sidecar(source)
    else:
        records = list(source)
    payload = {
        "traceEvents": chrome_trace_events(records),
        "displayTimeUnit": "ms",
        "otherData": {"format": SPANS_FORMAT},
    }
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, separators=(",", ":"), sort_keys=True))
    return out
