"""Append-only run ledgers: the durable record of every sweep run.

A :class:`RunLedger` journals a sweep to one JSONL file as it runs,
content-addressed by :func:`point_key`.  ``repro status`` and the sweep
service's crash recovery fold this file alone.  If the sweep dies —
SIGKILL, OOM, power loss — re-running it against the same ledger
(``repro sweep --resume <run-id>``) restores the successful points and
executes only the remainder.

A :class:`RunJournal` is the one writer of a run's records: ``repro
sweep`` (:class:`~repro.runtime.sweep.SweepRunner`) and ``repro serve``
(:class:`~repro.service.engine.RunHandle`) both journal through it, and
it tallies the run's :class:`SweepMetrics` from the points it settles.

After the ``header``, a ``run`` record lists one run's point keys and
labels, ``workers`` and ``mode`` (one per ``SweepRunner.run()`` call,
one per service run); a ``point`` record journals each settled point,
ok or failed, with its summary, timings, attempts, timeouts, cache-hit
flag, quarantined entries, ``error_kind`` and ``restored`` flag; and a
``finish`` record carries the run's final ``SweepMetrics`` dict.  These
records are a run's only durable copy: the span sidecar beside the
ledger journals none of them, only the timeline of points in flight.

Design notes
------------
* **Append-only, line-atomic.**  Each record is one JSON line followed
  by ``flush`` + ``fsync``; a crash mid-write leaves at most one torn
  trailing line, which readers skip.  Nothing is ever rewritten, so a
  ledger can only grow more complete.
* **Content-addressed.**  Records are keyed by a digest over the point's
  full identity (trace spec + machine knobs + on-disk format versions),
  not by index — reordering or extending the sweep still resumes
  correctly, and format bumps invalidate stale records automatically.
* **Failures are journaled, never restored.**  :meth:`RunLedger.restore`,
  ``len()`` and :meth:`RunLedger.completed_records` see successful
  records only, so a resumed sweep retries every point that did not
  complete successfully; errors are recomputed, never replayed.
* **Summaries only.**  Restored points carry their journaled summary,
  telemetry payload and timings but no full ``SimResult`` (those are not
  JSON-serializable); resume is therefore exact for ``return_full=False``
  sweeps — which includes ``repro sweep`` — and summary-exact otherwise.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
import time
from dataclasses import dataclass
from pathlib import Path

from ..telemetry import spans as _spans
from ..telemetry.tail import read_jsonl
from .executor import POINT_TIMEOUT_KIND
from .points import PointError, PointResult, SweepPoint

__all__ = [
    "RunLedger",
    "RunJournal",
    "SweepMetrics",
    "LedgerError",
    "point_key",
    "new_run_id",
    "default_ledger_root",
    "result_from_record",
    "LEDGER_FORMAT",
]

#: Format marker written to every ledger header; bump on layout changes.
LEDGER_FORMAT = "repro-run-ledger-v1"

#: Environment variable overriding the ledger directory.
LEDGER_ENV_VAR = "REPRO_RUN_LEDGER"


class LedgerError(RuntimeError):
    """Raised for unusable ledgers (format skew, settings mismatch)."""


def default_ledger_root() -> Path:
    """``$REPRO_RUN_LEDGER`` or ``~/.cache/repro/runs``."""
    value = os.environ.get(LEDGER_ENV_VAR)
    if value:
        return Path(value).expanduser()
    return Path.home() / ".cache" / "repro" / "runs"


def new_run_id() -> str:
    """A fresh run id: sortable timestamp plus a collision-proof suffix."""
    return "%s-%s" % (time.strftime("%Y%m%d-%H%M%S"), secrets.token_hex(3))


def point_key(point: SweepPoint) -> str:
    """Content address of one sweep point (identity + format versions).

    Two points share a key exactly when their results are interchangeable:
    same trace identity, same machine-side knobs, same on-disk encodings.
    """
    from ..trace.io import TRACE_FORMAT_VERSION
    from .trace_cache import CACHE_FORMAT_VERSION

    identity = {
        "workload": point.workload,
        "dataset": point.dataset,
        "setup": point.setup,
        "max_refs": point.max_refs,
        "scale_shift": point.scale_shift,
        "seed": point.seed,
        "multi_property": point.multi_property,
        "llc_multiplier": point.llc_multiplier,
        "l2_config": list(point.l2_config) if point.l2_config else None,
        "trace_format": TRACE_FORMAT_VERSION,
        "cache_format": CACHE_FORMAT_VERSION,
    }
    # Newer machine knobs (the `repro pareto` search axes) join the
    # identity only when set, so content addresses of points journaled
    # before these knobs existed never change.
    if point.rob_entries is not None:
        identity["rob_entries"] = point.rob_entries
    if point.mrb_entries is not None:
        identity["mrb_entries"] = point.mrb_entries
    blob = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def result_from_record(point: SweepPoint, record: dict) -> PointResult:
    """The ``restored`` :class:`PointResult` a ``point`` record journaled.

    A failed record yields a :class:`PointError` of its journaled kind.
    """
    data = record.get("data", {})
    error = None
    if not record.get("ok", True):
        error = PointError(
            kind=str(data.get("error_kind") or "unknown"),
            message="journaled as failed",
        )
    return PointResult(
        point=point,
        summary=data.get("summary"),
        error=error,
        wall_time=float(data.get("wall_time", 0.0)),
        trace_cache_hit=data.get("trace_cache_hit"),
        telemetry=data.get("telemetry"),
        attempts=int(data.get("attempts", 1)),
        restored=True,
        cache_quarantined=int(data.get("quarantined", 0)),
    )


@dataclass
class SweepMetrics:
    """Aggregate execution metrics of one sweep.

    ``workers`` is the number of processes that *actually executed*
    points: a runner built with ``workers=1`` (or 0/None) falls back to
    the serial in-process path, and its metrics must say ``workers=1``,
    ``mode="serial"`` — utilization is normalized by the executing
    worker count, never by the requested pool size.

    The resilience counters record recovery work: ``retries`` (extra
    attempts scheduled), ``timeouts`` (watchdog expiries observed),
    ``recovered_workers`` (pool respawn events after crashes or hard
    timeouts), ``quarantined_entries`` (corrupt trace-cache entries
    quarantined and regenerated) and ``restored`` (points restored from
    a run ledger instead of executed).

    ``events_emitted``/``events_dropped`` aggregate the per-point
    telemetry ring-buffer accounting of a ``--telemetry`` sweep, so
    reports (and the CLI's dropped-events warning) can surface ring
    overflow without digging through every point payload.
    """

    workers: int = 1
    mode: str = "serial"  # "serial" | "parallel" | "service"
    total_points: int = 0
    errors: int = 0
    elapsed: float = 0.0
    point_time: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    traces_generated: int = 0
    retries: int = 0
    timeouts: int = 0
    recovered_workers: int = 0
    quarantined_entries: int = 0
    restored: int = 0
    events_emitted: int = 0
    events_dropped: int = 0

    def add_fetch(self, hit: bool | None, seconds: float, quarantined: int) -> None:
        """Count one trace fetch: its time, cache outcome and quarantines."""
        self.point_time += seconds
        self.quarantined_entries += quarantined
        if hit is True:
            self.cache_hits += 1
        elif hit is False:
            self.cache_misses += 1
            self.traces_generated += 1

    @property
    def utilization(self) -> float:
        """Busy fraction of the worker pool: Σ point time / (elapsed × workers).

        0.0 for degenerate sweeps (no elapsed time yet), and capped at
        1.0 — timer granularity can make Σ point time marginally exceed
        wall time on the serial path, and a ">100% busy" pool is
        meaningless.
        """
        denominator = self.elapsed * max(self.workers, 1)
        if denominator <= 0:
            return 0.0
        return min(1.0, self.point_time / denominator)

    def as_dict(self) -> dict:
        """JSON-safe form."""
        return {
            "workers": self.workers,
            "mode": self.mode,
            "total_points": self.total_points,
            "errors": self.errors,
            "elapsed_s": self.elapsed,
            "point_time_s": self.point_time,
            "utilization": self.utilization,
            "trace_cache_hits": self.cache_hits,
            "trace_cache_misses": self.cache_misses,
            "traces_generated": self.traces_generated,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "recovered_workers": self.recovered_workers,
            "quarantined_entries": self.quarantined_entries,
            "restored_points": self.restored,
            "events_emitted": self.events_emitted,
            "events_dropped": self.events_dropped,
        }

    def to_text(self) -> str:
        """One-line human-readable summary."""
        text = (
            "%d points (%d errors) in %.2fs wall / %.2fs cpu, "
            "%d %s worker(s) at %.0f%% utilization, "
            "trace cache %d hits / %d misses"
            % (
                self.total_points,
                self.errors,
                self.elapsed,
                self.point_time,
                self.workers,
                self.mode,
                100.0 * self.utilization,
                self.cache_hits,
                self.cache_misses,
            )
        )
        if (
            self.retries
            or self.timeouts
            or self.recovered_workers
            or self.quarantined_entries
            or self.restored
        ):
            text += (
                "; resilience: %d retries, %d timeouts, %d pool "
                "recoveries, %d quarantined, %d restored"
                % (
                    self.retries,
                    self.timeouts,
                    self.recovered_workers,
                    self.quarantined_entries,
                    self.restored,
                )
            )
        return text


class RunLedger:
    """One sweep's on-disk journal: ``<root>/<run_id>.jsonl``.

    Usage: construct, :meth:`open` with the sweep's settings (loads any
    existing records, writes the header on first use), :meth:`restore`
    per point before execution, then journal the run through a
    :class:`RunJournal`, which calls :meth:`start_run`, :meth:`record`
    per settled point and :meth:`finish_run`.
    """

    def __init__(self, run_id: str, root: str | Path | None = None):
        if not run_id or any(c in run_id for c in "/\\"):
            raise ValueError("bad run id %r" % (run_id,))
        self.run_id = run_id
        self.root = Path(root) if root is not None else default_ledger_root()
        self.path = self.root / (run_id + ".jsonl")
        #: Successful point records, by point key.
        self._completed: dict[str, dict] = {}
        #: The latest point record of any outcome, by point key.
        self._settled: dict[str, dict] = {}
        #: Whether a ``finish`` record has been journaled.
        self.finished = False
        self._opened = False

    # ------------------------------------------------------------------
    def exists(self) -> bool:
        """Whether this run already has a ledger file on disk."""
        return self.path.is_file()

    def __len__(self) -> int:
        return len(self._completed)

    def __contains__(self, key: str) -> bool:
        return key in self._completed

    # ------------------------------------------------------------------
    def open(self, telemetry: bool = False, telemetry_interval: int | None = None) -> int:
        """Load prior records (tolerating a torn tail) and ensure a header.

        Raises :class:`LedgerError` on format skew or when the prior run
        journaled under different telemetry settings — restored points
        would otherwise silently lack (or carry stale) telemetry
        payloads.  Returns the number of restorable points.
        """
        self._completed.clear()
        self._settled.clear()
        self.finished = False
        if self.exists():
            records = read_jsonl(self.path)
            header = next(
                (r for r in records if r.get("kind") == "header"), None
            )
            if header is None or header.get("format") != LEDGER_FORMAT:
                raise LedgerError(
                    "%s is not a %s ledger" % (self.path, LEDGER_FORMAT)
                )
            if bool(header.get("telemetry")) != bool(telemetry) or (
                telemetry
                and header.get("telemetry_interval") != telemetry_interval
            ):
                raise LedgerError(
                    "ledger %s was journaled with different telemetry "
                    "settings; resume with the original flags or start a "
                    "new run id" % self.run_id
                )
            self._fold(records)
        else:
            self._append(
                {
                    "kind": "header",
                    "format": LEDGER_FORMAT,
                    "run_id": self.run_id,
                    "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
                    "telemetry": bool(telemetry),
                    "telemetry_interval": telemetry_interval if telemetry else None,
                }
            )
        self._opened = True
        return len(self._completed)

    # ------------------------------------------------------------------
    def restore(self, point: SweepPoint) -> PointResult | None:
        """Rebuild the journaled successful result for ``point``, or ``None``."""
        record = self._completed.get(point_key(point))
        if record is None:
            return None
        trc = _spans.current()
        if trc is not None:
            trc.event("ledger.restore", key=point_key(point), label=point.label)
        return result_from_record(point, record)

    def settled_record(self, point: SweepPoint) -> dict | None:
        """The latest journaled record for ``point``, failed ones included."""
        return self._settled.get(point_key(point))

    def start_run(self, points, workers: int, mode: str) -> None:
        """Journal the start of one run over ``points``."""
        self._append(
            {
                "kind": "run",
                "keys": [point_key(p) for p in points],
                "labels": [p.label for p in points],
                "workers": workers,
                "mode": mode,
                "started_at": time.time(),
            }
        )

    def record(
        self,
        point: SweepPoint,
        result: PointResult,
        timeouts: int = 0,
        restored: bool = False,
    ) -> None:
        """Journal one settled point, successful or failed.

        ``timeouts`` counts the watchdog expiries among its attempts;
        ``restored`` marks an answer taken from another run's result.
        """
        if not self._opened:
            raise LedgerError("ledger %s not opened" % self.run_id)
        key = point_key(point)
        data = {
            "summary": result.summary,
            # Wall-clock completion stamp plus the monotonic duration:
            # `repro status` ETAs and `repro trend` need both even on
            # historical ledgers.
            "completed_at": time.time(),
            "duration_s": result.wall_time,
            "wall_time": result.wall_time,
            "trace_cache_hit": result.trace_cache_hit,
            "telemetry": result.telemetry,
            "attempts": result.attempts,
            "timeouts": timeouts,
            "quarantined": result.cache_quarantined,
        }
        if restored:
            data["restored"] = True
        if not result.ok:
            data["error_kind"] = result.error.kind
        record = {
            "kind": "point",
            "key": key,
            "label": point.label,
            "ok": result.ok,
            "data": data,
        }
        self._append(record)
        self._fold([record])
        trc = _spans.current()
        if trc is not None:
            trc.event("ledger.append", key=key, label=point.label)

    def finish_run(self, metrics: dict) -> None:
        """Journal the end of a run with its final metrics dict."""
        self._append(
            {"kind": "finish", "metrics": metrics, "finished_at": time.time()}
        )
        self.finished = True

    def completed_records(self) -> dict[str, dict]:
        """Snapshot of the successful point records, keyed by point key.

        Read-side accessor for observers (the service's ``/results``
        endpoint) that load a ledger via :meth:`refresh` without opening
        it for writing.
        """
        return dict(self._completed)

    def refresh(self) -> None:
        """Fold in records appended to the file by other processes.

        Multi-host sweep-service processes share one ledger file per
        run over shared storage: the executing process appends, the
        observers ``refresh()`` and adopt.
        """
        self._fold(read_jsonl(self.path))

    # ------------------------------------------------------------------
    def _fold(self, records: list[dict]) -> None:
        for record in records:
            kind = record.get("kind")
            if kind == "finish":
                self.finished = True
            elif kind == "point" and "key" in record:
                self._settled[record["key"]] = record
                if record.get("ok", True):
                    self._completed[record["key"]] = record

    def _append(self, record: dict) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record, separators=(",", ":")) + "\n"
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())

    def __repr__(self) -> str:
        return "RunLedger(run_id=%r, path=%r, completed=%d)" % (
            self.run_id,
            str(self.path),
            len(self._completed),
        )


class RunJournal:
    """One run's journal and metrics tally.

    Writes the run's ledger records (``run``, one ``point`` per settled
    point, ``finish``) when a ledger is present, and the
    ``point.timeout`` / ``point.retry`` instants of failed attempts to
    the span sidecar when a tracer is.  Figure runs journal with
    neither.  Every settled point joins :attr:`metrics`; the owner adds
    only what is its own (a pool's warm phase and respawns) before
    :meth:`finish`.
    """

    def __init__(self, points, workers: int, mode: str, ledger=None, tracer=None):
        self.points = list(points)
        self.ledger = ledger
        self.tracer = tracer
        self.metrics = SweepMetrics(
            workers=workers, mode=mode, total_points=len(self.points)
        )
        #: Settled results, by point index.
        self.settled: dict[int, PointResult] = {}
        #: Watchdog expiries per point index, for its ``point`` record.
        self.timeouts: dict[int, int] = {}
        self.started = time.perf_counter()

    def start(self) -> None:
        """Journal the ``run`` record."""
        if self.ledger is not None:
            self.ledger.start_run(
                self.points, self.metrics.workers, self.metrics.mode
            )

    def attempt_failed(
        self, index: int, result: PointResult, attempt: int, retrying: bool
    ) -> None:
        """Count a failed attempt's timeout; journal its instants."""
        timed_out = result.error.kind == POINT_TIMEOUT_KIND
        if timed_out:
            self.timeouts[index] = self.timeouts.get(index, 0) + 1
        if self.tracer is None:
            return
        attrs = dict(index=index, label=result.point.label, attempt=attempt)
        if timed_out:
            self.tracer.event("point.timeout", **attrs)
        if retrying:
            self.tracer.event("point.retry", **attrs, error_kind=result.error.kind)

    def settle(
        self, index: int, point: SweepPoint, result: PointResult, restored=False
    ) -> None:
        """Journal one settled point's ledger record and tally it."""
        timeouts = self.timeouts.get(index, 0)
        if self.ledger is not None:
            self.ledger.record(point, result, timeouts=timeouts, restored=restored)
        self.adopt(index, result, restored, timeouts)

    def adopt(
        self, index: int, result: PointResult, restored: bool, timeouts: int = 0
    ) -> None:
        """Settle a point whose record is already on disk, without writing.

        A restored point was executed, and counted, by the run that
        journaled it: it adds to ``restored`` (and ``errors``) only.
        """
        self.settled[index] = result
        metrics = self.metrics
        if not result.ok:
            metrics.errors += 1
        if restored:
            metrics.restored += 1
            return
        metrics.retries += max(0, result.attempts - 1)
        metrics.timeouts += timeouts
        metrics.add_fetch(
            result.trace_cache_hit, result.wall_time or 0.0, result.cache_quarantined
        )

    def finish(self) -> None:
        """Close the tally and journal the ``finish`` record."""
        self.metrics.elapsed = time.perf_counter() - self.started
        if self.ledger is not None:
            self.ledger.finish_run(self.metrics.as_dict())
