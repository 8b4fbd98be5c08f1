"""Append-only run ledgers: the durable record of every sweep run.

A :class:`RunLedger` journals a sweep to one JSONL file as it runs,
content-addressed by :func:`point_key`.  ``repro status`` and the sweep
service's crash recovery fold this file alone.  If the sweep dies —
SIGKILL, OOM, power loss — re-running it against the same ledger
(``repro sweep --resume <run-id>``) restores the successful points and
executes only the remainder.

After the ``header``, a ``run`` record lists one run's point keys and
labels, ``workers`` and ``mode`` (one per ``SweepRunner.run()`` call,
one per service run); a ``point`` record journals each settled point,
ok or failed, with its summary, timings, attempts, timeouts, cache-hit
flag, quarantined entries, ``error_kind`` and ``restored`` flag; and a
``finish`` record carries the run's final ``SweepMetrics`` dict.

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
from pathlib import Path

from ..telemetry import spans as _spans
from ..telemetry.tail import read_jsonl
from .points import PointError, PointResult, SweepPoint

__all__ = [
    "RunLedger",
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
        replay_tier=data.get("replay_tier"),
    )


class RunLedger:
    """One sweep's on-disk journal: ``<root>/<run_id>.jsonl``.

    Usage: construct, :meth:`open` with the sweep's settings (loads any
    existing records, writes the header on first use), :meth:`restore`
    per point before execution, then :meth:`start_run`, :meth:`record`
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
            "replay_tier": result.replay_tier,
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
