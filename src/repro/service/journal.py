"""Durable submission journal: no accepted sweep is ever lost.

The crash-safety seam of ``repro serve``.  Every accepted submission is
appended to one JSONL journal under the ledger root — one fsync'd line
*before* the HTTP 202 leaves the daemon — so the set of accepted-but-
unfinished sweeps survives anything short of losing the disk.  On
startup :meth:`SubmissionJournal.replay` returns the pending
submissions; the service reconciles each against its
:class:`~repro.runtime.ledger.RunLedger` (completed points restore
instantly, unfinished points re-enqueue) and a ``kill -9`` + restart
therefore resumes every run with zero client action.

Design notes
------------
* **Append-only, line-atomic, fsync'd.**  Same discipline as the run
  ledger: one JSON line per record, ``flush`` + ``fsync`` before the
  append returns.  A crash mid-write leaves at most one torn trailing
  line, which replay skips (asserted by the torn-tail chaos fault).
* **Two record kinds** after the header: ``submit`` (run id, the spec
  dict verbatim, a content digest of the spec, timestamp) and ``done``
  (run id).  A run is *pending* when its latest ``submit`` has no
  ``done``.  Duplicate ``submit`` records for one run id (idempotent
  client resubmission racing a crash) collapse to the first.
* **Specs are stored verbatim** so replay re-parses them with the same
  :func:`~repro.service.engine.parse_spec` the HTTP path uses — the
  journal never needs to understand sweep semantics, only run ids.
* **Multi-process friendly.**  Appends are single ``write`` calls in
  ``O_APPEND`` mode, so several ``repro serve`` processes sharing one
  ledger root interleave whole lines; a :class:`JsonlTailer` over the
  journal is how joined workers discover each other's submissions live.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..runtime.faults import ServiceFaultPlan
from ..telemetry.tail import read_jsonl

__all__ = [
    "SubmissionJournal",
    "JournalEntry",
    "spec_digest",
    "JOURNAL_NAME",
    "JOURNAL_FORMAT",
]

#: Journal file name under the ledger root.
JOURNAL_NAME = "service.journal.jsonl"

#: Format marker written to the journal header; bump on layout changes.
JOURNAL_FORMAT = "repro-service-journal-v1"


def spec_digest(spec: dict) -> str:
    """Content address of one submission spec (run-id field excluded).

    Two submissions share a digest exactly when they describe the same
    sweep — the basis for idempotent resubmission: a client that never
    saw its 202 can resubmit the same spec under the same run id and
    the service recognizes it instead of rejecting a collision.
    """
    stripped = {k: v for k, v in spec.items() if k != "run_id"}
    blob = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


@dataclass
class JournalEntry:
    """One journaled submission and what is known about its fate."""

    run_id: str
    spec: dict
    digest: str
    submitted_at: float = 0.0
    done: bool = False
    #: Extra ``submit`` records seen for this run id (idempotent races).
    duplicates: int = field(default=0)


class SubmissionJournal:
    """The service's accept journal: ``<root>/service.journal.jsonl``.

    ``faults`` threads a :class:`~repro.runtime.faults.ServiceFaultPlan`
    into the append path for the chaos harness (disk-full rejection,
    torn-tail power loss, kill-after-accept).
    """

    def __init__(
        self, root: str | Path, faults: ServiceFaultPlan | None = None
    ):
        self.root = Path(root)
        self.path = self.root / JOURNAL_NAME
        self.faults = faults
        #: Submission ordinal (``submit`` appends attempted), the index
        #: space service fault plans address.
        self.submits = 0

    # ------------------------------------------------------------------
    def exists(self) -> bool:
        return self.path.is_file()

    def _append(self, record: dict, partial: bool = False) -> None:
        """Append one fsync'd line (``partial`` simulates a torn write)."""
        self.root.mkdir(parents=True, exist_ok=True)
        first = not self.path.is_file()
        line = json.dumps(record, separators=(",", ":"), sort_keys=True) + "\n"
        if partial:
            line = line[: max(1, len(line) // 2)]  # no newline: torn tail
        with open(self.path, "a", encoding="utf-8") as handle:
            if first:
                header = json.dumps(
                    {"kind": "header", "format": JOURNAL_FORMAT,
                     "created": time.time()},
                    separators=(",", ":"), sort_keys=True,
                )
                handle.write(header + "\n")
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())

    # ------------------------------------------------------------------
    def submit(self, run_id: str, spec: dict) -> None:
        """Durably journal one accepted submission (fsync before return).

        Fires the armed service faults for this submission ordinal:
        ``disk_full`` raises ``OSError(ENOSPC)`` without writing,
        ``torn_tail`` writes half the record and exits the daemon.
        """
        ordinal = self.submits
        self.submits += 1
        if self.faults is not None and self.faults.arm("disk_full", ordinal):
            raise OSError(
                errno.ENOSPC,
                "injected disk-full on journal append (submission %d)"
                % ordinal,
            )
        record = {
            "kind": "submit",
            "run_id": run_id,
            "digest": spec_digest(spec),
            "spec": spec,
            "ts": time.time(),
        }
        if self.faults is not None and self.faults.arm("torn_tail", ordinal):
            self._append(record, partial=True)
            os._exit(1)  # power loss mid-write
        self._append(record)

    def done(self, run_id: str) -> None:
        """Journal a run's completion (replay will skip it)."""
        self._append({"kind": "done", "run_id": run_id, "ts": time.time()})

    # ------------------------------------------------------------------
    def records(self) -> list[dict]:
        """All parseable journal records, torn tail tolerated."""
        return read_jsonl(self.path)

    def replay(self) -> tuple[list[JournalEntry], set[str]]:
        """Reconstruct ``(entries, done_ids)`` from the journal.

        ``entries`` holds every journaled submission in first-seen
        order, each flagged ``done`` when a completion record exists;
        pending work is ``[e for e in entries if not e.done]``.  The
        count of ``submit`` records seen also primes :attr:`submits` so
        per-ordinal faults do not re-address old submissions after a
        restart (one-shot trip markers guard that independently).
        """
        entries: dict[str, JournalEntry] = {}
        done_ids: set[str] = set()
        submits = 0
        for record in self.records():
            kind = record.get("kind")
            if kind == "submit":
                submits += 1
                run_id = record.get("run_id")
                spec = record.get("spec")
                if not isinstance(run_id, str) or not isinstance(spec, dict):
                    continue
                if run_id in entries:
                    entries[run_id].duplicates += 1
                    continue
                entries[run_id] = JournalEntry(
                    run_id=run_id,
                    spec=spec,
                    digest=record.get("digest") or spec_digest(spec),
                    submitted_at=float(record.get("ts") or 0.0),
                )
            elif kind == "done":
                run_id = record.get("run_id")
                if isinstance(run_id, str):
                    done_ids.add(run_id)
        for run_id in done_ids:
            if run_id in entries:
                entries[run_id].done = True
        self.submits = max(self.submits, submits)
        return list(entries.values()), done_ids
