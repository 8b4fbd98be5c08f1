"""Point-level leases: multi-host execution over shared storage.

``repro serve`` processes sharing one ledger root (same host or several
hosts on shared storage) partition work by claiming *leases* on point
keys.  A lease is a small JSON file under ``<root>/leases/`` updated
under ``flock``: whoever holds a fresh lease executes the point,
everyone else defers.  Liveness comes from heartbeats — a holder
refreshes its lease's timestamp while executing — and safety from
*epochs*: a takeover of a stale lease bumps a monotonic epoch counter,
so the original holder's next heartbeat detects the steal (its epoch is
no longer current) and it abandons the point rather than double-write.

Lifecycle of one lease file::

    acquire() ── heartbeat() … ──► release("done" | "failed")
        │
        └─ (holder dies) … ttl passes … acquire() by another worker
                                          → epoch += 1, takeover=True

Lease files are *advisory coordination*, not the durability record —
results live in the :class:`~repro.runtime.ledger.RunLedger`, and a
lost leases directory merely costs re-execution.  Writes are therefore
plain ``flock``-guarded replaces without fsync.

The directory doubles as the home of tiny ``O_EXCL`` *once-markers*
(:meth:`LeaseManager.once`) used by cooperating processes to elect a
single writer for shared records (a run's ``run`` and ``finish``
ledger records, its journal ``done`` line).
"""

from __future__ import annotations

import errno
import json
import os
import socket
import time
from dataclasses import dataclass
from pathlib import Path

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

__all__ = ["Lease", "LeaseManager", "LEASE_DIR", "DEFAULT_TTL"]

#: Subdirectory of the ledger root holding lease files and once-markers.
LEASE_DIR = "leases"

#: Seconds without a heartbeat before a lease is considered stale.
DEFAULT_TTL = 30.0


@dataclass
class Lease:
    """A successfully acquired claim on one point key."""

    key: str
    owner: str
    epoch: int
    #: True when this acquisition displaced a stale previous holder.
    takeover: bool = False


def default_owner() -> str:
    """``host:pid`` — unique per serve process, stable for its lifetime."""
    return "%s:%d" % (socket.gethostname(), os.getpid())


class LeaseManager:
    """flock-guarded lease files under ``<root>/leases/``.

    One instance per serve process; ``owner`` identifies it in lease
    files (defaults to ``host:pid``).  All mutations take an exclusive
    ``flock`` on the lease file itself, so read-modify-write cycles are
    atomic across processes and hosts sharing the filesystem.
    """

    def __init__(
        self,
        root: str | Path,
        owner: str | None = None,
        ttl: float = DEFAULT_TTL,
    ):
        self.root = Path(root) / LEASE_DIR
        self.owner = owner or default_owner()
        self.ttl = float(ttl)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.root / (key + ".lease")

    @staticmethod
    def _read(handle) -> dict:
        handle.seek(0)
        raw = handle.read()
        if not raw:
            return {}
        try:
            record = json.loads(raw)
        except ValueError:
            return {}  # torn write by a dying holder: treat as vacant
        return record if isinstance(record, dict) else {}

    @staticmethod
    def _write(handle, record: dict) -> None:
        handle.seek(0)
        handle.truncate()
        handle.write(json.dumps(record, separators=(",", ":"), sort_keys=True))
        handle.flush()

    def _locked(self, key: str):
        """Open the lease file and take an exclusive flock on it."""
        path = self._path(key)
        handle = open(path, "a+", encoding="utf-8")
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        return handle

    # ------------------------------------------------------------------
    def acquire(self, key: str) -> Lease | None:
        """Try to claim ``key``; ``None`` when another holder is live.

        Vacant keys (no file, or a released/empty record) are claimed at
        the recorded epoch + 1.  A lease whose heartbeat is older than
        ``ttl`` is *stale*: it is taken over with a bumped epoch and the
        returned lease carries ``takeover=True`` so callers can count
        ``service.lease_takeovers``.  Leases already released as
        ``done``/``failed`` are never reacquired — the point finished.
        """
        now = time.time()
        with self._locked(key) as handle:
            record = self._read(handle)
            state = record.get("state")
            if state in ("done", "failed"):
                return None
            epoch = int(record.get("epoch") or 0)
            takeover = False
            if state == "held":
                if record.get("owner") == self.owner:
                    pass  # re-acquisition by the same process
                elif now - float(record.get("beat") or 0.0) < self.ttl:
                    return None  # live foreign holder
                else:
                    takeover = True
            self._write(
                handle,
                {
                    "key": key,
                    "state": "held",
                    "owner": self.owner,
                    "epoch": epoch + 1,
                    "beat": now,
                    "since": now,
                },
            )
        return Lease(key=key, owner=self.owner, epoch=epoch + 1,
                     takeover=takeover)

    def heartbeat(self, lease: Lease) -> bool:
        """Refresh ``lease``; ``False`` means it was stolen — abandon.

        A ``False`` return is the losing side of a takeover (or an
        injected ``lease_steal`` fault): some other worker holds a
        higher epoch, so this process must stop writing results for the
        point and let the new holder finish it.
        """
        with self._locked(lease.key) as handle:
            record = self._read(handle)
            if (
                record.get("owner") != lease.owner
                or int(record.get("epoch") or 0) != lease.epoch
                or record.get("state") != "held"
            ):
                return False
            record["beat"] = time.time()
            self._write(handle, record)
        return True

    def release(
        self, lease: Lease, state: str = "released",
        error_kind: str | None = None, extra: dict | None = None,
    ) -> bool:
        """Close out ``lease`` as ``done``/``failed``/``released``.

        ``done``/``failed`` are terminal (peers treat the point as
        settled and never reacquire); ``released`` returns the key to
        the vacant pool.  ``extra`` fields are merged into the record —
        the service stores the settling run's id there so peers can
        locate the result in that run's ledger.  ``False`` means the
        lease was stolen first and nothing was written.
        """
        with self._locked(lease.key) as handle:
            record = self._read(handle)
            if (
                record.get("owner") != lease.owner
                or int(record.get("epoch") or 0) != lease.epoch
            ):
                return False
            record["state"] = state
            record["beat"] = time.time()
            if error_kind is not None:
                record["error_kind"] = error_kind
            if extra:
                record.update(extra)
            self._write(handle, record)
        return True

    def peek(self, key: str) -> dict:
        """Current lease record for ``key`` (``{}`` when vacant).

        Lock-free read: callers only use it for scheduling hints
        (defer vs execute) and settled-state detection, both of which
        tolerate a stale snapshot.
        """
        try:
            raw = self._path(key).read_text()
        except OSError:
            return {}
        try:
            record = json.loads(raw)
        except ValueError:
            return {}
        return record if isinstance(record, dict) else {}

    def steal(self, key: str, owner: str = "chaos:0") -> bool:
        """Forcibly reassign ``key`` to ``owner`` with a bumped epoch.

        Test/chaos hook implementing the ``lease_steal`` service fault:
        the current holder's next :meth:`heartbeat` returns ``False``.
        """
        with self._locked(key) as handle:
            record = self._read(handle)
            if record.get("state") != "held":
                return False
            record["owner"] = owner
            record["epoch"] = int(record.get("epoch") or 0) + 1
            record["beat"] = time.time()
            self._write(handle, record)
        return True

    # ------------------------------------------------------------------
    def once(self, name: str) -> bool:
        """Elect a single writer for a shared record (``O_EXCL`` marker).

        ``True`` exactly once per ``name`` across every process sharing
        the ledger root — the winner writes the shared record (``run``
        or ``finish`` ledger record, journal ``done`` line), everyone else
        skips.  Markers persist across restarts, which is what keeps a
        recovered daemon from re-writing records it already wrote
        before a crash.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(
                self.root / (name + ".once"),
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
        except FileExistsError:
            return False
        except OSError as exc:  # pragma: no cover - exotic filesystems
            if exc.errno == errno.EEXIST:
                return False
            raise
        os.close(fd)
        return True
