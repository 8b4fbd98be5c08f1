"""Content-addressed on-disk cache of finalized workload traces.

Trace generation dominates experiment wall time: every figure driver
re-traces the same (workload, dataset, budget) combinations.  This cache
memoizes finalized traces *across experiments, processes and runs*.

Keying
------
The key is a SHA-256 digest over the trace identity: workload name,
dataset name, graph-generator parameters (``scale_shift``, ``seed``,
weightedness), the reference budget, and the on-disk format versions
(:data:`~repro.trace.io.TRACE_FORMAT_VERSION` and
:data:`CACHE_FORMAT_VERSION`).  Bump :data:`CACHE_FORMAT_VERSION`
whenever tracing semantics change (workload instrumentation, allocator
layout, skip policy) — old entries then simply stop matching.

Integrity
---------
Every entry's sidecar records a SHA-256 checksum of its ``.npz`` payload,
verified on load.  A *corrupt* entry — unreadable archive, malformed
sidecar, checksum mismatch — is moved to ``<root>/quarantine/`` (kept
for post-mortems, counted in :attr:`TraceCache.quarantined`) and
reported as a miss, so the trace regenerates instead of crashing the
sweep.  *Stale* entries (format-version skew, layout-fingerprint
mismatch) are simply deleted as before.  Writers take a per-entry
advisory lock (``<root>/locks/``, ``flock``) around generate-and-store,
so concurrent sweeps on a cold cache trace each workload once instead of
duplicating the work.

Layout reconstruction
---------------------
A cached entry stores the five trace arrays (``.npz``, via
:mod:`repro.trace.io`) plus a JSON sidecar recording every region the
original :class:`~repro.memory.allocator.GraphLayout` held — including
regions workloads allocate *during* tracing (frontier queues, bins).
On load the graph comes from the process-wide graph memo
(:meth:`TraceSpec.graph <repro.runtime.points.TraceSpec.graph>`, built
from its seed only on a memo miss), the base layout is rebuilt, and the
recorded extra regions are replayed through the same bump allocator.
The resulting bases are verified against the recorded ones; any mismatch
(allocator drift, partial write) is treated as a miss and the entry is
dropped.  A cache-loaded :class:`~repro.workloads.base.TraceRun` is
therefore bit-identical to a freshly traced one for simulation purposes
(its ``result`` field — the algorithm's output values — is not retained).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path

try:  # advisory locking is POSIX-only; degrade to unlocked elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from ..memory.allocator import GraphLayout
from ..telemetry import spans as _spans
from ..trace.io import TRACE_FORMAT_VERSION, load_trace, save_trace
from ..trace.record import DataType
from ..workloads.base import TraceRun
from .points import TraceSpec

__all__ = ["TraceCache", "trace_key", "default_cache_root", "CACHE_FORMAT_VERSION"]

#: Bump when tracing semantics change incompatibly (instrumentation,
#: allocator layout, skip policy): old cache entries stop matching.
#: v2 added the mandatory ``npz_sha256`` integrity checksum.
CACHE_FORMAT_VERSION = 2


class _CorruptEntry(RuntimeError):
    """Internal: an entry failed integrity checks (quarantine, regenerate)."""


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()

#: Environment variable overriding the cache directory.  Set it to
#: ``off``, ``0`` or the empty string to disable on-disk caching.
CACHE_ENV_VAR = "REPRO_TRACE_CACHE"

_DISABLED_VALUES = ("", "0", "off", "none", "disabled")


def default_cache_root() -> Path | None:
    """The cache directory: ``$REPRO_TRACE_CACHE`` or ``~/.cache/repro/traces``.

    Returns ``None`` when the environment variable disables caching.
    """
    value = os.environ.get(CACHE_ENV_VAR)
    if value is None:
        return Path.home() / ".cache" / "repro" / "traces"
    if value.strip().lower() in _DISABLED_VALUES:
        return None
    return Path(value).expanduser()


def trace_key(spec: TraceSpec) -> str:
    """Content address of ``spec``: a hex digest stable across processes."""
    identity = dict(spec.key_fields())
    identity["trace_format"] = TRACE_FORMAT_VERSION
    identity["cache_format"] = CACHE_FORMAT_VERSION
    blob = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def _region_records(layout: GraphLayout) -> list[list]:
    """Every allocated region as ``[name, base, size, kind, element_size]``."""
    regions = sorted(layout.space.regions.values(), key=lambda r: r.base)
    return [
        [r.name, r.base, r.size, int(r.kind), r.element_size] for r in regions
    ]


class TraceCache:
    """On-disk trace memoization with hit/miss accounting.

    Parameters
    ----------
    root:
        Cache directory.  ``None`` consults :func:`default_cache_root`;
        pass ``enabled=False`` to disable disk access entirely (every
        lookup misses and nothing is written).
    """

    def __init__(self, root: str | Path | None = None, enabled: bool = True):
        if enabled and root is None:
            root = default_cache_root()
            enabled = root is not None
        self.root = Path(root) if root is not None else None
        self.enabled = bool(enabled and self.root is not None)
        self.hits = 0
        self.misses = 0
        #: Entries moved to quarantine after failing integrity checks.
        self.quarantined = 0

    # ------------------------------------------------------------------
    def _paths(self, key: str) -> tuple[Path, Path]:
        return self.root / (key + ".npz"), self.root / (key + ".json")

    @property
    def quarantine_dir(self) -> Path:
        """Where corrupt entries are preserved for post-mortems."""
        return self.root / "quarantine"

    def _drop(self, key: str) -> None:
        for path in self._paths(key):
            try:
                path.unlink()
            except OSError:
                pass

    def _quarantine(self, key: str) -> None:
        """Move a corrupt entry aside (never crash on a broken cache)."""
        qdir = self.quarantine_dir
        moved = False
        for path in self._paths(key):
            if not path.exists():
                continue
            try:
                qdir.mkdir(parents=True, exist_ok=True)
                os.replace(path, qdir / path.name)
                moved = True
            except OSError:
                try:
                    path.unlink()
                except OSError:
                    pass
        if moved:
            self.quarantined += 1
            trc = _spans.current()
            if trc is not None:
                trc.event("trace_cache.quarantine", key=key)

    @contextmanager
    def _entry_lock(self, key: str):
        """Advisory per-entry lock serializing generate-and-store.

        Concurrent sweeps on a cold cache block here instead of tracing
        the same workload twice; on platforms without ``fcntl`` the lock
        degrades to a no-op (generation is then merely duplicated, and
        atomic write-rename keeps the entry consistent regardless).
        """
        if not self.enabled or fcntl is None:
            yield
            return
        lock_dir = self.root / "locks"
        lock_dir.mkdir(parents=True, exist_ok=True)
        with open(lock_dir / (key + ".lock"), "w") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    # ------------------------------------------------------------------
    def lookup(self, spec: TraceSpec, graph=None) -> TraceRun | None:
        """Load the cached run for ``spec``, or ``None`` on a miss.

        Corrupt entries (unreadable/truncated archive, malformed sidecar,
        checksum mismatch) are quarantined; stale ones (version skew,
        layout-fingerprint mismatch) are deleted.  Both report as misses
        — a broken cache degrades to regeneration, never to a crash.
        """
        if not self.enabled:
            self.misses += 1
            return None
        key = trace_key(spec)
        try:
            run = self._load(key, spec, graph)
        except FileNotFoundError:
            self.misses += 1
            return None
        except _CorruptEntry:
            self._quarantine(key)
            self.misses += 1
            return None
        except Exception:
            self._drop(key)
            self.misses += 1
            return None
        self.hits += 1
        return run

    def _load(self, key: str, spec: TraceSpec, graph) -> TraceRun:
        """Uncounted entry load: raises instead of adjusting hit/miss.

        ``FileNotFoundError`` means a plain miss, :class:`_CorruptEntry`
        means quarantine-and-regenerate, anything else means stale.
        """
        npz_path, meta_path = self._paths(key)
        text = meta_path.read_text()  # FileNotFoundError -> plain miss
        try:
            meta = json.loads(text)
        except ValueError as exc:
            raise _CorruptEntry("malformed sidecar") from exc
        if (
            meta.get("cache_format") != CACHE_FORMAT_VERSION
            or meta.get("trace_format") != TRACE_FORMAT_VERSION
        ):
            raise ValueError("format version skew")
        recorded = meta.get("npz_sha256")
        if not isinstance(recorded, str):
            raise _CorruptEntry("sidecar missing the npz checksum")
        if not npz_path.is_file():
            raise FileNotFoundError(npz_path)
        if _sha256_file(npz_path) != recorded:
            raise _CorruptEntry("npz checksum mismatch")
        try:
            trace = load_trace(npz_path)
        except Exception as exc:
            raise _CorruptEntry("unreadable trace archive") from exc
        return self._rebuild(spec, meta, trace, graph)

    def _rebuild(self, spec: TraceSpec, meta: dict, trace, graph) -> TraceRun:
        """Reconstruct the layout and wrap the trace as a TraceRun."""
        from ..workloads.registry import get_workload

        workload = get_workload(spec.workload)
        if graph is None:
            graph = spec.graph()
        layout = workload.make_layout(graph)
        # Replay regions the workload allocated while tracing, in base
        # order, through the same bump allocator.
        for name, base, size, kind, element_size in meta["regions"]:
            if name not in layout.space.regions:
                layout.space.alloc(name, size, DataType(kind), element_size)
        # Verify the reconstruction is address-exact; anything else would
        # silently skew data-type classification.
        rebuilt = {r.name: r for r in layout.space.regions.values()}
        if len(rebuilt) != len(meta["regions"]):
            raise ValueError("region count mismatch")
        for name, base, size, kind, element_size in meta["regions"]:
            region = rebuilt.get(name)
            if (
                region is None
                or region.base != base
                or region.size != size
                or int(region.kind) != kind
                or region.element_size != element_size
            ):
                raise ValueError("layout fingerprint mismatch for %r" % name)
        return TraceRun(
            workload=spec.workload,
            dataset=spec.dataset,
            trace=trace,
            layout=layout,
            result=None,
            completed=bool(meta["completed"]),
        )

    # ------------------------------------------------------------------
    def store(self, spec: TraceSpec, run: TraceRun) -> None:
        """Persist ``run`` under ``spec``'s key (atomic, last-writer-wins)."""
        if not self.enabled:
            return
        key = trace_key(spec)
        npz_path, meta_path = self._paths(key)
        self.root.mkdir(parents=True, exist_ok=True)
        meta = {
            "cache_format": CACHE_FORMAT_VERSION,
            "trace_format": TRACE_FORMAT_VERSION,
            "key": spec.key_fields(),
            "completed": run.completed,
            "regions": _region_records(run.layout),
        }

        def write_npz(tmp: str) -> None:
            save_trace(run.trace, tmp)
            # Checksum the bytes that actually landed on disk; the rename
            # below publishes exactly this file.
            meta["npz_sha256"] = _sha256_file(Path(tmp))

        # Write-then-rename keeps concurrent writers (parallel sweeps on a
        # cold cache) safe: readers only ever see complete files, and the
        # payload lands before the sidecar that advertises (and checksums)
        # it.
        for path, writer in (
            (npz_path, write_npz),
            (meta_path, lambda tmp: Path(tmp).write_text(json.dumps(meta))),
        ):
            fd, tmp = tempfile.mkstemp(
                dir=self.root, prefix=".tmp-", suffix=path.suffix
            )
            os.close(fd)
            try:
                writer(tmp)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise

    def get_or_trace(self, spec: TraceSpec, graph=None) -> tuple[TraceRun, bool]:
        """Return ``(run, was_cache_hit)``, tracing and storing on a miss.

        On a miss the generate-and-store runs under the entry's advisory
        lock; a second sweep racing on the same cold entry blocks, then
        finds the freshly stored trace on its post-lock re-check instead
        of generating it again.  ``graph`` serves this call only; without
        it the graph comes from :meth:`TraceSpec.graph
        <repro.runtime.points.TraceSpec.graph>`.
        """
        trc = _spans.current()
        run = self.lookup(spec, graph=graph)
        if run is not None:
            if trc is not None:
                trc.event("trace_cache.hit", key=trace_key(spec))
            return run, True
        if not self.enabled:
            return spec.trace(graph=graph), False
        key = trace_key(spec)
        with self._entry_lock(key):
            # Re-check under the lock: a concurrent holder may have
            # stored the entry while we waited.
            try:
                run = self._load(key, spec, graph)
            except Exception:
                run = None
            if run is not None:
                self.hits += 1
                if trc is not None:
                    trc.event("trace_cache.hit", key=key, post_lock=True)
                return run, True
            if trc is None:
                run = spec.trace(graph=graph)
                self.store(spec, run)
            else:
                with trc.span(
                    "trace_cache.generate",
                    key=key,
                    workload=spec.workload,
                    dataset=spec.dataset,
                ):
                    run = spec.trace(graph=graph)
                    self.store(spec, run)
        return run, False

    # ------------------------------------------------------------------
    def clear(self) -> int:
        """Delete every cache entry; returns the number of files removed."""
        if not self.enabled or not self.root.is_dir():
            return 0
        removed = 0
        for path in self.root.iterdir():
            if path.suffix in (".npz", ".json") and not path.name.startswith("."):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def __repr__(self) -> str:
        return (
            "TraceCache(root=%r, enabled=%r, hits=%d, misses=%d, "
            "quarantined=%d)"
            % (
                str(self.root),
                self.enabled,
                self.hits,
                self.misses,
                self.quarantined,
            )
        )
