"""Trace serialization: save/load annotated traces as ``.npz`` archives.

Trace generation is the slowest part of a study on large graphs; saving
finalized traces lets a sweep re-run machine configurations without
re-tracing.  The format is a plain ``numpy`` archive with the five
parallel arrays plus metadata, so it is stable and readable elsewhere.

Archives are written as ``np.savez_compressed`` writes them, member for
member, but deflated at level 1 rather than zlib's default 6: a store
takes a fraction of the time for a slightly larger file
(``docs/performance.md``, *Storing traces*), and ``np.load`` reads
either level.
"""

from __future__ import annotations

import json
import os
import zipfile
from pathlib import Path

import numpy as np

from .buffer import Trace

__all__ = ["save_trace", "load_trace", "TRACE_FORMAT_VERSION"]

#: Bump when the on-disk layout changes incompatibly.
#: v2 added workload phase markers (``phase_index`` + ``phase_labels``).
TRACE_FORMAT_VERSION = 2


def save_trace(trace: Trace, path: str | Path) -> None:
    """Write ``trace`` to ``path`` (a ``.npz`` archive).

    Like ``np.savez_compressed``, appends ``.npz`` to a path without it.
    """
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    members = {
        "version": np.int64(TRACE_FORMAT_VERSION),
        "addr": trace.addr,
        "kind": trace.kind,
        "is_load": trace.is_load,
        "dep": trace.dep,
        "gap": trace.gap,
        "name": np.bytes_(trace.name.encode()),
        "core": np.int64(trace.core),
        "phase_index": np.array([i for i, _ in trace.phases], dtype=np.int64),
        "phase_labels": np.bytes_(
            json.dumps([label for _, label in trace.phases]).encode()
        ),
    }
    with zipfile.ZipFile(
        path, "w", compression=zipfile.ZIP_DEFLATED, compresslevel=1
    ) as archive:
        for key, value in members.items():
            with archive.open(key + ".npy", "w", force_zip64=True) as member:
                np.lib.format.write_array(
                    member, np.asanyarray(value), allow_pickle=False
                )


def load_trace(path: str | Path) -> Trace:
    """Read a trace written by :func:`save_trace`.

    Raises :class:`ValueError` with a descriptive message when the file
    is truncated, corrupted, or missing required arrays — a sweep over
    cached traces must fail loudly, never deserialize garbage.
    """
    path = Path(path)
    fields = (
        "version",
        "addr",
        "kind",
        "is_load",
        "dep",
        "gap",
        "name",
        "core",
        "phase_index",
        "phase_labels",
    )
    try:
        with np.load(path) as archive:
            data = {key: archive[key] for key in fields}
        labels = json.loads(bytes(data["phase_labels"]).decode())
    except FileNotFoundError:
        raise
    except (
        # np.load raises BadZipFile on mid-file truncation, but plain
        # ValueError ("pickled data") when the magic bytes are gone.
        zipfile.BadZipFile,
        KeyError,
        EOFError,
        OSError,
        ValueError,
        json.JSONDecodeError,
    ) as exc:
        raise ValueError(
            "trace archive %s is truncated or corrupt: %s" % (path, exc)
        ) from exc
    version = int(data["version"])
    if version != TRACE_FORMAT_VERSION:
        raise ValueError(
            "trace %s has format version %d; this build reads %d"
            % (path, version, TRACE_FORMAT_VERSION)
        )
    phases = [
        (int(index), label)
        for index, label in zip(data["phase_index"], labels)
    ]
    return Trace(
        addr=data["addr"],
        kind=data["kind"],
        is_load=data["is_load"],
        dep=data["dep"],
        gap=data["gap"],
        name=bytes(data["name"]).decode(),
        core=int(data["core"]),
        phases=phases,
    )
