"""Trace containers.

``TraceBuffer`` is the append-side API used by workloads while they
execute; ``Trace`` is the finalized, array-backed form consumed by the
simulator.  Array backing (rather than a list of objects) keeps replay of
hundreds of thousands of references fast enough for pure Python.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .record import NO_DEP, DataType, MemRef

__all__ = ["Trace", "TraceBuffer", "TraceFull"]


#: dtypes of the finalized ``addr``, ``kind``, ``is_load``, ``dep`` and
#: ``gap`` arrays, in that order.
_COLUMN_DTYPES = (np.int64, np.int8, np.bool_, np.int64, np.int32)


class TraceFull(RuntimeError):
    """Raised by :meth:`TraceBuffer.append` when the capacity cap is hit.

    Workload drivers catch this to stop tracing once the configured
    instruction budget is reached (the paper similarly simulates a fixed
    600 M-instruction region of interest).
    """


@dataclass
class Trace:
    """A finalized memory trace.

    All arrays are parallel and indexed by reference position:

    * ``addr``  (int64)  — virtual byte addresses,
    * ``kind``  (int8)   — :class:`DataType` values,
    * ``is_load`` (bool) — load vs. store,
    * ``dep``   (int64)  — producer-load index or ``NO_DEP``,
    * ``gap``   (int32)  — non-memory instructions before each reference.

    ``phases`` carries workload phase markers as ``(ref_index, label)``
    pairs sorted by index: the phase named ``label`` begins at reference
    ``ref_index`` (which may equal ``len(trace)`` for a boundary hit
    exactly when the budget ran out).  Markers annotate the trace only —
    they never affect replay, so simulation results are independent of
    their presence.
    """

    addr: np.ndarray
    kind: np.ndarray
    is_load: np.ndarray
    dep: np.ndarray
    gap: np.ndarray
    name: str = "trace"
    core: int = 0
    phases: list[tuple[int, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        lengths = {
            len(self.addr),
            len(self.kind),
            len(self.is_load),
            len(self.dep),
            len(self.gap),
        }
        if len(lengths) != 1:
            raise ValueError("trace arrays must be parallel")
        last = -1
        for index, label in self.phases:
            if not (0 <= index <= len(self.addr)):
                raise ValueError(
                    "phase %r at index %d outside trace of %d refs"
                    % (label, index, len(self.addr))
                )
            if index < last:
                raise ValueError("phase markers must be sorted by index")
            last = index

    def __len__(self) -> int:
        return len(self.addr)

    @property
    def num_refs(self) -> int:
        """Number of memory references."""
        return len(self.addr)

    @property
    def num_instructions(self) -> int:
        """Total instruction count: memory refs plus interleaved gaps."""
        return int(self.gap.sum()) + len(self.addr)

    @property
    def num_loads(self) -> int:
        """Number of load references."""
        return int(self.is_load.sum())

    def ref(self, i: int) -> MemRef:
        """Materialize reference ``i`` as a :class:`MemRef` object."""
        return MemRef(
            index=i,
            addr=int(self.addr[i]),
            kind=DataType(int(self.kind[i])),
            is_load=bool(self.is_load[i]),
            dep=int(self.dep[i]),
            gap=int(self.gap[i]),
        )

    def refs(self):
        """Iterate over all references as :class:`MemRef` objects (slow path)."""
        for i in range(len(self)):
            yield self.ref(i)

    def slice(self, start: int, stop: int) -> "Trace":
        """A sub-trace over ``[start, stop)`` with dependencies re-based.

        Dependencies pointing before ``start`` are cleared to ``NO_DEP``
        since their producers fall outside the sub-trace.
        """
        dep = self.dep[start:stop].copy()
        dep = np.where(dep >= start, dep - start, NO_DEP)
        return Trace(
            self.addr[start:stop].copy(),
            self.kind[start:stop].copy(),
            self.is_load[start:stop].copy(),
            dep,
            self.gap[start:stop].copy(),
            name="%s[%d:%d]" % (self.name, start, stop),
            core=self.core,
            phases=[
                (index - start, label)
                for index, label in self.phases
                if start <= index <= stop
            ],
        )


class TraceBuffer:
    """Append-side trace builder used by the workload layer.

    Parameters
    ----------
    capacity:
        Maximum number of references to record; ``append`` and ``extend``
        raise :class:`TraceFull` beyond it.  ``None`` means unbounded.
    skip:
        Number of leading references to *discard* before recording starts
        (warm-up skipping, like the paper's region-of-interest entry after
        running the setup phase in cache-warming mode).  Indices returned
        by ``append`` remain consistent for dependency threading across
        the skip boundary; dependencies on skipped references are cleared
        at :meth:`finalize`.
    name:
        Name attached to the finalized :class:`Trace`.
    """

    def __init__(
        self,
        capacity: int | None = None,
        name: str = "trace",
        core: int = 0,
        skip: int = 0,
    ):
        if capacity is not None and capacity < 0:
            raise ValueError("capacity must be non-negative")
        if skip < 0:
            raise ValueError("skip must be non-negative")
        self.capacity = capacity
        self.skip = skip
        self.name = name
        self.core = core
        self._appended = 0  # virtual index counter, includes skipped refs
        # Recorded references live in column blocks (one array per
        # finalized column) followed by per-reference lists that
        # ``append`` grows; ``extend`` moves the lists into a block first,
        # so recording order is kept.  ``_list_capacity`` is what the
        # lists may still take (``capacity`` less the blocks), so the
        # per-reference ``full`` check costs what it did without blocks.
        self._blocks: list[tuple[np.ndarray, ...]] = []
        self._in_blocks = 0
        self._list_capacity = capacity
        self._addr: list[int] = []
        self._kind: list[int] = []
        self._is_load: list[bool] = []
        self._dep: list[int] = []
        self._gap: list[int] = []
        self._phases: list[tuple[int, str]] = []

    def __len__(self) -> int:
        return self._in_blocks + len(self._addr)

    @property
    def full(self) -> bool:
        """Whether the capacity cap has been reached."""
        return (
            self._list_capacity is not None
            and len(self._addr) >= self._list_capacity
        )

    @property
    def next_index(self) -> int:
        """Virtual index the next appended reference receives."""
        return self._appended

    def append(
        self,
        addr: int,
        kind: DataType,
        is_load: bool = True,
        dep: int = NO_DEP,
        gap: int = 0,
    ) -> int:
        """Record one reference; returns its (virtual) trace index.

        The returned index is what later references pass as ``dep`` to
        express a load→load dependency on this reference.
        """
        if self.full:
            raise TraceFull(self.name)
        v = self._appended
        if dep != NO_DEP and not (0 <= dep < v):
            raise ValueError("dep %d out of range for index %d" % (dep, v))
        self._appended += 1
        if v < self.skip:
            return v
        self._addr.append(addr)
        self._kind.append(int(kind))
        self._is_load.append(bool(is_load))
        self._dep.append(dep)
        self._gap.append(gap)
        return v

    def extend(
        self,
        addr: np.ndarray,
        kind: np.ndarray,
        is_load: np.ndarray,
        dep: np.ndarray,
        gap: np.ndarray,
    ) -> None:
        """Record a block of references, exactly as ``append`` would one by one.

        The parallel arrays give each reference's address, kind, load
        flag, virtual dependency index and gap; the block's references
        take the virtual indices ``next_index, next_index + 1, ...``.
        The per-reference rules apply in order: a reference raises
        :class:`TraceFull` when the buffer is full (at once when the
        capacity is 0, even inside the skip window), then ``ValueError``
        when its dependency does not point to an earlier reference;
        references still inside the skip window are counted but not
        recorded.  On either error the references before the offending
        one stay recorded, as they would after single appends.
        """
        columns = tuple(
            np.asarray(column, dtype=dtype)
            for column, dtype in zip((addr, kind, is_load, dep, gap), _COLUMN_DTYPES)
        )
        count = len(columns[0])
        if any(len(column) != count for column in columns):
            raise ValueError("block arrays must be parallel")
        first = self._appended
        skipped = max(self.skip - first, 0)
        stop, error = count, None
        if self.capacity is not None:
            room = self.capacity - len(self)
            fits = skipped + room if room else 0
            if fits < count:
                stop, error = fits, TraceFull(self.name)
        dep = columns[3]
        bad = np.flatnonzero(
            (dep != NO_DEP) & ((dep < 0) | (dep >= np.arange(first, first + count)))
        )
        if len(bad) and bad[0] < stop:
            stop = int(bad[0])
            error = ValueError(
                "dep %d out of range for index %d" % (dep[stop], first + stop)
            )
        self._appended = first + stop
        if skipped < stop:
            if self._addr:
                self._add_block(self._list_columns())
                for values in self._lists():
                    values.clear()
            self._add_block(tuple(column[skipped:stop].copy() for column in columns))
        if error is not None:
            raise error

    def _lists(self) -> tuple[list, ...]:
        return (self._addr, self._kind, self._is_load, self._dep, self._gap)

    def _list_columns(self) -> tuple[np.ndarray, ...]:
        """The per-reference lists as finalized column arrays."""
        return tuple(
            np.array(values, dtype=dtype)
            for values, dtype in zip(self._lists(), _COLUMN_DTYPES)
        )

    def _add_block(self, columns: tuple[np.ndarray, ...]) -> None:
        self._blocks.append(columns)
        self._in_blocks += len(columns[0])
        if self._list_capacity is not None:
            self._list_capacity -= len(columns[0])

    def load(self, addr: int, kind: DataType, dep: int = NO_DEP, gap: int = 0) -> int:
        """Shorthand for recording a load."""
        return self.append(addr, kind, is_load=True, dep=dep, gap=gap)

    def store(self, addr: int, kind: DataType, dep: int = NO_DEP, gap: int = 0) -> int:
        """Shorthand for recording a store."""
        return self.append(addr, kind, is_load=False, dep=dep, gap=gap)

    def mark_phase(self, label: str) -> None:
        """Mark a workload phase boundary starting at the next reference.

        Markers hit while still inside the warm-up skip window all land
        at recorded index 0; :meth:`finalize` keeps only the last of any
        same-index run, so the trace starts in the correct phase without
        a pile of zero-length warm-up phases.
        """
        self._phases.append((len(self), str(label)))

    def finalize(self) -> Trace:
        """Freeze into an array-backed :class:`Trace`.

        Virtual dependency indices are rebased past the skip window;
        dependencies on skipped (unrecorded) references become NO_DEP.
        """
        columns = self._list_columns()
        if self._blocks:
            columns = tuple(
                np.concatenate([block[i] for block in self._blocks] + [column])
                for i, column in enumerate(columns)
            )
        addr, kind, is_load, dep, gap = columns
        if self.skip:
            dep = np.where(dep >= self.skip, dep - self.skip, NO_DEP)
        phases: list[tuple[int, str]] = []
        for index, label in self._phases:
            if phases and phases[-1][0] == index:
                phases[-1] = (index, label)  # keep-last on same-index runs
            else:
                phases.append((index, label))
        return Trace(
            addr=addr,
            kind=kind,
            is_load=is_load,
            dep=dep,
            gap=gap,
            name=self.name,
            core=self.core,
            phases=phases,
        )
