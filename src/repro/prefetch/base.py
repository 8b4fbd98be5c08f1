"""Prefetcher framework.

A prefetcher observes the demand-miss stream at its attachment point (for
the paper's L2 prefetchers: all L1 miss addresses, plus L2-hit feedback)
and returns candidate prefetch line numbers.  Issue-side concerns —
timeliness, fills, bandwidth, accuracy accounting — are shared machinery
in :class:`~repro.prefetch.stats.PrefetchLedger` and the machine.
"""

from __future__ import annotations

import abc

from ..trace.record import DataType

__all__ = ["Prefetcher", "NullPrefetcher", "PAGE_SIZE_LINES"]

#: Lines per 4 KB page with 64 B lines; streamers stop at page boundaries.
PAGE_SIZE_LINES = 64


class Prefetcher(abc.ABC):
    """Base class for miss-stream-trained prefetchers."""

    name: str = "prefetcher"
    #: Whether :meth:`observe_miss` returns ``[]`` for every miss not
    #: tagged structure, without training; the batch-replay loop then
    #: skips the call for those misses.
    trains_structure_only: bool = False

    @abc.abstractmethod
    def observe_miss(
        self, line: int, kind: DataType, is_structure: bool, core: int
    ) -> list[int]:
        """React to a demand miss; return candidate prefetch lines."""

    def observe_hit(
        self, line: int, kind: DataType, is_structure: bool, core: int
    ) -> list[int]:
        """React to a cache hit at the attachment level (default: ignore)."""
        return []

    def reset(self) -> None:
        """Clear all training state (default: no state)."""

    def register_telemetry(self, registry, prefix: str) -> None:
        """Expose internal training state (default: nothing to expose).

        Issue/usefulness accounting lives in the shared
        :class:`~repro.prefetch.stats.PrefetchLedger`; prefetchers with
        interesting internal state (stream tables, confidence counters)
        override this.
        """


class NullPrefetcher(Prefetcher):
    """The no-prefetch baseline."""

    name = "none"

    def observe_miss(
        self, line: int, kind: DataType, is_structure: bool, core: int
    ) -> list[int]:
        """Never prefetch."""
        return []
