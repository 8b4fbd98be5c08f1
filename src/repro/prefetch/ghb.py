"""Global History Buffer prefetcher, G/DC variant (Nesbit & Smith [39]).

Global/Delta-Correlation: the global miss stream is stored in a circular
history buffer; an index table keyed by the *delta pair* of the two most
recent global deltas points at the previous occurrence of the same pair.
On a miss, the prefetcher looks up the current delta pair, walks forward
through history from the previous occurrence, and replays the deltas
that followed it.

The paper configures index table size 512 and buffer size 512 (Table V)
and finds GHB the weakest prefetcher for graphs: interleaved structure /
property / intermediate misses destroy delta correlation.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..trace.record import DataType
from .base import Prefetcher

__all__ = ["GHBPrefetcher"]


@dataclass
class _GHBEntry:
    line: int
    prev: int  # index of previous entry with the same key, -1 if none


class GHBPrefetcher(Prefetcher):
    """G/DC global history buffer prefetcher."""

    name = "ghb"

    def __init__(self, index_size: int = 512, buffer_size: int = 512, degree: int = 4):
        if min(index_size, buffer_size, degree) <= 0:
            raise ValueError("GHB parameters must be positive")
        self.index_size = index_size
        self.buffer_size = buffer_size
        self.degree = degree
        self._buffer: list[_GHBEntry | None] = [None] * buffer_size
        self._head = 0  # next write slot
        self._count = 0  # total entries ever written
        #: Delta pair -> newest sequence number, in LRU order.  A full
        #: index drops its oldest pair on most misses, so it is an
        #: ``OrderedDict``: ``popitem(last=False)`` takes constant time,
        #: where a plain dict's first key lies past the dummy slots that
        #: earlier drops left behind.
        self._index: OrderedDict[tuple[int, int], int] = OrderedDict()
        self._last_line: int | None = None
        self._last_delta: int | None = None

    # ------------------------------------------------------------------
    def _slot(self, seq: int) -> _GHBEntry | None:
        if seq < 0 or seq < self._count - self.buffer_size:
            return None  # overwritten or invalid
        return self._buffer[seq % self.buffer_size]

    def _entry_seq_valid(self, seq: int) -> bool:
        return 0 <= seq < self._count and seq >= self._count - self.buffer_size

    def observe_miss(
        self, line: int, kind: DataType, is_structure: bool, core: int
    ) -> list[int]:
        """Record the global delta pair and replay its historical successors."""
        predictions: list[int] = []
        if self._last_line is not None:
            delta = line - self._last_line
            if self._last_delta is not None:
                key = (self._last_delta, delta)
                index = self._index
                prev_seq = index.pop(key, -1)
                # Link the new entry into its key chain and update index.
                seq = self._count
                self._buffer[self._head] = _GHBEntry(line, prev_seq)
                self._head = (self._head + 1) % self.buffer_size
                self._count += 1
                index[key] = seq
                if len(index) > self.index_size:
                    index.popitem(last=False)
                # Predict by replaying the deltas that followed the last
                # occurrence of this delta pair.
                if self._entry_seq_valid(prev_seq):
                    addr = line
                    walk = prev_seq
                    for _ in range(self.degree):
                        nxt = walk + 1
                        if not self._entry_seq_valid(nxt):
                            break
                        here = self._slot(walk)
                        there = self._slot(nxt)
                        if here is None or there is None:
                            break
                        addr += there.line - here.line
                        if addr > 0:
                            predictions.append(addr)
                        walk = nxt
            self._last_delta = delta
        self._last_line = line
        return predictions

    def reset(self) -> None:
        """Clear the history buffer and index table."""
        self._buffer = [None] * self.buffer_size
        self._head = 0
        self._count = 0
        self._index.clear()
        self._last_line = None
        self._last_delta = None
