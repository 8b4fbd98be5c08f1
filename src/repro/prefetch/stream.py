"""Stream prefetcher with per-page trackers (paper Table V "L2 streamer").

Implements the conventional streamer of Srinath et al. [53] §2.1 as the
paper configures it: 64 concurrent streams, prefetch distance 16 lines,
allocation on miss, two further same-direction misses to confirm a
stream, stop at the 4 KB page boundary.

The conventional streamer snoops *all* L1 miss addresses — which is
exactly its weakness for graphs (paper §V-B1): random property and
intermediate misses burn trackers and emit useless prefetches.  The
data-aware variant (:class:`DataAwareStreamer`) trains only on
structure-tagged requests.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..trace.record import DataType
from .base import PAGE_SIZE_LINES, Prefetcher

__all__ = ["StreamPrefetcher", "DataAwareStreamer", "StreamTracker"]


@dataclass(slots=True)
class StreamTracker:
    """Tracking state for one candidate/confirmed stream (one page)."""

    page: int
    last_line: int
    direction: int = 0  # +1 ascending, -1 descending, 0 undetermined
    confidence: int = 0
    active: bool = False
    next_prefetch: int = 0  # next line to prefetch once active


class StreamPrefetcher(Prefetcher):
    """Conventional multi-stream prefetcher: trains on every miss."""

    name = "stream"

    def __init__(
        self,
        num_streams: int = 64,
        distance: int = 16,
        degree: int = 4,
        confirm: int = 2,
        page_lines: int = PAGE_SIZE_LINES,
    ):
        if min(num_streams, distance, degree, confirm, page_lines) <= 0:
            raise ValueError("streamer parameters must be positive")
        self.num_streams = num_streams
        self.distance = distance
        self.degree = degree
        self.confirm = confirm
        self.page_lines = page_lines
        #: Trackers by page in LRU order (first key least recently used).
        self._trackers: dict[int, StreamTracker] = {}
        self.tracker_allocations = 0
        self.tracker_evictions = 0

    # ------------------------------------------------------------------
    def _allocate(self, page: int, line: int) -> StreamTracker:
        """Start tracking ``page``, which has no tracker yet.

        A full table evicts its LRU tracker and reuses the record for
        the new page, so in steady state a miss allocates nothing.
        """
        trackers = self._trackers
        self.tracker_allocations += 1
        if len(trackers) >= self.num_streams:
            tracker = trackers.pop(next(iter(trackers)))
            self.tracker_evictions += 1
            tracker.page = page
            tracker.last_line = line
            tracker.direction = 0
            tracker.confidence = 0
            tracker.active = False
            tracker.next_prefetch = 0
        else:
            tracker = StreamTracker(page, line)
        trackers[page] = tracker
        return tracker

    def _advance(self, tracker: StreamTracker, line: int) -> list[int]:
        """Train/advance a tracker on a new access to its page."""
        step = line - tracker.last_line
        if step == 0:
            return []
        direction = 1 if step > 0 else -1
        if not tracker.active:
            if tracker.direction == direction:
                tracker.confidence += 1
            else:
                tracker.direction = direction
                tracker.confidence = 1
            tracker.last_line = line
            if tracker.confidence >= self.confirm:
                tracker.active = True
                tracker.next_prefetch = line + direction
            else:
                return []
        tdir = tracker.direction
        if tdir > 0:
            if line > tracker.last_line:
                tracker.last_line = line
        elif line < tracker.last_line:
            tracker.last_line = line
        # Issue up to `degree` lines, staying within `distance` of the
        # demand and inside the page.
        out: list[int] = []
        nxt = tracker.next_prefetch
        if tdir > 0:
            # Highest line issueable: within `distance` of the demand and
            # strictly inside the page.
            hi = line + self.distance
            page_last = (tracker.page + 1) * self.page_lines - 1
            if page_last < hi:
                hi = page_last
            stop = nxt + self.degree
            if stop > hi + 1:
                stop = hi + 1
            if stop > nxt:
                out.extend(range(nxt, stop))
                tracker.next_prefetch = stop
        else:
            lo = line - self.distance
            page_first = tracker.page * self.page_lines
            if page_first > lo:
                lo = page_first
            stop = nxt - self.degree
            if stop < lo - 1:
                stop = lo - 1
            if stop < nxt:
                out.extend(range(nxt, stop, -1))
                tracker.next_prefetch = stop
        return out

    # ------------------------------------------------------------------
    def observe_miss(
        self, line: int, kind: DataType, is_structure: bool, core: int
    ) -> list[int]:
        """Allocate/train the page's tracker; emit prefetches when live."""
        if self.trains_structure_only and not is_structure:
            return []
        page = line // self.page_lines
        trackers = self._trackers
        tracker = trackers.pop(page, None)
        if tracker is None:
            self._allocate(page, line)
            return []
        trackers[page] = tracker
        return self._advance(tracker, line)

    def observe_hit(
        self, line: int, kind: DataType, is_structure: bool, core: int
    ) -> list[int]:
        """Advance a confirmed stream on a hit at the attachment level."""
        # Hits to already-prefetched lines keep confirmed streams running
        # (prefetched lines hit in L2, so misses alone would starve the
        # stream); training misses are still required to confirm.
        if self.trains_structure_only and not is_structure:
            return []
        page = line // self.page_lines
        trackers = self._trackers
        tracker = trackers.get(page)
        if tracker is None or not tracker.active:
            return []
        trackers[page] = trackers.pop(page)
        return self._advance(tracker, line)

    def reset(self) -> None:
        """Drop all trackers."""
        self._trackers.clear()

    @property
    def live_trackers(self) -> int:
        """Number of currently allocated trackers."""
        return len(self._trackers)


class DataAwareStreamer(StreamPrefetcher):
    """DROPLET's structure-only streamer (paper §V-B2).

    Trains exclusively on requests whose page-table structure bit is set,
    so every tracker serves the one data type that actually streams.
    """

    name = "dstream"
    trains_structure_only = True
