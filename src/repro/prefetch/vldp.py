"""Variable Length Delta Prefetcher (Shevgoor et al. [38]).

VLDP keeps per-page delta histories (Delta History Buffer, DHB), an
Offset Prediction Table (OPT) predicting the first delta of a fresh page
from the offset of its first access, and cascaded Delta Prediction
Tables (DPTs) keyed by delta histories of increasing length — longer
histories take precedence, which is VLDP's defining feature.

Configured per the paper's Table V: 64 DHB pages, 64-entry OPT, three
cascaded 64-entry DPTs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..trace.record import DataType
from .base import PAGE_SIZE_LINES, Prefetcher

__all__ = ["VLDPPrefetcher"]


@dataclass
class _DHBEntry:
    last_offset: int
    history: list[int] = field(default_factory=list)  # most recent last


class _LRUTable:
    """Bounded LRU mapping used for the OPT and each DPT.

    Values are never ``None``; the table is in LRU order (first key
    least recently used).
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._table: dict = {}

    def get(self, key):
        """LRU-refreshing lookup; None when absent."""
        table = self._table
        value = table.pop(key, None)
        if value is not None:
            table[key] = value
        return value

    def put(self, key, value) -> None:
        """Insert/update, evicting the LRU entry beyond capacity."""
        table = self._table
        table.pop(key, None)
        table[key] = value
        if len(table) > self.capacity:
            del table[next(iter(table))]

    def __len__(self) -> int:
        return len(self._table)


class VLDPPrefetcher(Prefetcher):
    """Cascaded-table variable length delta prefetcher."""

    name = "vldp"

    def __init__(
        self,
        dhb_pages: int = 64,
        opt_size: int = 64,
        dpt_size: int = 64,
        num_dpts: int = 3,
        degree: int = 4,
        page_lines: int = PAGE_SIZE_LINES,
    ):
        if min(dhb_pages, opt_size, dpt_size, num_dpts, degree, page_lines) <= 0:
            raise ValueError("VLDP parameters must be positive")
        self.page_lines = page_lines
        self.degree = degree
        self.num_dpts = num_dpts
        #: Per-page histories in LRU order (first key least recently used).
        self._dhb: dict[int, _DHBEntry] = {}
        self.dhb_pages = dhb_pages
        self._opt = _LRUTable(opt_size)
        self._dpts = [_LRUTable(dpt_size) for _ in range(num_dpts)]

    # ------------------------------------------------------------------
    def _predict_next_delta(self, history: list[int]) -> int | None:
        """Cascade lookup: longest matching history wins."""
        for length in range(min(self.num_dpts, len(history)), 0, -1):
            key = tuple(history[-length:])
            pred = self._dpts[length - 1].get(key)
            if pred is not None:
                return pred
        return None

    def _train_dpts(self, history: list[int], delta: int) -> None:
        for length in range(1, min(self.num_dpts, len(history)) + 1):
            key = tuple(history[-length:])
            self._dpts[length - 1].put(key, delta)

    def _chain_predictions(self, offset: int, page: int, history: list[int]) -> list[int]:
        """Walk predicted deltas up to ``degree``, staying in the page."""
        out: list[int] = []
        h = list(history)
        current = offset
        for _ in range(self.degree):
            delta = self._predict_next_delta(h)
            if delta is None or delta == 0:
                break
            current += delta
            if not (0 <= current < self.page_lines):
                break
            out.append(page * self.page_lines + current)
            h.append(delta)
        return out

    def observe_miss(
        self, line: int, kind: DataType, is_structure: bool, core: int
    ) -> list[int]:
        """Train per-page delta history and chase cascade predictions."""
        page, offset = divmod(line, self.page_lines)
        dhb = self._dhb
        entry = dhb.pop(page, None)
        if entry is None:
            # Fresh page: consult the OPT for a first-delta guess.
            dhb[page] = _DHBEntry(last_offset=offset)
            if len(dhb) > self.dhb_pages:
                del dhb[next(iter(dhb))]
            first_delta = self._opt.get(offset)
            if first_delta:
                target = offset + first_delta
                if 0 <= target < self.page_lines:
                    return [page * self.page_lines + target]
            return []
        dhb[page] = entry
        delta = offset - entry.last_offset
        if delta == 0:
            return []
        if not entry.history:
            # Second access to the page trains the OPT.
            self._opt.put(entry.last_offset, delta)
        if entry.history:
            self._train_dpts(entry.history, delta)
        entry.history.append(delta)
        if len(entry.history) > self.num_dpts:
            entry.history = entry.history[-self.num_dpts :]
        entry.last_offset = offset
        return self._chain_predictions(offset, page, entry.history)

    def reset(self) -> None:
        """Clear the DHB, OPT and all DPTs."""
        self._dhb.clear()
        self._opt = _LRUTable(self._opt.capacity)
        self._dpts = [_LRUTable(d.capacity) for d in self._dpts]
