"""TLB model with LRU replacement and structure-bit caching.

Core-side TLBs copy the page table's structure bit into their entries so
the L1D controller can tag structure requests (paper Fig. 9(b), step 1).
The same class backs DROPLET's near-memory MTLB, which caches only
*property* mappings and participates in a filtered shootdown protocol
(Section V-C3) implemented in :mod:`repro.droplet.mtlb`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .pagetable import PageFault, PageTable

__all__ = ["TLB", "TLBStats"]


@dataclass
class TLBStats:
    """Hit/miss/page-walk counters."""

    hits: int = 0
    misses: int = 0
    page_walks: int = 0
    faults: int = 0
    invalidations: int = 0

    @property
    def accesses(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hit fraction over all lookups."""
        return self.hits / self.accesses if self.accesses else 0.0

    def register_telemetry(self, registry, prefix: str) -> None:
        """Expose these counters as pull-gauges under ``prefix``."""
        registry.gauge(prefix + ".hits", lambda: self.hits)
        registry.gauge(prefix + ".misses", lambda: self.misses)
        registry.gauge(prefix + ".page_walks", lambda: self.page_walks)
        registry.gauge(prefix + ".faults", lambda: self.faults)
        registry.gauge(prefix + ".invalidations", lambda: self.invalidations)


@dataclass
class _TLBEntry:
    frame: int
    is_structure: bool


class TLB:
    """Fully associative, LRU TLB backed by a :class:`PageTable`.

    Parameters
    ----------
    page_table:
        Backing page table walked on a miss.
    entries:
        Capacity in page entries.
    walk_latency:
        Cycles charged per page walk (returned by :meth:`translate`).
    """

    def __init__(self, page_table: PageTable, entries: int = 64, walk_latency: int = 50):
        if entries <= 0:
            raise ValueError("entries must be positive")
        self.page_table = page_table
        self.capacity = entries
        self.walk_latency = walk_latency
        self.stats = TLBStats()
        #: Entries by page in LRU order (first key least recently used).
        self._cache: dict[int, _TLBEntry] = {}

    def __len__(self) -> int:
        return len(self._cache)

    def translate(self, vaddr: int) -> tuple[int, bool, int]:
        """Translate ``vaddr``; returns ``(paddr, is_structure, latency)``.

        Raises :class:`PageFault` for unmapped addresses (after counting
        the fault).
        """
        page = self.page_table.page_of(vaddr)
        cache = self._cache
        entry = cache.pop(page, None)
        if entry is not None:
            cache[page] = entry
            self.stats.hits += 1
            latency = 0
        else:
            self.stats.misses += 1
            self.stats.page_walks += 1
            try:
                pte = self.page_table.lookup(vaddr)
            except PageFault:
                self.stats.faults += 1
                raise
            entry = _TLBEntry(pte.frame, pte.is_structure)
            cache[page] = entry
            if len(cache) > self.capacity:
                del cache[next(iter(cache))]
            latency = self.walk_latency
        paddr = entry.frame * self.page_table.page_size + vaddr % self.page_table.page_size
        return paddr, entry.is_structure, latency

    def contains(self, vaddr: int) -> bool:
        """Whether ``vaddr``'s page is cached (no LRU update)."""
        return self.page_table.page_of(vaddr) in self._cache

    def cached_structure_bit(self, vaddr: int) -> bool | None:
        """The cached structure bit for ``vaddr``'s page, if present."""
        entry = self._cache.get(self.page_table.page_of(vaddr))
        return entry.is_structure if entry else None

    def invalidate_page(self, page: int) -> bool:
        """Shootdown of one page entry; returns whether it was present."""
        present = self._cache.pop(page, None) is not None
        if present:
            self.stats.invalidations += 1
        return present

    def invalidate_all(self) -> None:
        """Flush the whole TLB."""
        self.stats.invalidations += len(self._cache)
        self._cache.clear()

    def resident_pages(self) -> list[int]:
        """Currently cached page numbers in LRU→MRU order."""
        return list(self._cache)
