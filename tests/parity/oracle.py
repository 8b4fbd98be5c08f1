"""Deliberately naive cache oracles.

The production :class:`repro.cache.cache.Cache` is optimized (plain-dict
sets whose touches pop and re-insert, a batched touch API, a fill core
that reuses victim records); :class:`LRUOracle` is the opposite — a
dict-of-dicts transcription of the textbook definition, kept small
enough to audit by eye.  :class:`HierarchyOracle` builds the
inclusive L1/L2/L3 hierarchy of :class:`repro.cache.CacheHierarchy` from
such levels, written from the rules rather than from the production
fill code.  The fuzz suites drive each pair with the same operation
streams and demand identical behaviour.
"""

from __future__ import annotations

__all__ = ["LRUOracle", "LevelOracle", "HierarchyOracle"]


class LRUOracle:
    """Textbook set-associative LRU cache (insertion-ordered dicts)."""

    def __init__(self, num_sets: int, associativity: int):
        self.num_sets = num_sets
        self.associativity = associativity
        # line -> {"dirty": bool, "prefetched": bool}; dict order = LRU
        # order, least recently used first.
        self.sets = [dict() for _ in range(num_sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.prefetch_fills = 0
        self.dirty_evicted: list[int] = []

    def access(self, line: int, store: bool = False) -> bool:
        """Demand access; fills on miss.  Returns True on hit."""
        s = self.sets[line % self.num_sets]
        meta = s.pop(line, None)
        if meta is not None:
            self.hits += 1
            meta["dirty"] = meta["dirty"] or store
            s[line] = meta  # re-append == move to MRU
            return True
        self.misses += 1
        self.fill(line, dirty=store)
        return False

    def fill(
        self, line: int, dirty: bool = False, prefetched: bool = False, kind: int = 0
    ):
        """Install ``line``; returns the evicted (line, meta) if any."""
        s = self.sets[line % self.num_sets]
        meta = s.pop(line, None)
        if meta is not None:  # already resident: refresh LRU, merge dirty
            meta["dirty"] = meta["dirty"] or dirty
            s[line] = meta
            return None
        victim = None
        if len(s) >= self.associativity:
            vline = next(iter(s))  # oldest entry = LRU victim
            vmeta = s.pop(vline)
            self.evictions += 1
            if vmeta["dirty"]:
                self.dirty_evicted.append(vline)
            victim = (vline, vmeta)
        s[line] = {"dirty": dirty, "prefetched": prefetched, "kind": kind, "used": False}
        if prefetched:
            self.prefetch_fills += 1
        return victim

    def invalidate(self, line: int):
        """Back-invalidate ``line``; returns its metadata if resident."""
        return self.sets[line % self.num_sets].pop(line, None)

    def lru_order(self, set_index: int) -> list[int]:
        """Lines of one set, least recently used first."""
        return list(self.sets[set_index])


class LevelOracle(LRUOracle):
    """One hierarchy level: an LRU oracle plus per-kind demand counters."""

    def __init__(self, num_sets: int, associativity: int):
        super().__init__(num_sets, associativity)
        self.kind_hits = [0, 0, 0]
        self.kind_misses = [0, 0, 0]
        self.prefetch_hits = 0
        self.back_invalidations = 0

    def probe(self, line: int):
        """Demand lookup: moves a resident line to MRU; returns its meta."""
        s = self.sets[line % self.num_sets]
        meta = s.pop(line, None)
        if meta is not None:
            s[line] = meta
        return meta

    def holds(self, line: int):
        """Lookup without an LRU update; returns the meta or ``None``."""
        return self.sets[line % self.num_sets].get(line)

    def drop(self, line: int):
        """Inclusion victim: remove ``line``, counting a back-invalidation."""
        meta = self.invalidate(line)
        if meta is not None:
            self.back_invalidations += 1
        return meta


class HierarchyOracle:
    """Textbook inclusive L1/L2/L3 hierarchy (writeback, write-allocate).

    Geometries are ``(num_sets, associativity)`` pairs; ``l2`` may be
    ``None``.  The rules, one by one:

    * a demand access probes L1, L2, L3 in order; the first level that
      holds the line services it (marking it used, and dirty on an L1
      store hit), and every nearer level refills it, farthest first — the
      L1 copy dirty on a store; DRAM service refills every level;
    * a prefetch fills L3 and L2 (and the L1 when asked), flagged
      prefetched; an LLC→L2 copy fills the L2 only when the L3 holds it;
    * filling a resident line moves it to MRU and merges the dirty bit;
    * every LRU victim that was prefetched yields an ``evict_pf`` (used)
      or ``evict_unused_pf`` event at its level;
    * an L1 victim's dirtiness moves to the L2 copy, else the L3 copy,
      else becomes a writeback;
    * an L2 victim drops the same core's L1 copy; if either was dirty the
      dirtiness moves to the L3 copy, else becomes a writeback;
    * an L3 victim drops every core's L1 and L2 copies; if any copy was
      dirty it becomes a writeback;
    * with ``poison`` on, one set per core collects every L1 line dropped
      for inclusion, every L1 line a prefetch fills and that fill's L1
      victim; a demand refill of the L1 removes its line.
    """

    def __init__(self, l1, l2, l3, num_cores: int, poison: bool = False):
        self.l1 = [LevelOracle(*l1) for _ in range(num_cores)]
        self.l2 = [LevelOracle(*l2) for _ in range(num_cores)] if l2 else None
        self.l3 = LevelOracle(*l3)
        self.events: list[tuple[str, int, str]] = []
        self.poison = [set() for _ in range(num_cores)] if poison else None

    def _path(self, core: int):
        path = [("L1", self.l1[core])]
        if self.l2 is not None:
            path.append(("L2", self.l2[core]))
        return path + [("L3", self.l3)]

    def demand(self, core: int, line: int, kind: int, store: bool):
        """One demand access; returns ``(level, prefetched, first_use)``."""
        path = self._path(core)
        outcome = ("DRAM", False, False)
        depth = len(path)
        for i, (name, level) in enumerate(path):
            meta = level.probe(line)
            if meta is None:
                level.kind_misses[kind] += 1
                continue
            level.kind_hits[kind] += 1
            if meta["prefetched"]:
                level.prefetch_hits += 1
            outcome = (name, meta["prefetched"], meta["prefetched"] and not meta["used"])
            meta["used"] = True
            if i == 0 and store:
                meta["dirty"] = True
            depth = i
            break
        for name, _level in reversed(path[:depth]):
            self._fill(core, name, line, kind, store and name == "L1", False)
        return outcome

    def prefetch(self, core: int, line: int, kind: int, into_l1: bool) -> None:
        """A prefetch fill: L3, then L2, then (optionally) L1."""
        self._fill(core, "L3", line, kind, False, True)
        if self.l2 is not None:
            self._fill(core, "L2", line, kind, False, True)
        if into_l1:
            self._fill(core, "L1", line, kind, False, True)

    def copy_to_l2(self, core: int, line: int, kind: int) -> bool:
        """LLC→L2 copy of a line the L3 holds; returns whether it held it."""
        if self.l3.holds(line) is None:
            return False
        if self.l2 is not None:
            self._fill(core, "L2", line, kind, False, True)
        return True

    def _fill(self, core, name, line, kind, dirty, pf) -> None:
        if name == "L1":
            level = self.l1[core]
        else:
            level = self.l3 if name == "L3" else self.l2[core]
        victim = level.fill(line, dirty=dirty, prefetched=pf, kind=kind)
        if name == "L1" and self.poison is not None:
            if pf:
                self.poison[core].add(line)
                if victim is not None:
                    self.poison[core].add(victim[0])
            else:
                self.poison[core].discard(line)
        if victim is None:
            return
        vline, vmeta = victim
        if vmeta["prefetched"]:
            event = "evict_pf" if vmeta["used"] else "evict_unused_pf"
            self.events.append((event, vline, name))
        dirty = vmeta["dirty"]
        if name == "L1":
            if dirty:
                below = self.l2[core].holds(vline) if self.l2 is not None else None
                self._merge_dirty(below, vline)
            return
        if name == "L2":
            if self._drop_l1(core, vline):
                dirty = True
            if dirty:
                self._merge_dirty(None, vline)
            return
        for c in range(len(self.l1)):
            if self._drop_l1(c, vline):
                dirty = True
            if self.l2 is not None:
                m = self.l2[c].drop(vline)
                if m is not None and m["dirty"]:
                    dirty = True
        if dirty:
            self.events.append(("writeback", vline, "L3"))

    def _drop_l1(self, core: int, line: int) -> bool:
        """Back-invalidate one core's L1 copy; returns whether it was dirty."""
        meta = self.l1[core].drop(line)
        if meta is None:
            return False
        if self.poison is not None:
            self.poison[core].add(line)
        return meta["dirty"]

    def _merge_dirty(self, l2_meta, line: int) -> None:
        """Dirtiness moves to the L2 copy, else the L3 copy, else DRAM."""
        meta = l2_meta if l2_meta is not None else self.l3.holds(line)
        if meta is not None:
            meta["dirty"] = True
        else:
            self.events.append(("writeback", line, "L3"))
