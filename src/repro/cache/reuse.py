"""Exact LRU stack (reuse) distance profiling, per data type.

The paper's Observation #6 is about the *reuse distances* of cache lines
belonging to different graph data types: structure lines have reuse
distances beyond even the LLC, property lines fall between the L2 and
LLC stack depths, intermediate lines are near.  This module computes
exact Mattson stack distances with a Fenwick tree (O(log n) per access)
so those claims can be measured directly on our traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..trace.buffer import Trace
from ..trace.record import DataType

__all__ = [
    "ReuseProfile",
    "reuse_distance_profile",
    "Fenwick",
    "COLD_DISTANCE",
    "stable_order",
    "previous_occurrences",
    "group_positions",
    "guaranteed_hit_mask",
]

#: Stack distance reported for first-touch (cold) accesses.
COLD_DISTANCE = -1


class Fenwick:
    """Fenwick tree over access timestamps for stack-distance counting.

    Shared between the offline trace profiler below and the online
    shadow tag stores of :mod:`repro.telemetry.attribution`.
    """

    def __init__(self, n: int):
        self.n = n
        self.tree = np.zeros(n + 1, dtype=np.int64)

    def add(self, i: int, delta: int) -> None:
        """Add ``delta`` at position ``i``."""
        i += 1
        while i <= self.n:
            self.tree[i] += delta
            i += i & (-i)

    def prefix_sum(self, i: int) -> int:
        """Sum of positions ``0..i`` inclusive."""
        i += 1
        total = 0
        while i > 0:
            total += int(self.tree[i])
            i -= i & (-i)
        return total


@dataclass
class ReuseProfile:
    """Reuse-distance histograms per data type.

    Distances are in *distinct cache lines* between consecutive touches of
    the same line.  ``cold`` counts first touches.
    """

    line_size: int
    distances: dict[DataType, list[int]] = field(default_factory=dict)
    cold: dict[DataType, int] = field(default_factory=dict)

    def percentile(self, kind: DataType, q: float) -> float:
        """``q``-th percentile of reuse distance for one data type."""
        values = self.distances.get(kind, [])
        if not values:
            return float("nan")
        return float(np.percentile(values, q))

    def median(self, kind: DataType) -> float:
        """Median reuse distance for one data type."""
        return self.percentile(kind, 50)

    def fraction_beyond(self, kind: DataType, capacity_lines: int) -> float:
        """Fraction of reuses whose distance exceeds a cache's capacity.

        A reuse at stack distance d misses in a fully-associative LRU
        cache of ``capacity_lines`` iff ``d >= capacity_lines`` — the
        classic Mattson inclusion property.
        """
        values = self.distances.get(kind, [])
        if not values:
            return float("nan")
        arr = np.asarray(values)
        return float((arr >= capacity_lines).mean())

    def serviced_level_fractions(
        self, kind: DataType, capacities: dict[str, int]
    ) -> dict[str, float]:
        """Fig. 7 style breakdown: where would reuses of ``kind`` be serviced?

        ``capacities`` maps level name → capacity in lines, nearest first
        (e.g. ``{"L1": 64, "L2": 512, "L3": 4096}``).  Cold misses are
        attributed to DRAM.
        """
        values = np.asarray(self.distances.get(kind, []), dtype=np.int64)
        total = len(values) + self.cold.get(kind, 0)
        if total == 0:
            return {}
        out: dict[str, float] = {}
        prev = 0
        for level, cap in capacities.items():
            in_level = int(((values >= prev) & (values < cap)).sum())
            out[level] = in_level / total
            prev = cap
        beyond = int((values >= prev).sum()) + self.cold.get(kind, 0)
        out["DRAM"] = beyond / total
        return out


def stable_order(values: np.ndarray) -> np.ndarray:
    """``np.argsort(values, kind="stable")`` for any integer array, by radix.

    NumPy's stable sort is a radix sort only for keys of 16 bits or
    fewer.  Offsetting every value by the minimum makes the keys
    non-negative (in wrapping ``uint64`` arithmetic, so any signed or
    unsigned dtype works); a span under 2**8 then sorts in one byte-wide
    pass, and a wider one in 16-bit digit passes, least significant
    first.  Each pass is stable, so equal values keep their order.
    """
    values = np.asarray(values)
    if len(values) < 2:
        return np.arange(len(values), dtype=np.intp)
    keys = values.astype(np.uint64)
    keys -= keys[values.argmin()]
    span = int(keys.max())
    if span < 1 << 8:
        return np.argsort(keys.astype(np.uint8), kind="stable")
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    shift = 16
    while span >> shift:
        digits = (keys[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digits, kind="stable")]
        shift += 16
    return order


def previous_occurrences(
    values: np.ndarray, order: np.ndarray | None = None
) -> np.ndarray:
    """Index of each element's previous occurrence (``-1`` for first touch).

    Vectorized (one :func:`stable_order`, or the caller's ``order`` of
    the same values): the batch-replay planner calls this on whole
    traces, where a Python dict walk would cost as much as the
    simulation it is meant to speed up.
    """
    values = np.asarray(values)
    n = len(values)
    prev = np.full(n, -1, dtype=np.int64)
    if n < 2:
        return prev
    if order is None:
        order = stable_order(values)
    ordered = values[order]
    same = ordered[1:] == ordered[:-1]
    prev[order[1:][same]] = order[:-1][same]
    return prev


def group_positions(
    groups: np.ndarray, order: np.ndarray | None = None
) -> np.ndarray:
    """Rank of each element within its group's subsequence (0-based).

    With ``groups`` = cache-set indices, ``positions[i] - positions[j]``
    counts the accesses to that set in ``(j, i]`` — the quantity that
    upper-bounds the set-local Mattson stack distance.  ``order`` is
    ``stable_order(groups)`` when the caller already has it.
    """
    groups = np.asarray(groups)
    n = len(groups)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if order is None:
        order = stable_order(groups)
    ordered = groups[order]
    new_group = np.r_[True, ordered[1:] != ordered[:-1]]
    starts = np.flatnonzero(new_group)
    group_id = np.cumsum(new_group) - 1
    pos_sorted = np.arange(n, dtype=np.int64) - starts[group_id]
    positions = np.empty(n, dtype=np.int64)
    positions[order] = pos_sorted
    return positions


def guaranteed_hit_mask(
    lines: np.ndarray,
    num_sets: int,
    associativity: int,
    return_prev: bool = False,
):
    """Conservative per-reference *guaranteed LRU hit* classification.

    A demand access to ``line`` is a guaranteed set-associative LRU hit
    when fewer than ``associativity`` accesses touched its cache set
    since the previous access to the same line: the intervening access
    count upper-bounds the set-local Mattson stack distance (each access
    introduces at most one distinct line), and by the LRU stack property
    a reuse at set-local stack distance ``< associativity`` hits.  The
    filter is sound for any interleaving of demand hits and demand
    fills; removals by back-invalidation (which only *shrink* sets and
    therefore cannot cause extra evictions) are handled by the replay
    engine poisoning the removed line until its next demand access.
    Non-demand insertions (prefetch fills into the cache) are *not*
    covered — the batch-replay engine only enables the fast path for
    setups that never prefetch-fill the L1.

    Returns a boolean mask; ``False`` means "unknown — take the scalar
    path", never "guaranteed miss".  With ``return_prev=True`` also
    returns the :func:`previous_occurrences` arrays of the lines and of
    their set indices, ``(mask, prev, set_prev)``: the replay planner
    derives next-occurrence indices from them, and the set indices are
    sorted once for both the positions and ``set_prev``.
    """
    lines = np.asarray(lines)
    prev = previous_occurrences(lines)
    sets = lines % num_sets
    set_order = stable_order(sets)
    positions = group_positions(sets, set_order)
    known = prev >= 0
    intervening = np.zeros(len(lines), dtype=np.int64)
    idx = np.flatnonzero(known)
    intervening[idx] = positions[idx] - positions[prev[idx]] - 1
    mask = known & (intervening < associativity)
    if return_prev:
        return mask, prev, previous_occurrences(sets, set_order)
    return mask


def reuse_distance_profile(trace: Trace, line_size: int = 64) -> ReuseProfile:
    """Compute the exact per-type line reuse-distance profile of a trace."""
    lines = trace.addr // line_size
    kinds = trace.kind
    n = len(trace)
    profile = ReuseProfile(line_size=line_size)
    dist_by_kind: dict[DataType, list[int]] = {dt: [] for dt in DataType}
    cold: dict[DataType, int] = {dt: 0 for dt in DataType}
    fen = Fenwick(n)
    last_seen: dict[int, int] = {}
    for t in range(n):
        line = int(lines[t])
        kind = DataType(int(kinds[t]))
        prev = last_seen.get(line)
        if prev is None:
            cold[kind] += 1
        else:
            # Distinct lines touched strictly after prev == marks in (prev, t).
            distance = fen.prefix_sum(t - 1) - fen.prefix_sum(prev)
            dist_by_kind[kind].append(distance)
            fen.add(prev, -1)
        fen.add(t, +1)
        last_seen[line] = t
    profile.distances = dist_by_kind
    profile.cold = cold
    return profile
