"""The argsort-based plan helpers: the oracle for the radix-sorted ones.

:mod:`repro.cache.reuse` orders keys with ``stable_order`` (16-bit
radix passes), and ``plan_replay`` sorts the set indices once for both
the guaranteed-hit positions and ``next_in_set``.  The bodies below are
the helpers they replaced, kept unchanged: one
``np.argsort(kind="stable")`` per call, and a planner that sorts the
set indices twice.  The parity tests run both and demand the same
arrays.
"""

from __future__ import annotations

import numpy as np

from repro.trace.buffer import Trace
from repro.trace.plan import (
    ReplayPlan,
    _exclusive_cumsum,
    _invert_prev,
    _live_forwards,
)
from repro.trace.record import DataType

__all__ = [
    "previous_occurrences",
    "group_positions",
    "guaranteed_hit_mask",
    "plan_replay",
]


def previous_occurrences(values: np.ndarray) -> np.ndarray:
    """Index of each element's previous occurrence (``-1`` for first touch)."""
    values = np.asarray(values)
    n = len(values)
    prev = np.full(n, -1, dtype=np.int64)
    if n < 2:
        return prev
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    same = ordered[1:] == ordered[:-1]
    prev[order[1:][same]] = order[:-1][same]
    return prev


def group_positions(groups: np.ndarray) -> np.ndarray:
    """Rank of each element within its group's subsequence (0-based)."""
    groups = np.asarray(groups)
    n = len(groups)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(groups, kind="stable")
    ordered = groups[order]
    new_group = np.r_[True, ordered[1:] != ordered[:-1]]
    starts = np.flatnonzero(new_group)
    group_id = np.cumsum(new_group) - 1
    pos_sorted = np.arange(n, dtype=np.int64) - starts[group_id]
    positions = np.empty(n, dtype=np.int64)
    positions[order] = pos_sorted
    return positions


def guaranteed_hit_mask(
    lines: np.ndarray, num_sets: int, associativity: int
) -> tuple[np.ndarray, np.ndarray]:
    """The conservative guaranteed-hit mask and the lines' previous occurrences."""
    lines = np.asarray(lines)
    prev = previous_occurrences(lines)
    positions = group_positions(lines % num_sets)
    known = prev >= 0
    intervening = np.zeros(len(lines), dtype=np.int64)
    idx = np.flatnonzero(known)
    intervening[idx] = positions[idx] - positions[prev[idx]] - 1
    mask = known & (intervening < associativity)
    return mask, prev


def plan_replay(
    trace: Trace, line_size: int, num_sets: int, associativity: int
) -> ReplayPlan:
    """The replay plan built through the argsort helpers above."""
    n = len(trace)
    lines = trace.addr // line_size
    guaranteed, prev = guaranteed_hit_mask(lines, num_sets, associativity)

    stop = np.where(~guaranteed, np.arange(n, dtype=np.int64), n)
    run_end = (
        np.minimum.accumulate(stop[::-1])[::-1] if n else stop
    )

    deps = trace.dep
    dep_target = np.zeros(n, dtype=bool)
    valid = deps[deps >= 0]
    if len(valid):
        dep_target[valid] = True

    is_load = trace.is_load
    kinds = trace.kind
    hit_cum_by_kind = {
        int(dt): _exclusive_cumsum(guaranteed & (kinds == int(dt)))
        for dt in DataType
    }
    forward = np.flatnonzero(guaranteed & is_load & dep_target)
    nxt = _invert_prev(prev, n)
    next_in_set = _invert_prev(
        previous_occurrences(lines % num_sets), n
    )
    redundant = (nxt < run_end) | ((nxt < n) & (nxt == next_in_set))
    touch_mask = guaranteed & ~redundant
    store_idx = np.flatnonzero(~is_load)
    store_rep_mask = np.zeros(n, dtype=bool)
    if len(store_idx):
        sprev = previous_occurrences(lines[store_idx])
        snxt = np.full(len(store_idx), n, dtype=np.int64)
        sv = np.flatnonzero(sprev >= 0)
        snxt[sprev[sv]] = store_idx[sv]
        store_rep_mask[store_idx[snxt >= run_end[store_idx]]] = True
    return ReplayPlan(
        line_size=line_size,
        num_sets=num_sets,
        associativity=associativity,
        lines=lines,
        guaranteed=guaranteed,
        run_end=run_end,
        dep_target=dep_target,
        instr_cum=_exclusive_cumsum(trace.gap.astype(np.int64) + 1),
        load_cum=_exclusive_cumsum(is_load),
        store_cum=_exclusive_cumsum(~is_load),
        load_index=np.flatnonzero(is_load),
        forward_loads=forward,
        forward_live=_live_forwards(forward, deps, guaranteed),
        touch_index=np.flatnonzero(touch_mask),
        touch_cum=_exclusive_cumsum(touch_mask),
        store_rep_index=np.flatnonzero(store_rep_mask),
        store_rep_cum=_exclusive_cumsum(store_rep_mask),
        hit_cum_by_kind=hit_cum_by_kind,
    )
