"""Vectorized batch-replay planning.

The scalar simulator (:meth:`repro.system.machine.Machine.run`) walks a
trace one reference at a time.  Most of those references are L1 hits with
*no* side effects beyond an LRU touch, yet the scalar loop pays the full
Python call stack for each.  This module precomputes — in NumPy, over the
whole trace at once — everything the batch-replay engine needs to skip
that work safely:

* per-reference cache-line numbers and L1 set indices,
* the conservative *guaranteed L1 hit* mask (set-local stack-distance
  filter, :func:`repro.cache.reuse.guaranteed_hit_mask`),
* run boundaries (maximal spans of consecutive guaranteed hits),
* exclusive prefix sums of instruction counts, load counts, store counts
  and per-data-type guaranteed-hit counts (window accounting),
* the dependency-target mask and the *forward load* index (guaranteed-hit
  loads that later loads depend on, which must still participate in the
  window timing's completion forwarding).

A plan is pure derived data: building one never touches simulator state,
and the same trace always yields the same plan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cache.reuse import guaranteed_hit_mask, previous_occurrences
from .buffer import Trace
from .record import DataType

__all__ = ["ReplayPlan", "plan_replay"]


@dataclass
class ReplayPlan:
    """Precomputed per-reference arrays for one (trace, L1 geometry) pair.

    All prefix-sum arrays are *exclusive* and have length ``n + 1``:
    ``array[j] - array[i]`` counts over references ``[i, j)``.
    """

    line_size: int
    num_sets: int
    associativity: int
    #: Per-reference cache-line numbers (``addr // line_size``).
    lines: np.ndarray
    #: Guaranteed-L1-hit mask (conservative; ``False`` = scalar path).
    guaranteed: np.ndarray
    #: ``run_end[i]``: first index ``>= i`` that is *not* guaranteed
    #: (``n`` when the guaranteed run extends to the end of the trace).
    run_end: np.ndarray
    #: References that some later reference names as its dependency.
    dep_target: np.ndarray
    #: Exclusive prefix sum of ``1 + gap`` (instruction counts).
    instr_cum: np.ndarray
    #: Exclusive prefix sum of loads.
    load_cum: np.ndarray
    #: Exclusive prefix sum of stores.
    store_cum: np.ndarray
    #: Trace indices of all loads, in order.
    load_index: np.ndarray
    #: Trace indices of guaranteed-hit loads that are dependency targets.
    forward_loads: np.ndarray
    #: The subset of ``forward_loads`` whose dependency chain can reach a
    #: non-guaranteed load — the only ones whose completion time can be
    #: nonzero.  The replay engine feeds just these to the sparse window
    #: timing (falling back to ``forward_loads`` in windows where a
    #: poisoned reference was diverted to the scalar path, since a
    #: diverted load can acquire latency the pruning never saw).
    forward_live: np.ndarray
    #: Trace indices of guaranteed references whose LRU touch is *not*
    #: redundant.  A touch at ``t`` is redundant when (a) the same line
    #: is re-accessed later within the same guaranteed run (final LRU
    #: order within a set is the order of *last* touches, and nothing
    #: mutates the L1 mid-run when the poison set is empty — the engine
    #: falls back to per-reference touching otherwise), or (b) the very
    #: next access to ``t``'s cache set is the same line again
    #: (consecutive-in-set duplicate: no observer of the set's LRU order
    #: exists between the two touches — back-invalidations remove by key
    #: without reading order — so only the later touch matters, whether
    #: it replays batched or scalar).
    touch_index: np.ndarray
    #: Exclusive prefix count of ``touch_index`` membership: the touches
    #: of run ``[i, j)`` are ``touch_index[touch_cum[i]:touch_cum[j]]``.
    touch_cum: np.ndarray
    #: Trace indices of *representative* stores: one store per (line,
    #: guaranteed run) — the last one.  Earlier same-line stores in the
    #: same run set a dirty bit that nothing can observe before the
    #: representative re-sets it (dirty is only read at evictions and
    #: back-invalidation merges, which happen at scalar references
    #: outside the run).
    store_rep_index: np.ndarray
    #: Exclusive prefix count of ``store_rep_index`` membership.
    store_rep_cum: np.ndarray
    #: ``{int(kind): exclusive prefix sum of guaranteed hits of kind}``.
    hit_cum_by_kind: dict[int, np.ndarray]

    @property
    def num_refs(self) -> int:
        """Number of references covered by the plan."""
        return len(self.lines)


def _exclusive_cumsum(values: np.ndarray, dtype=np.int64) -> np.ndarray:
    out = np.zeros(len(values) + 1, dtype=dtype)
    np.cumsum(values, dtype=dtype, out=out[1:])
    return out


def _live_forwards(
    forward: np.ndarray, deps: np.ndarray, guaranteed: np.ndarray
) -> np.ndarray:
    """Forward loads whose completion time can be nonzero.

    A guaranteed-hit load contributes zero latency, so its completion
    equals its producer's; a completion can only become nonzero when the
    dependency chain reaches a *non-guaranteed* load (the only ones that
    can carry latency).  Every guaranteed producer in such a chain is
    itself a dependency target, hence a member of ``forward`` — so
    liveness propagates entirely inside ``forward`` and converges in
    chain-depth Jacobi sweeps (deps always point backwards).
    """
    num = len(forward)
    if num == 0:
        return forward
    depf = deps[forward]
    valid = depf >= 0
    live = np.zeros(num, dtype=bool)
    live[valid] = ~guaranteed[depf[valid]]
    chained = np.flatnonzero(valid & ~live)
    if len(chained):
        producer_pos = np.searchsorted(forward, depf[chained])
        while True:
            new = live[producer_pos]
            if np.array_equal(live[chained], new):
                break
            live[chained] = new
    return forward[live]


def _invert_prev(prev: np.ndarray, n: int) -> np.ndarray:
    """``nxt[i]``: next index with the same key as ``i``, else ``n``.

    Derived by inverting a :func:`previous_occurrences` array — no sort.
    """
    nxt = np.full(n, n, dtype=np.int64)
    valid = prev >= 0
    nxt[prev[valid]] = np.flatnonzero(valid)
    return nxt


def plan_replay(
    trace: Trace, line_size: int, num_sets: int, associativity: int
) -> ReplayPlan:
    """Build the :class:`ReplayPlan` for ``trace`` on one L1 geometry."""
    n = len(trace)
    lines = trace.addr // line_size
    guaranteed, prev, set_prev = guaranteed_hit_mask(
        lines, num_sets, associativity, return_prev=True
    )

    # run_end[i] = min{j >= i : not guaranteed[j]}, else n — a suffix
    # minimum over the positions of non-guaranteed references.
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
    # Touch dedup (see the touch_index docstring for the safety
    # argument): skip a guaranteed touch when the same line recurs
    # within the run, or when the set's very next access is the same
    # line.  Dirty bits are handled separately via store_rep_index.
    nxt = _invert_prev(prev, n)
    next_in_set = _invert_prev(set_prev, n)
    redundant = (nxt < run_end) | ((nxt < n) & (nxt == next_in_set))
    touch_mask = guaranteed & ~redundant
    # One representative (last) store per line per guaranteed run.
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
