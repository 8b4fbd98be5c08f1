"""Vectorized batch-replay fast path.

:meth:`repro.system.machine.Machine._run_scalar` walks a trace one
reference at a time through the full Python call stack — hierarchy
lookup, stats, event drain, prefetcher snoop — even though most
references are L1 hits with no side effect beyond an LRU touch.  This
module replays the same trace with the same machine *bit-identically*
but much faster:

1. :func:`repro.trace.plan.plan_replay` precomputes, in NumPy over the
   whole trace, per-reference line numbers, the conservative *guaranteed
   L1 hit* mask (set-local stack-distance filter), run boundaries, and
   every prefix sum the window accounting needs.
2. Guaranteed-hit runs are applied as bare LRU touches; their hit
   counters fold in from the plan's prefix sums where the cascade's
   counters fold: once at the end, or at every window while telemetry
   samples them.
3. Every other reference runs a lean demand cascade: the lookups of
   ``CacheHierarchy.demand_access`` inlined over the raw set
   dictionaries, with local hit/miss counters, and a miss refilled
   through the hierarchy's fill core — the one ``demand_access``, the
   prefetch fills and the MPP chase use.  The same event drain, MPP
   chase and prefetcher (and IMP) snoop as the scalar loop follow.
   Telemetry, attribution and pollution hooks sit behind per-run guards.
4. Window timing runs on the sparse load set
   (:func:`repro.core.mlp.compute_window_timing_sparse`): cascade loads
   plus the guaranteed-hit loads some later load depends on.

The guaranteed-hit filter only sees demand accesses.  L1 lines that
leave or enter the L1 any other way join the owning core's *poison
set*, kept by the fill core, and the engine routes poisoned lines
through the cascade until a demand access re-fills them:

* back-invalidations (inclusion victims of this core's or another
  core's fills);
* for setups that prefetch-fill the L1 (``monoDROPLETL1``, ``imp``),
  every L1 victim — the extra lines shift LRU order under the filter —
  and every prefetched L1 line, so that hits on it take the cascade,
  which credits the prefetch exactly like ``demand_access``.  These
  setups also replay every guaranteed touch: the plan's touch dedup
  assumes nothing reads a set's LRU order between two touches, and an
  L1 prefetch fill does.

:func:`run_fast` is a per-core generator that yields at every ROB-window
close, so :meth:`Machine._interleave` drives one trace (``Machine.run``)
or several sharing the LLC (:func:`repro.system.run_multicore`) alike.
The scalar path stays the reference oracle: ``tests/parity`` asserts
bit-identical results across both paths for every workload × prefetch
setup combination, single- and multi-core.  The fill core both paths
share is fuzzed against an independent naive hierarchy instead
(``tests/parity/test_hierarchy_fuzz.py``).
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from ..core.cycles import CycleStack
from ..core.mlp import compute_window_timing_sparse
from ..prefetch.base import NullPrefetcher
from ..trace.buffer import Trace
from ..trace.plan import plan_replay
from ..trace.record import DataType

__all__ = ["run_fast"]

_STRUCTURE = int(DataType.STRUCTURE)


class _ReplayTables:
    """Hot-loop conversions of one :class:`~repro.trace.plan.ReplayPlan`.

    Plain Python lists beat ndarray scalar indexing inside the replay
    loop, but the conversions are not free; since a plan (and these
    tables) is pure derived data, it is cached on the trace object keyed
    by L1 geometry — sweeps replaying one trace across prefetch setups,
    and repeated benchmark iterations, pay the planning cost once.
    """

    __slots__ = (
        "plan",
        "lines",
        "kinds",
        "is_load",
        "is_store",
        "deps",
        "dep_target",
        "run_end",
        "icum",
        "lcum",
        "forward",
        "forward_all",
        "load_index",
        "touch_cum",
        "touch_pairs",
        "store_pairs",
        "srcum",
        "set_idx",
    )

    def __init__(self, plan, trace: Trace):
        self.plan = plan
        self.lines = plan.lines.tolist()
        self.kinds = trace.kind.tolist()
        self.is_load = trace.is_load.tolist()
        # Only poisoned runs and L1-filling setups, which touch run by
        # run without the dedup, need per-reference store flags; NumPy
        # slices of this avoid a full tolist.  A run's store count is
        # its length less its loads, so no store prefix sum is listed.
        self.is_store = np.logical_not(trace.is_load)
        self.deps = trace.dep.tolist()
        self.dep_target = plan.dep_target.tolist()
        self.run_end = plan.run_end.tolist()
        self.icum = plan.instr_cum.tolist()
        self.lcum = plan.load_cum.tolist()
        self.forward = plan.forward_live.tolist()
        self.forward_all = plan.forward_loads
        self.load_index = plan.load_index
        self.touch_cum = plan.touch_cum.tolist()
        self.srcum = plan.store_rep_cum.tolist()
        # (set index, line) per deduped touch / store representative:
        # the clean-run replay loop then avoids two positional list
        # indexings per touch.  The per-kind guaranteed-hit prefix sums
        # stay NumPy: run_fast reads them only where it folds hits.
        set_arr = plan.lines % plan.num_sets
        self.set_idx = set_arr.tolist()
        self.touch_pairs = list(
            zip(
                set_arr[plan.touch_index].tolist(),
                plan.lines[plan.touch_index].tolist(),
            )
        )
        self.store_pairs = list(
            zip(
                set_arr[plan.store_rep_index].tolist(),
                plan.lines[plan.store_rep_index].tolist(),
            )
        )


def _tables_for(machine, trace: Trace, l1) -> _ReplayTables:
    """Plan (or fetch the cached plan for) ``trace`` on ``l1`` geometry."""
    from ..telemetry.spans import current as _spans_current

    geometry = machine._plan_key()
    cached = getattr(trace, "_replay_tables", None)
    trc = _spans_current()
    if cached is not None and cached[0] == geometry:
        if trc is not None:
            trc.event("replay.plan", cache="hit", trace=trace.name)
        return cached[1]
    if trc is not None:
        trc.event("replay.plan", cache="miss", trace=trace.name)
    tables = _ReplayTables(plan_replay(trace, *geometry), trace)
    try:
        trace._replay_tables = (geometry, tables)
    except AttributeError:
        pass
    return tables


def run_fast(machine, trace: Trace):
    """Batch-replay ``trace`` on its core of ``machine``.

    A generator: yields the core's clock at every ROB-window close and
    returns a :class:`repro.system.machine.SimResult` bit-identical to
    the scalar oracle's (``fast_path="off"``), tagged
    ``fast_path="vector"``.  Drive it through
    :meth:`repro.system.machine.Machine._interleave`, which also sets up
    the per-core poison sets.
    """
    setup = machine.setup
    cfg = machine.config
    hierarchy = machine.hierarchy
    dram = machine.dram
    ledger = machine.ledger
    prefetcher = setup.l2_prefetcher
    events = hierarchy.events
    core = trace.core
    l1 = hierarchy.l1s[core]
    l2 = hierarchy.l2s[core] if hierarchy.l2s is not None else None
    l3 = hierarchy.l3

    tables = _tables_for(machine, trace, l1)

    # Plain Python lists for the hot loop, exactly like the scalar path.
    lines = tables.lines
    kinds = tables.kinds
    is_load = tables.is_load
    is_store = tables.is_store
    deps = tables.deps
    dep_target = tables.dep_target
    run_end = tables.run_end
    icum = tables.icum
    lcum = tables.lcum
    forward = tables.forward
    forward_all = tables.forward_all
    load_index = tables.load_index
    touch_cum = tables.touch_cum
    touch_pairs = tables.touch_pairs
    store_pairs = tables.store_pairs
    srcum = tables.srcum
    hit_cums = tables.plan.hit_cum_by_kind.items()
    set_idx = tables.set_idx
    n = len(trace)

    l1_sets = l1._sets
    l1_stats = l1.stats
    l2_sets = l2._sets if l2 is not None else None
    l2_num_sets = l2._num_sets if l2 is not None else 1
    l3_sets = l3._sets
    l3_num_sets = l3._num_sets
    # The hierarchy's fill core, shared with the oracle and the
    # prefetch paths.
    fill_l1 = hierarchy._fill_l1
    fill_l2 = hierarchy._fill_l2
    fill_l3 = hierarchy._fill_l3

    l2_lat = float(cfg.l2_service_latency)
    l3_lat = float(cfg.l3_service_latency)
    dram_path = cfg.dram_base_latency
    dispatch = cfg.dispatch_width
    rob = cfg.rob_entries
    mshr = cfg.mshr_entries
    lq = cfg.load_queue

    has_feedback = hasattr(prefetcher, "feedback")
    # The null prefetcher's snoop is a guaranteed no-op, and so is a
    # structure-only streamer's on any other miss; skipping those calls
    # leaves results untouched and the miss path leaner.
    snoop_misses = not isinstance(prefetcher, NullPrefetcher)
    structure_only = prefetcher.trains_structure_only
    demand_chase = machine.mpp is not None and setup.mpp_trigger == "demand"
    imp = setup.imp_engine
    layout = machine.layout
    line_size = machine._line_size
    # Prefetch fills into the L1 (see the module docstring): poison
    # every L1 victim, and replay guaranteed touches without the dedup.
    into_l1 = setup.fill_into_l1
    clock = 0.0
    stack = CycleStack()
    stall = stack.stall
    total_miss_latency = 0.0
    total_exposed = 0.0
    budget_full = cfg.prefetch_budget_per_window
    budget = budget_full

    # Observers (None when off): telemetry samples and phases at window
    # closes, attribution and pollution per L1 miss.  None of them
    # writes simulator state.
    tel = machine._telemetry
    wintel = machine._window_telemetry
    attr = machine._attribution
    pollution = hierarchy.pollution
    observe = attr is not None or pollution is not None
    phase_marks = getattr(trace, "phases", [])
    phase_ptr = 0
    num_phase_marks = len(phase_marks) if tel is not None else 0

    # This core's poisoned L1 lines (see the module docstring): their
    # guaranteed-hit predictions are void until the next demand access
    # re-fills them.
    poison = hierarchy.l1_inval_logs[core]

    # Demand-cascade counters, folded into the CacheStats at the last
    # window, or at every window while telemetry samples them, together
    # with the guaranteed hits of the plan's prefix sums up to there.  A
    # diverted guaranteed hit is taken back from ``c_l1_hit``; the
    # cascade then counts what it really was.
    hits_folded = 0
    c_l1_hit = {0: 0, 1: 0, 2: 0}
    c_l1_miss = {0: 0, 1: 0, 2: 0}
    c_l2_hit = {0: 0, 1: 0, 2: 0}
    c_l2_miss = {0: 0, 1: 0, 2: 0}
    c_l3_hit = {0: 0, 1: 0, 2: 0}
    c_l3_miss = {0: 0, 1: 0, 2: 0}
    c_pfhit = {"L1": 0, "L2": 0, "L3": 0}
    folds = [(l1, c_l1_hit, c_l1_miss, "L1"), (l3, c_l3_hit, c_l3_miss, "L3")]
    if l2 is not None:
        folds.append((l2, c_l2_hit, c_l2_miss, "L2"))

    def _observe(line: int, kind: int, level: str) -> None:
        """One L1 miss's pollution and attribution hooks.

        The fill core's ``pollution.on_fill`` calls on the refill path
        that follows are no-ops: each comes after an ``on_demand_miss``
        of the same line at the same level, which already dropped its
        shadow entry.
        """
        if pollution is not None:
            pollution.on_demand_miss("L1", line, kind)
            if level != "L2":
                if l2 is not None:
                    pollution.on_demand_miss("L2", line, kind)
                if level == "DRAM":
                    pollution.on_demand_miss("L3", line, kind)
        if attr is not None:
            attr.on_demand_access(level, line)

    def _drain(now: float) -> None:
        """Apply (and trace) pending hierarchy events at ``now``."""
        if tel is not None:
            for ev in events:
                tel.emit(now, ev.kind, line=ev.line, detail=ev.level)
        nowi = int(now)
        for ev in events:
            if ev.kind == "writeback":
                dram.writeback(ev.line, nowi)
            elif ev.kind == "evict_unused_pf" and ev.level == "L3":
                ledger.claim_eviction(ev.line)
        events.clear()

    fwd_ptr = 0
    ws = 0
    while ws < n:
        # The window closes after the first reference that pushes the
        # instruction count to >= rob (mirrors the scalar loop's
        # post-increment check); past the end of the trace it is the
        # final partial window.
        j = bisect_left(icum, icum[ws] + rob)
        closes = j <= n
        limit = j if closes else n
        window_icum = icum[ws]
        window_lcum = lcum[ws]

        cascade_loads: list[tuple[int, int, int, str, float]] = []
        diverted: set[int] | None = None
        # Tracks whether any load in this window carries latency; a
        # window of pure zero-latency loads times out to all zeros, so
        # only a window with latency is timed.
        window_has_latency = False

        i = ws
        while i < limit:
            jrun = run_end[i]
            if jrun > i:  # guaranteed run starts here
                if jrun > limit:
                    jrun = limit
                if jrun == i + 1:
                    # A one-reference run (most runs of a miss-heavy
                    # trace): test its line for poison and touch it by
                    # index, as the oracle's per-reference walk does.
                    line = lines[i]
                    if line not in poison:
                        if events:
                            _drain(clock + (icum[i] - window_icum) / dispatch)
                        s1 = l1_sets[set_idx[i]]
                        meta = s1.pop(line)
                        s1[line] = meta
                        if not is_load[i]:
                            meta.dirty = True
                        i = jrun
                        continue
                else:
                    # Truncate at the first poisoned line.  The
                    # truncated prefix cannot use the plan-time deduped
                    # touch list (it dedups over the *full* run, so a
                    # line's last touch may lie past the cut).
                    clean = not poison or poison.isdisjoint(lines[i:jrun])
                    if not clean:
                        k = i
                        while lines[k] not in poison:
                            k += 1
                        jrun = k
                    if jrun > i:
                        # Pending side effects from the previous
                        # reference's prefetch issues drain at the
                        # *next* reference's timestamp in the scalar
                        # loop.
                        if events:
                            _drain(clock + (icum[i] - window_icum) / dispatch)
                        if clean and not into_l1:
                            # No mutation can interrupt the run, so only
                            # the *last* touch of each line matters for
                            # LRU order — replay the deduped touch list,
                            # and one representative dirty-bit write per
                            # (line, run).
                            for si, ln in touch_pairs[touch_cum[i] : touch_cum[jrun]]:
                                s1 = l1_sets[si]
                                s1[ln] = s1.pop(ln)
                            slo = srcum[i]
                            shi = srcum[jrun]
                            if shi != slo:
                                for si, ln in store_pairs[slo:shi]:
                                    l1_sets[si][ln].dirty = True
                        elif jrun - i != lcum[jrun] - lcum[i]:  # stores
                            l1.touch_run(lines[i:jrun], is_store[i:jrun])
                        else:
                            l1.touch_run(lines[i:jrun])
                        i = jrun
                        continue
                # Guaranteed but poisoned: the prediction is void — take
                # the cascade and undo the prefix-sum hit.
                if diverted is None:
                    diverted = set()
                diverted.add(i)
                c_l1_hit[kinds[i]] -= 1

            # ----------------------------------------------------------
            # Lean demand cascade: demand_access inlined over the raw
            # set dicts.  The ``used`` bit is only read on prefetched
            # lines, so the L1 hit path sets it on those alone; they
            # stay poisoned, so every hit on one comes through here.
            # ----------------------------------------------------------
            line = lines[i]
            kind = kinds[i]
            load = is_load[i]
            s1 = l1_sets[set_idx[i]]
            meta = s1.pop(line, None)
            if meta is not None:
                s1[line] = meta
                c_l1_hit[kind] += 1
                latency = 0.0
                if meta.prefetched:
                    meta.used = True
                    c_pfhit["L1"] += 1
                    # The residual wait for an in-flight fill (>= 0).
                    latency = ledger.claim_demand(
                        line, clock + (icum[i] - window_icum) / dispatch
                    )
                if not load:
                    meta.dirty = True
                elif latency > 0.0:
                    window_has_latency = True
                    cascade_loads.append(
                        (lcum[i] - window_lcum, i, deps[i], "L1", latency)
                    )
                elif dep_target[i]:
                    # Zero-latency loads nobody depends on are invisible
                    # to the sparse window timing.
                    cascade_loads.append(
                        (lcum[i] - window_lcum, i, deps[i], "L1", 0.0)
                    )
                if events:
                    _drain(clock + (icum[i] - window_icum) / dispatch)
                i += 1
                continue
            now = clock + (icum[i] - window_icum) / dispatch
            c_l1_miss[kind] += 1
            level = None
            prefetched = False
            if l2_sets is not None:
                s2 = l2_sets[line % l2_num_sets]
                meta = s2.pop(line, None)
                if meta is not None:
                    s2[line] = meta
                    meta.used = True
                    c_l2_hit[kind] += 1
                    if meta.prefetched:
                        c_pfhit["L2"] += 1
                        prefetched = True
                    level = "L2"
                    latency = l2_lat
                else:
                    c_l2_miss[kind] += 1
            if level is None:
                s3 = l3_sets[line % l3_num_sets]
                meta = s3.pop(line, None)
                if meta is not None:
                    s3[line] = meta
                    meta.used = True
                    c_l3_hit[kind] += 1
                    if meta.prefetched:
                        c_pfhit["L3"] += 1
                        prefetched = True
                    level = "L3"
                    latency = l3_lat
                else:
                    c_l3_miss[kind] += 1
                    level = "DRAM"
                    latency = 0.0
            if observe:
                _observe(line, kind, level)
            if level == "DRAM":
                fill_l3(line, kind, False)
                fill_l2(core, line, kind, False)
            elif level == "L3":
                fill_l2(core, line, kind, False)
            # Every miss ends by installing into the L1.
            fill_l1(core, line, kind, not load, False, into_l1)
            if level == "DRAM":
                latency = float(dram.access(line, int(now)) + dram_path)
                if tel is not None:
                    tel.emit(now, "dram_demand", line=line, core=core, dtype=kind)
                if demand_chase and kind == _STRUCTURE:
                    machine._chase_properties(line, core, now + latency)
            elif prefetched:
                residual = ledger.claim_demand(line, now)
                if residual > 0:
                    latency += residual
            if load:
                if latency > 0.0:
                    window_has_latency = True
                cascade_loads.append(
                    (lcum[i] - window_lcum, i, deps[i], level, latency)
                )
            if events:
                # List order is exactly the scalar loop's: any events
                # pending from the previous reference, then this
                # cascade's fills, then the chase's.
                _drain(now)
            if snoop_misses and (kind == _STRUCTURE or not structure_only):
                candidates = prefetcher.observe_miss(
                    line, kind, kind == _STRUCTURE, core
                )
                for cand in candidates:
                    if budget <= 0:
                        break
                    if machine._issue_stream_prefetch(cand, core, now):
                        budget -= 1
            if imp is not None:
                if kind == _STRUCTURE:
                    values = layout.scan_structure_line(
                        line * line_size, line_size
                    )
                    for cand in imp.observe_index_values(values):
                        if budget <= 0:
                            break
                        if machine._issue_stream_prefetch(
                            cand, core, now, issuer="imp"
                        ):
                            budget -= 1
                else:
                    imp.observe_miss(line, kind, False, core)
            i += 1

        # --------------------------------------------------------------
        # Window close (full) or end of trace (partial window).
        # --------------------------------------------------------------
        fwd_end = bisect_left(forward, limit, fwd_ptr)
        instr_in_window = icum[limit] - window_icum
        base = instr_in_window / dispatch
        exposed = total = 0.0
        if window_has_latency:
            # Forward loads: normally only the chain-live ones matter; a
            # window with diverted references falls back to the full
            # unpruned set, since a diverted load can acquire latency
            # (and forward it) that plan-time pruning never saw.
            if diverted is None:
                fwd = forward[fwd_ptr:fwd_end]
            else:
                lo, hi = np.searchsorted(forward_all, (ws, limit))
                fwd = [
                    f for f in forward_all[lo:hi].tolist() if f not in diverted
                ]
            if fwd:
                fwd_entries = [
                    (lcum[f] - window_lcum, f, deps[f], "L1", 0.0) for f in fwd
                ]
                fwd_entries.extend(cascade_loads)
                fwd_entries.sort()
                cascade_loads = fwd_entries
            # The same float operations, in the same order, as
            # compute_window_timing + CycleStack.add_window.
            num_loads = lcum[limit] - window_lcum
            exposed, total, by_level = compute_window_timing_sparse(
                cascade_loads,
                num_loads,
                load_index[window_lcum : window_lcum + num_loads],
                ws,
                mshr,
                lq,
            )
            if total > 0:
                scale = exposed / total
                for lvl, lat in by_level.items():
                    stall[lvl] = stall.get(lvl, 0.0) + lat * scale
        fwd_ptr = fwd_end
        clock += base + exposed
        stack.base += base
        stack.instructions += instr_in_window
        total_miss_latency += total
        total_exposed += exposed

        if tel is not None or limit == n:
            for k, cum in hit_cums:
                c = int(cum[limit] - cum[hits_folded])
                if c:
                    l1_stats.hits[k] += c
            hits_folded = limit
            for cache, hit_c, miss_c, lvl in folds:
                st = cache.stats
                for k, v in hit_c.items():
                    if v:
                        st.hits[k] += v
                        hit_c[k] = 0
                for k, v in miss_c.items():
                    if v:
                        st.misses[k] += v
                        miss_c[k] = 0
                st.prefetch_hits += c_pfhit[lvl]
                c_pfhit[lvl] = 0
        if tel is not None:
            wintel.on_window(total, exposed, instr_in_window, base + exposed)
            if closes:
                while (
                    phase_ptr < num_phase_marks
                    and phase_marks[phase_ptr][0] <= limit
                ):
                    tel.record_phase(phase_marks[phase_ptr][1], clock, limit)
                    phase_ptr += 1
                tel.on_window(clock, limit)
        ws = limit
        if closes:
            budget = budget_full
            if has_feedback:
                # Feedback-directed prefetching: the issuer's own
                # cumulative accuracy/lateness counters.
                counters = ledger.counters.get(prefetcher.name)
                if counters is not None:
                    prefetcher.feedback(
                        counters.total_issued,
                        counters.total_useful,
                        sum(counters.late.values()),
                    )
            yield clock

    return machine._finish(
        trace, clock, stack, total_miss_latency, total_exposed, phase_ptr,
        fast_path="vector",
    )
