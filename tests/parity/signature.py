"""Full-machine result signatures for fast-vs-scalar differential tests.

A signature captures everything a simulation can observe: timing, cycle
stack, per-level per-type counters, DRAM statistics, and the *complete*
cache contents of every level — including per-set LRU ordering and
per-line flags, so even a drift that never reaches a counter fails the
comparison.

The single deliberate exclusion is the L1 ``used`` bit on lines that
were not prefetched: the bit exists to measure prefetch usefulness and
is read only on prefetched lines, so the lean replay path maintains it
on those alone (they stay poisoned and always take its cascade).
L1 ``used`` bits of prefetched lines, and all L2/L3 ``used`` bits, are
compared.
"""

from __future__ import annotations

__all__ = ["machine_signature", "machine_state_signature", "run_both_paths"]


def _cache_contents(cache, include_used: bool):
    out = []
    for s in cache._sets:
        members = []
        for line, meta in s.items():  # iteration order == LRU order
            members.append(
                (
                    line,
                    meta.dirty,
                    meta.prefetched,
                    meta.kind,
                    meta.used if include_used or meta.prefetched else None,
                )
            )
        out.append(members)
    return out


def _stats_sig(stats):
    return (
        sorted((int(k), v) for k, v in stats.hits.items()),
        sorted((int(k), v) for k, v in stats.misses.items()),
        stats.prefetch_hits,
        stats.prefetch_fills,
        stats.evictions,
        stats.back_invalidations,
    )


def stack_signature(stack):
    """A cycle stack, exactly."""
    return (stack.base, sorted(stack.stall.items()), stack.instructions)


def machine_state_signature(machine):
    """Every level's counters and contents (all cores), plus DRAM stats."""
    h = machine.hierarchy
    levels = list(h.l1s) + list(h.l2s or []) + [h.l3]
    dram = machine.dram.stats
    return (
        [_stats_sig(level.stats) for level in levels],
        sorted(vars(dram).items()) if hasattr(dram, "__dict__") else repr(dram),
        [_cache_contents(c, include_used=False) for c in h.l1s],
        [_cache_contents(c, include_used=True) for c in (h.l2s or [])],
        _cache_contents(h.l3, include_used=True),
    )


def machine_signature(result, machine):
    """Everything observable about one finished simulation."""
    return (
        result.cycles,
        result.instructions,
        result.total_miss_latency,
        result.total_exposed_latency,
        stack_signature(result.cycle_stack),
        machine_state_signature(machine),
    )


def run_both_paths(make_machine, trace):
    """Run ``trace`` through fresh scalar and fast machines.

    ``make_machine(fast_path)`` must build a *new* machine each call.
    Returns ``(scalar_signature, fast_signature, fast_result)``.
    """
    scalar = make_machine("off")
    sig_scalar = machine_signature(scalar.run(trace), scalar)
    fast = make_machine("auto")
    result = fast.run(trace)
    return sig_scalar, machine_signature(result, fast), result
