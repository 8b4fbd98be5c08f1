"""Window-level exposed-latency / MLP computation.

For each ROB window the core can overlap outstanding misses, limited by

1. **true dependencies** — a consumer load cannot issue before the load
   producing its address completes (the paper's Observation #2), and
2. **the MSHR/load-queue bound** — only ``mshr`` misses can be in flight
   at once, which caps achievable MLP regardless of window size (why a
   4x ROB buys almost nothing, Observation #1).

``exposed = max(dependency critical path, total DRAM latency / mshr)``
is the stall time the window cannot hide; MLP is total miss latency over
exposed time.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

__all__ = [
    "WindowTiming",
    "WindowTelemetry",
    "compute_window_timing",
    "compute_window_timing_sparse",
]


@dataclass
class WindowTiming:
    """Timing outcome of one ROB window."""

    exposed: float
    critical_path: float
    bandwidth_bound: float
    total_miss_latency: float
    latency_by_level: dict[str, float] = field(default_factory=dict)

    @property
    def mlp(self) -> float:
        """Average overlapped misses (≥1 when any miss latency exists)."""
        return self.total_miss_latency / self.exposed if self.exposed > 0 else 0.0

    def exposed_by_level(self) -> dict[str, float]:
        """Exposed cycles attributed to each service level, pro-rata."""
        if self.total_miss_latency <= 0:
            return {level: 0.0 for level in self.latency_by_level}
        scale = self.exposed / self.total_miss_latency
        return {lvl: lat * scale for lvl, lat in self.latency_by_level.items()}


class WindowTelemetry:
    """Core-side cumulative counters fed once per closed ROB window.

    The machine updates this (only when telemetry is enabled) right
    after timing each window, so per-interval deltas yield
    interval IPC and MLP; the histograms capture the distribution of
    per-window MLP and exposed latency that averages hide.
    """

    __slots__ = (
        "cycles",
        "instructions",
        "windows",
        "miss_latency",
        "exposed_latency",
        "_mlp_hist",
        "_exposed_hist",
    )

    def __init__(self) -> None:
        self.cycles = 0.0
        self.instructions = 0
        self.windows = 0
        self.miss_latency = 0.0
        self.exposed_latency = 0.0
        self._mlp_hist = None
        self._exposed_hist = None

    def register_telemetry(self, registry, prefix: str = "core") -> None:
        """Expose cumulative gauges and per-window histograms."""
        registry.gauge(prefix + ".cycles", lambda: self.cycles)
        registry.gauge(prefix + ".instructions", lambda: self.instructions)
        registry.gauge(prefix + ".windows", lambda: self.windows)
        registry.gauge(prefix + ".miss_latency", lambda: self.miss_latency)
        registry.gauge(prefix + ".exposed_latency", lambda: self.exposed_latency)
        registry.gauge(
            prefix + ".mlp",
            lambda: (
                self.miss_latency / self.exposed_latency
                if self.exposed_latency > 0
                else 0.0
            ),
        )
        self._mlp_hist = registry.histogram(
            prefix + ".window_mlp", (1, 2, 4, 8, 16)
        )
        self._exposed_hist = registry.histogram(
            prefix + ".window_exposed", (0, 50, 100, 200, 400, 800, 1600)
        )

    def on_window(
        self,
        miss_latency: float,
        exposed: float,
        instructions: int,
        cycles: float,
    ) -> None:
        """Account one closed window (``cycles`` = base + exposed)."""
        self.cycles += cycles
        self.instructions += instructions
        self.windows += 1
        self.miss_latency += miss_latency
        self.exposed_latency += exposed
        if self._mlp_hist is not None and miss_latency > 0:
            self._mlp_hist.observe(miss_latency / exposed if exposed > 0 else 0.0)
        if self._exposed_hist is not None:
            self._exposed_hist.observe(exposed)


def compute_window_timing(
    loads: list[tuple[int, int, str, float]],
    window_start: int,
    mshr: int = 10,
    load_queue: int | None = None,
) -> WindowTiming:
    """Compute the exposed latency of one window.

    Parameters
    ----------
    loads:
        Per-load tuples ``(ref_index, dep_index, level, latency)`` in
        program order; ``level`` is the servicing level name and
        ``latency`` the beyond-L1 cycles of that load.
    window_start:
        First trace index of the window — dependencies pointing before it
        are invisible to the ROB and ignored.
    mshr:
        Maximum in-flight misses.
    load_queue:
        Load-queue capacity.  Only this many loads can be in flight at
        once, so windows with more loads proceed in phases — the reason
        growing the ROB alone (Table I keeps LQ = 48) exposes no extra
        MLP in the paper's Fig. 3 experiment.  ``None`` disables the cap.
    """
    if mshr <= 0:
        raise ValueError("mshr must be positive")
    if load_queue is not None and load_queue <= 0:
        raise ValueError("load_queue must be positive")

    exposed = 0.0
    critical_max = 0.0
    bandwidth_total = 0.0
    total = 0.0
    by_level: dict[str, float] = {}
    phase_size = load_queue if load_queue is not None else max(len(loads), 1)
    for phase_begin in range(0, max(len(loads), 1), phase_size):
        phase = loads[phase_begin : phase_begin + phase_size]
        phase_start_index = (
            phase[0][0] if phase else window_start
        )
        completion: dict[int, float] = {}
        critical = 0.0
        dram_total = 0.0
        for ref_index, dep_index, level, latency in phase:
            start = 0.0
            # Producers before the window, or drained in an earlier
            # phase, no longer constrain issue.
            if dep_index >= max(window_start, phase_start_index):
                start = completion.get(dep_index, 0.0)
            done = start + latency
            completion[ref_index] = done
            if done > critical:
                critical = done
            if latency > 0:
                total += latency
                by_level[level] = by_level.get(level, 0.0) + latency
                if level == "DRAM":
                    dram_total += latency
        bandwidth_bound = dram_total / mshr
        exposed += max(critical, bandwidth_bound)
        critical_max = max(critical_max, critical)
        bandwidth_total += bandwidth_bound
    return WindowTiming(
        exposed=exposed,
        critical_path=critical_max,
        bandwidth_bound=bandwidth_total,
        total_miss_latency=total,
        latency_by_level=by_level,
    )


def compute_window_timing_sparse(
    sparse_loads: list[tuple[int, int, int, str, float]],
    num_loads: int,
    window_load_refs,
    window_start: int,
    mshr: int = 10,
    load_queue: int | None = None,
) -> tuple[float, float, dict[str, float]]:
    """:func:`compute_window_timing` over a sparse subset of a window's loads.

    The batch-replay engine materializes only the loads that can affect
    timing: loads with nonzero beyond-L1 latency, and zero-latency loads
    that a later load depends on (completion forwarding).  Every omitted
    load is a zero-latency L1 hit that no load depends on — its
    completion time equals its producer's (already counted toward the
    critical path) and its latency contributes nothing — so the result
    is bit-identical to the dense computation, including float summation
    order.

    Returns plain numbers, ``(exposed, total_miss_latency,
    latency_by_level)``: the fields of :class:`WindowTiming` the replay
    loop consumes, without building one per window.

    Parameters
    ----------
    sparse_loads:
        ``(ordinal, ref_index, dep_index, level, latency)`` tuples in
        program order, where ``ordinal`` is the load's position among
        *all* of the window's loads (phase chunking must see the full
        load count, not the sparse one).
    num_loads:
        Total loads in the window.
    window_load_refs:
        ``ordinal -> ref_index`` for the window's loads (only phase-start
        ordinals are read, to recover each phase's first trace index).
    """
    if mshr <= 0:
        raise ValueError("mshr must be positive")
    if load_queue is not None and load_queue <= 0:
        raise ValueError("load_queue must be positive")

    exposed = 0.0
    total = 0.0
    by_level: dict[str, float] = {}
    phase_size = load_queue if load_queue is not None else max(num_loads, 1)
    lo = 0
    for phase_begin in range(0, max(num_loads, 1), phase_size):
        phase_limit = phase_begin + phase_size
        # The phase's entries: a slice ending at the first ordinal past
        # the phase ((limit,) sorts before every (limit, ...) tuple).
        if phase_limit >= num_loads:
            hi = len(sparse_loads)
        else:
            hi = bisect_left(sparse_loads, (phase_limit,), lo)
        visible_from = (
            int(window_load_refs[phase_begin])
            if phase_begin < num_loads
            else window_start
        )
        if visible_from < window_start:
            visible_from = window_start
        completion: dict[int, float] = {}
        critical = 0.0
        dram_total = 0.0
        for _, ref_index, dep_index, level, latency in sparse_loads[lo:hi]:
            if dep_index >= visible_from:
                done = completion.get(dep_index, 0.0) + latency
            else:
                done = latency  # 0.0 + latency: latencies are >= 0
            completion[ref_index] = done
            if done > critical:
                critical = done
            if latency > 0:
                total += latency
                by_level[level] = by_level.get(level, 0.0) + latency
                if level == "DRAM":
                    dram_total += latency
        lo = hi
        bandwidth_bound = dram_total / mshr
        exposed += critical if critical >= bandwidth_bound else bandwidth_bound
    return exposed, total, by_level
