"""The full-system simulator: core model + hierarchy + MC + prefetchers.

``Machine.run`` replays an annotated trace through the inclusive cache
hierarchy and the banked DRAM, window by window (interval-style core
model), with the configured prefetcher setup injecting fills along the
way.  It produces a :class:`SimResult` carrying every statistic the
paper's figures need: cycle stacks, per-type MPKI at each level, L2 hit
rates, prefetch accuracy, and bus traffic.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from ..cache.hierarchy import CacheHierarchy
from ..core.cycles import CycleStack
from ..core.mlp import WindowTelemetry, compute_window_timing
from ..dram.model import DRAMModel
from ..dram.multichannel import MultiChannelDRAM
from ..droplet.composite import PrefetchSetup, make_prefetch_setup
from ..droplet.mpp import MPP
from ..memory.allocator import GraphLayout
from ..prefetch.stats import PrefetchLedger
from ..prefetch.stream import DataAwareStreamer
from ..trace.buffer import Trace
from ..trace.record import NO_DEP, DataType
from .config import SystemConfig
from .fastreplay import run_fast

__all__ = ["Machine", "SimResult", "RegionClassifier"]

_STRUCTURE = int(DataType.STRUCTURE)
_PROPERTY = int(DataType.PROPERTY)
_INTERMEDIATE = int(DataType.INTERMEDIATE)
_DATA_TYPES = {int(dt): dt for dt in DataType}


class RegionClassifier:
    """Fast byte-address → :class:`DataType` classification via bisect."""

    def __init__(self, layout: GraphLayout | None):
        self._bases: list[int] = []
        self._ends: list[int] = []
        self._kinds: list[int] = []
        if layout is not None:
            for region in layout.space.sorted_regions():
                self._bases.append(region.base)
                self._ends.append(region.end)
                self._kinds.append(int(region.kind))

    def classify(self, addr: int) -> int:
        """Data type of ``addr`` (INTERMEDIATE for unknown addresses)."""
        i = bisect.bisect_right(self._bases, addr) - 1
        if i >= 0 and addr < self._ends[i]:
            return self._kinds[i]
        return _INTERMEDIATE


@dataclass
class SimResult:
    """Everything measured by one simulation run."""

    trace_name: str
    setup_name: str
    instructions: int
    cycles: float
    cycle_stack: CycleStack
    hierarchy: CacheHierarchy
    dram: DRAMModel
    ledger: PrefetchLedger
    mpp: MPP | None
    total_miss_latency: float = 0.0
    total_exposed_latency: float = 0.0
    refs_by_type: dict[DataType, int] = field(default_factory=dict)
    #: Which replay path produced this result: ``False`` for the scalar
    #: reference loop, ``"vector"`` for the batch fast path (results are
    #: bit-identical either way; see ``tests/parity``).
    fast_path: str | bool = False

    # ------------------------------------------------------------------
    @property
    def ipc(self) -> float:
        """Instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def mlp(self) -> float:
        """Average overlap of outstanding miss latency."""
        if self.total_exposed_latency <= 0:
            return 0.0
        return self.total_miss_latency / self.total_exposed_latency

    def speedup_vs(self, baseline: "SimResult") -> float:
        """Speedup over a baseline run of the *same trace*."""
        if baseline.trace_name != self.trace_name:
            raise ValueError(
                "speedup requires identical traces (%r vs %r)"
                % (self.trace_name, baseline.trace_name)
            )
        return baseline.cycles / self.cycles if self.cycles else 0.0

    # ------------------------------------------------------------------
    def llc_mpki(self, kind: DataType | None = None) -> float:
        """LLC demand misses per kilo-instruction (per type if given)."""
        stats = self.hierarchy.l3.stats
        if kind is None:
            return stats.mpki(self.instructions)
        return stats.mpki_of(kind, self.instructions)

    def l2_hit_rate(self) -> float:
        """Aggregate private-L2 demand hit rate."""
        if self.hierarchy.l2s is None:
            return 0.0
        hits = sum(c.stats.total_hits for c in self.hierarchy.l2s)
        total = sum(c.stats.total_accesses for c in self.hierarchy.l2s)
        return hits / total if total else 0.0

    def offchip_fraction(self, kind: DataType) -> float:
        """Fraction of ``kind`` references serviced by DRAM (Fig. 4c)."""
        refs = self.refs_by_type.get(kind, 0)
        if refs == 0:
            return 0.0
        return self.hierarchy.l3.stats.misses[kind] / refs

    def bpki(self) -> float:
        """DRAM bus accesses per kilo-instruction (Fig. 15)."""
        return self.dram.stats.bpki(self.instructions)

    def dram_bandwidth_utilization(self) -> float:
        """Fraction of peak DRAM bandwidth consumed (Fig. 3a)."""
        return self.dram.utilization(int(self.cycles))

    def prefetch_accuracy(self, kind: DataType | None = None) -> float:
        """Useful/issued over all issuers (Fig. 14)."""
        issued = useful = 0
        for counters in self.ledger.counters.values():
            if kind is None:
                issued += counters.total_issued
                useful += counters.total_useful
            else:
                issued += counters.issued[kind]
                useful += counters.useful[kind]
        return useful / issued if issued else 0.0


class Machine:
    """A configured machine ready to replay traces."""

    def __init__(
        self,
        config: SystemConfig | None = None,
        layout: GraphLayout | None = None,
        setup: PrefetchSetup | str | None = None,
        chased_property: str | tuple[str, ...] | None = None,
        telemetry=None,
        fast_path: str = "auto",
    ):
        self.config = config or SystemConfig.scaled_baseline()
        if isinstance(setup, str):
            setup = make_prefetch_setup(setup)
        self.setup = setup or make_prefetch_setup("none")
        self.layout = layout
        self.hierarchy = CacheHierarchy(
            self.config.l1, self.config.l2, self.config.l3, self.config.num_cores
        )
        if self.config.num_mcs > 1:
            self.dram = MultiChannelDRAM(self.config.dram, self.config.num_mcs)
        else:
            self.dram = DRAMModel(self.config.dram)
        #: §VI: property prefetches forwarded to a different MC than the
        #: one whose structure fill generated them.
        self.mpp_forwarded = 0
        self.ledger = PrefetchLedger()
        self.classifier = RegionClassifier(layout)
        self.mpp: MPP | None = None
        if self.setup.use_mpp:
            if layout is None:
                raise ValueError("an MPP-based setup requires a GraphLayout")
            self.mpp = MPP(layout.space.page_table, self.setup.mpp_config)
            prop = chased_property or next(iter(layout.properties))
            self.mpp.configure_from_layout(layout, prop)
        self._streamer_is_data_aware = isinstance(
            self.setup.l2_prefetcher, DataAwareStreamer
        )
        if self.setup.imp_engine is not None and layout is None:
            raise ValueError("the IMP setup requires a GraphLayout (index values)")
        self._line_size = self.config.l3.line_size
        # Read on every prefetch issue (a property chain on the config).
        self._dram_path = self.config.dram_base_latency
        self.fast_path = self._resolve_fast_path(fast_path)
        # Telemetry off is ``None``: the run loop guards on a plain
        # ``is not None``, so an absent session costs exactly nothing.
        self._telemetry = telemetry
        # Eviction events beyond writebacks and the ledger's L3 claims
        # only feed the event trace.
        self.hierarchy.trace_evictions = telemetry is not None
        self._window_telemetry: WindowTelemetry | None = None
        self._attribution = None
        if telemetry is not None:
            self._bind_telemetry(telemetry)

    def _bind_telemetry(self, telemetry) -> None:
        """Register every component's stats into the telemetry registry.

        Telemetry only *reads* simulator state (pull-gauges) and is fed
        at window boundaries, so binding a session never changes
        simulated results.
        """
        telemetry.attach("machine/%s" % self.setup.name)
        registry = telemetry.registry
        self.hierarchy.register_telemetry(registry, "cache")
        self.dram.register_telemetry(registry, "dram")
        self.ledger.register_telemetry(registry, "prefetch")
        # Pre-create the configured issuers so per-issuer columns exist
        # from the first sample (zero counters don't alter summaries).
        self.ledger.counters_for(self.setup.l2_prefetcher.name)
        if self.setup.imp_engine is not None:
            self.ledger.counters_for("imp")
        self.setup.l2_prefetcher.register_telemetry(registry, "prefetch.engine")
        if self.mpp is not None:
            self.ledger.counters_for("mpp")
            self.mpp.register_telemetry(registry, "droplet.mpp")
            registry.gauge("droplet.forwarded", lambda: self.mpp_forwarded)
            self.mpp.telemetry = telemetry
        self._window_telemetry = WindowTelemetry()
        self._window_telemetry.register_telemetry(registry, "core")
        if getattr(telemetry, "attribution", False):
            self._bind_attribution(telemetry, registry)

    def _bind_attribution(self, telemetry, registry) -> None:
        """Attach the attribution profiler + prefetch pollution tracker.

        Both are observers: the profiler is fed from the run loop behind
        the same ``is not None`` guard style as the event trace, and the
        pollution tracker hangs off the hierarchy's fill/miss paths.
        Neither changes residency or timing, so simulated results stay
        bit-identical (asserted by ``tests/telemetry/test_overhead.py``).
        """
        from ..telemetry.attribution import AttributionProfiler

        l2_lines = (
            self.hierarchy.l2s[0].config.num_lines
            if self.hierarchy.l2s is not None
            else None
        )
        l3_lines = self.hierarchy.l3.config.num_lines
        profiler = AttributionProfiler(
            layout=self.layout,
            line_size=self._line_size,
            l2_lines=l2_lines,
            l3_lines=l3_lines,
            classify=getattr(telemetry, "classify_misses", True),
        )
        profiler.register_telemetry(registry, "attribution")
        capacities = {"L3": l3_lines}
        if l2_lines is not None:
            capacities["L2"] = l2_lines
        if self.setup.fill_into_l1:
            capacities["L1"] = self.hierarchy.l1s[0].config.num_lines
        tracker = self.ledger.enable_pollution_tracking(capacities)
        self.hierarchy.pollution = tracker
        profiler.pollution = tracker
        self._attribution = profiler
        telemetry.attribution_profiler = profiler

    # ------------------------------------------------------------------
    # Prefetch issue paths
    # ------------------------------------------------------------------
    def _issue_stream_prefetch(
        self, line: int, core: int, now: float, issuer: str | None = None
    ) -> bool:
        """Issue one L2-prefetcher candidate; returns whether issued."""
        hierarchy = self.hierarchy
        ledger = self.ledger
        if hierarchy.on_chip(line) or ledger.is_tracked(line):
            return False
        kind = self.classifier.classify(line * self._line_size)
        latency = self.dram.access(line, int(now), True)
        ready = now + latency + self._dram_path
        issuer = issuer or self.setup.l2_prefetcher.name
        hierarchy.prefetch_fill(core, line, kind, self.setup.fill_into_l1, issuer)
        ledger.issue(line, _DATA_TYPES[kind], ready, issuer)
        if self._telemetry is not None:
            self._telemetry.emit(
                now, "prefetch_issue", line=line, core=core, dtype=kind, detail=issuer
            )
        imp = self.setup.imp_engine
        if imp is not None and kind == _STRUCTURE and issuer != "imp":
            # IMP also scans *prefetched* index lines on their fill path —
            # that is where its indirect lookahead comes from.
            values = self.layout.scan_structure_line(
                line * self._line_size, self._line_size
            )
            for cand in imp.observe_index_values(values):
                self._issue_stream_prefetch(cand, core, ready, issuer="imp")
        if self.mpp is not None and self.setup.mpp_trigger == "prefetch":
            if self.setup.mpp_config.identifies_structure:
                is_structure = self.mpp.classifies_as_structure(line)
            else:
                # DROPLET proper: the C-bit the data-aware streamer sets
                # on its requests *is* the structure guarantee (paper
                # §V-C1).
                is_structure = self._streamer_is_data_aware
            if is_structure:
                self._chase_properties(line, core, ready)
        return True

    def _chase_properties(self, structure_line: int, core: int, fill_ready: float) -> None:
        """MPP reaction to one structure prefetch fill.

        A property line already on chip is copied from the inclusive LLC
        into the requesting core's private L2 (paper §V-A); any other is
        fetched from DRAM into the LLC and L2.
        """
        tel = self._telemetry
        if tel is not None:
            tel.emit(
                fill_ready,
                "mpp_chase",
                line=structure_line,
                core=core,
                dtype="structure",
            )
        dram = self.dram
        access = dram.access
        hierarchy = self.hierarchy
        copy_to_l2 = hierarchy.copy_to_l2
        prefetch_fill = hierarchy.prefetch_fill
        ledger = self.ledger
        is_tracked = ledger.is_tracked
        issue = ledger.issue
        penalty = self.setup.mpp_issue_penalty
        into_l1 = self.setup.fill_into_l1
        l3_lat = self.config.l3_service_latency
        pf_dt = DataType.PROPERTY
        multi_mc = isinstance(dram, MultiChannelDRAM)
        home_mc = dram.mc_of(structure_line) if multi_mc else 0
        targets = self.mpp.scan_targets(structure_line, core)
        for pline, issue_delay in targets.items():
            if multi_mc and dram.mc_of(pline) != home_mc:
                # Forward the request (with core ID) to the destination
                # MC's MRB, as in [52] / paper §VI.
                self.mpp_forwarded += 1
                if tel is not None:
                    tel.emit(
                        fill_ready,
                        "mpp_forward",
                        line=pline,
                        core=core,
                        dtype="property",
                    )
            if is_tracked(pline):
                continue
            issue_time = fill_ready + issue_delay + penalty
            if copy_to_l2(core, pline, _PROPERTY, "mpp"):
                ready = issue_time + l3_lat
            else:
                ready = issue_time + access(pline, int(issue_time), True)
                prefetch_fill(core, pline, _PROPERTY, into_l1, "mpp")
            issue(pline, pf_dt, ready, "mpp")

    @staticmethod
    def _resolve_fast_path(mode: str) -> str | bool:
        """Map the replay selector to the path taken.

        ``"auto"`` takes the batch fast path (``"vector"``) for every
        prefetch setup; ``"off"`` takes the scalar reference loop
        (``False``).  Nothing else is a selector, booleans included:
        ``bool("off")`` is true, so coercing would replay ``"off"`` on
        the fast path.
        """
        if mode == "auto":
            return "vector"
        if mode == "off":
            return False
        raise ValueError("fast_path must be 'auto' or 'off' (got %r)" % (mode,))

    def _plan_key(self) -> tuple[int, int, int]:
        """Replay-plan cache key: exactly the geometry the planner reads.

        A plan (and its derived tables) cached on a trace is reusable
        across machines and prefetch setups as long as this key matches;
        any other L1 geometry must replan.
        """
        l1cfg = self.config.l1
        return (self._line_size, l1cfg.num_sets, l1cfg.associativity)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, trace: Trace) -> SimResult:
        """Replay ``trace`` and return the measured statistics.

        Takes the batch-replay fast path when enabled (results are
        bit-identical either way); :meth:`_run_scalar` is the reference
        implementation.  With a span recorder active the replay is
        wrapped in a ``machine.run`` span annotated with the replay tier
        taken.
        """
        from ..telemetry.spans import current as _spans_current

        trc = _spans_current()
        if trc is None:
            return self._interleave([trace])[0]
        with trc.span(
            "machine.run",
            trace=trace.name,
            setup=self.setup.name,
            tier=self.fast_path or "scalar",
        ):
            return self._interleave([trace])[0]

    def _interleave(self, traces: list[Trace]) -> list[SimResult]:
        """Replay each trace on its own core, window by window.

        Each core's replay is a generator — the batch fast path
        (:func:`~repro.system.fastreplay.run_fast`) or the scalar oracle
        (:meth:`_run_scalar`) — that yields the core's clock at every
        ROB-window close.  The least-advanced core always runs next
        (ties go to the earlier trace), so the cores contend for the
        shared LLC, DRAM and prefetchers in per-core virtual time; one
        trace is plain single-core replay.  Returns one result per
        trace, in order.
        """
        hierarchy = self.hierarchy
        if self.fast_path:
            # One poison set per core: the hierarchy logs every L1 line
            # it back-invalidates into the owning core's set.
            hierarchy.l1_inval_logs = [set() for _ in hierarchy.l1s]
            cores = [run_fast(self, trace) for trace in traces]
        else:
            cores = [self._run_scalar(trace) for trace in traces]
        clocks = [0.0] * len(cores)
        results: list = [None] * len(cores)
        active = list(range(len(cores)))
        try:
            while active:
                k = min(active, key=clocks.__getitem__)
                try:
                    clocks[k] = next(cores[k])
                except StopIteration as done:
                    results[k] = done.value
                    active.remove(k)
        finally:
            hierarchy.l1_inval_logs = None
        return results

    def _finish(
        self,
        trace: Trace,
        clock: float,
        stack: CycleStack,
        total_miss_latency: float,
        total_exposed: float,
        phase_ptr: int,
        fast_path: str | bool = False,
    ) -> SimResult:
        """Close one core's replay: flush telemetry, package the result."""
        tel = self._telemetry
        if tel is not None:
            # Flush phase marks past the last window close (including a
            # boundary hit exactly when the reference budget ran out).
            phase_marks = getattr(trace, "phases", [])
            n = len(trace)
            while phase_ptr < len(phase_marks):
                tel.record_phase(phase_marks[phase_ptr][1], clock, n)
                phase_ptr += 1
            tel.finish(clock, n)
            # Detach the session from the MPP: the run is over, and the
            # returned SimResult must stay picklable (the registry's
            # closure-backed gauges are not).
            if self.mpp is not None:
                self.mpp.telemetry = None
        refs_by_type = {
            dt: int((trace.kind == int(dt)).sum()) for dt in DataType
        }
        return SimResult(
            trace_name=trace.name,
            setup_name=self.setup.name,
            instructions=trace.num_instructions,
            cycles=clock,
            cycle_stack=stack,
            hierarchy=self.hierarchy,
            dram=self.dram,
            ledger=self.ledger,
            mpp=self.mpp,
            total_miss_latency=total_miss_latency,
            total_exposed_latency=total_exposed,
            refs_by_type=refs_by_type,
            fast_path=fast_path,
        )

    def _run_scalar(self, trace: Trace):
        """Reference per-reference replay loop (the parity oracle).

        A generator: yields the core's clock at every ROB-window close
        and returns the :class:`SimResult` (see :meth:`_interleave`).
        """
        cfg = self.config
        hierarchy = self.hierarchy
        dram = self.dram
        ledger = self.ledger
        prefetcher = self.setup.l2_prefetcher
        imp = self.setup.imp_engine
        events = hierarchy.events

        # Plain Python lists iterate ~2x faster than numpy scalars here.
        lines = (trace.addr // self._line_size).tolist()
        kinds = trace.kind.tolist()
        is_load = trace.is_load.tolist()
        deps = trace.dep.tolist()
        gaps = trace.gap.tolist()
        n = len(trace)
        core = trace.core

        l2_lat = cfg.l2_service_latency
        l3_lat = cfg.l3_service_latency
        dram_path = cfg.dram_base_latency
        dispatch = cfg.dispatch_width
        rob = cfg.rob_entries
        mshr = cfg.mshr_entries
        lq = cfg.load_queue

        has_feedback = hasattr(prefetcher, "feedback")
        clock = 0.0
        stack = CycleStack()
        total_miss_latency = 0.0
        total_exposed = 0.0
        window_loads: list[tuple[int, int, str, float]] = []
        window_start = 0
        instr_in_window = 0
        budget = cfg.prefetch_budget_per_window

        # Telemetry (None when disabled): sampling and phase handling
        # happen only at window boundaries; event emission sits behind
        # per-site ``tel is not None`` guards.  Nothing below mutates
        # simulator state, so results are identical either way.
        tel = self._telemetry
        wintel = self._window_telemetry
        attr = self._attribution
        phase_marks = getattr(trace, "phases", [])
        phase_ptr = 0
        num_phase_marks = len(phase_marks) if tel is not None else 0

        for i in range(n):
            now = clock + instr_in_window / dispatch
            instr_in_window += 1 + gaps[i]
            line = lines[i]
            kind = kinds[i]
            load = is_load[i]

            outcome = hierarchy.demand_access(core, line, kind, is_store=not load)
            level = outcome.level
            if attr is not None and level != "L1":
                # The L2's reference stream is exactly the L1 misses;
                # attribution reads but never writes simulator state.
                attr.on_demand_access(level, line)
            if level == "L1":
                latency = 0.0
            elif level == "L2":
                latency = float(l2_lat)
            elif level == "L3":
                latency = float(l3_lat)
            else:  # DRAM
                latency = float(dram.access(line, int(now)) + dram_path)
                if tel is not None:
                    tel.emit(now, "dram_demand", line=line, core=core, dtype=kind)
                if (
                    self.mpp is not None
                    and self.setup.mpp_trigger == "demand"
                    and kind == _STRUCTURE
                ):
                    # Table IV counterfactual: chase structure *demand*
                    # fills.  The structure line reaches the MC at
                    # ``now + latency``; property prefetches start there —
                    # typically too late for the imminent consumer loads.
                    self._chase_properties(line, core, now + latency)

            if outcome.prefetched:
                residual = ledger.claim_demand(line, now)
                if residual > 0:
                    latency += residual

            if load:
                window_loads.append((i, deps[i], level, latency))

            if events:
                if tel is not None:
                    for ev in events:
                        tel.emit(now, ev.kind, line=ev.line, detail=ev.level)
                for ev in events:
                    if ev.kind == "writeback":
                        dram.writeback(ev.line, int(now))
                    elif ev.kind == "evict_unused_pf" and ev.level == "L3":
                        ledger.claim_eviction(ev.line)
                events.clear()

            if level != "L1":
                # The L2-attached prefetchers snoop every L1 miss address
                # (paper Fig. 9); structure tagging comes from the page
                # table bit, which our allocator guarantees equals the
                # data type.
                candidates = prefetcher.observe_miss(
                    line, kind, kind == _STRUCTURE, core
                )
                for cand in candidates:
                    if budget <= 0:
                        break
                    if self._issue_stream_prefetch(cand, core, now):
                        budget -= 1
                if imp is not None:
                    if kind == _STRUCTURE:
                        # The index line arrives at the L1; IMP sees the
                        # values inside it and chases active patterns.
                        values = self.layout.scan_structure_line(
                            line * self._line_size, self._line_size
                        )
                        imp_candidates = imp.observe_index_values(values)
                        for cand in imp_candidates:
                            if budget <= 0:
                                break
                            if self._issue_stream_prefetch(
                                cand, core, now, issuer="imp"
                            ):
                                budget -= 1
                    else:
                        imp.observe_miss(line, kind, False, core)

            if instr_in_window >= rob:
                timing = compute_window_timing(window_loads, window_start, mshr, lq)
                base = instr_in_window / dispatch
                clock += base + timing.exposed
                stack.add_window(base, timing.exposed_by_level(), instr_in_window)
                total_miss_latency += timing.total_miss_latency
                total_exposed += timing.exposed
                if tel is not None:
                    wintel.on_window(
                        timing.total_miss_latency,
                        timing.exposed,
                        instr_in_window,
                        base + timing.exposed,
                    )
                    while (
                        phase_ptr < num_phase_marks
                        and phase_marks[phase_ptr][0] <= i + 1
                    ):
                        tel.record_phase(phase_marks[phase_ptr][1], clock, i + 1)
                        phase_ptr += 1
                    tel.on_window(clock, i + 1)
                window_loads = []
                window_start = i + 1
                instr_in_window = 0
                budget = cfg.prefetch_budget_per_window
                if has_feedback:
                    # Feedback-directed prefetching [53]: hand the issuer
                    # its own cumulative accuracy/lateness counters.
                    counters = ledger.counters.get(prefetcher.name)
                    if counters is not None:
                        prefetcher.feedback(
                            counters.total_issued,
                            counters.total_useful,
                            sum(counters.late.values()),
                        )
                yield clock

        if instr_in_window > 0 or window_loads:
            timing = compute_window_timing(window_loads, window_start, mshr, lq)
            base = instr_in_window / dispatch
            clock += base + timing.exposed
            stack.add_window(base, timing.exposed_by_level(), instr_in_window)
            total_miss_latency += timing.total_miss_latency
            total_exposed += timing.exposed
            if tel is not None:
                wintel.on_window(
                    timing.total_miss_latency,
                    timing.exposed,
                    instr_in_window,
                    base + timing.exposed,
                )

        return self._finish(
            trace, clock, stack, total_miss_latency, total_exposed, phase_ptr
        )
