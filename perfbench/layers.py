"""Per-layer accounting for the benchmark, recorded from outside the program.

The benchmark wraps the call through which each simulator layer is
entered (graph build, trace generation, trace-cache load and store, the
runtime's point seam, replay planning, the replay loop, ledger writes,
the pareto frontier, HTTP requests and the service's accept, lease,
execute and settle steps).  Each thread keeps a stack of open spans;
when a span closes, its self time (duration minus the time covered by
the spans it opened) and one call are added to the operation that was
running when it opened.  Spans stay in memory and are folded
into metrics when the run ends, so nothing is written while the
benchmark measures.  With tracing off the benchmark installs none of
this.

The MPP chase runs once per structure prefetch fill, inside the replay
loop, far too often to wrap without slowing the loop: its calls are
counted from the MPP's own fill counter around each replay, and its time
stays in ``replay``.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict
from statistics import median

#: ``(layer, counter, module, attribute)``: the call each layer is
#: entered through.  Time goes to ``layer``; ``counter``, when given,
#: counts the calls that returned normally.
ENTRY_POINTS = (
    ("graph_build", "graphs_built", "repro.runtime.points", "TraceSpec.build_graph"),
    ("trace_gen", "traces_generated", "repro.runtime.points", "TraceSpec.trace"),
    ("trace_cache_load", "trace_cache_loads", "repro.runtime.trace_cache", "TraceCache._load"),
    ("trace_cache_store", None, "repro.runtime.trace_cache", "TraceCache.store"),
    ("point", "points", "repro.runtime.executor", "_execute_point"),
    ("plan_build", None, "repro.system.fastreplay", "_tables_for"),
    ("plan_build", "plan_builds", "repro.system.fastreplay", "plan_replay"),
    ("replay", None, "repro.system.machine", "Machine.run"),
    ("ledger_write", "ledger_records", "repro.runtime.ledger", "RunLedger.record"),
    ("frontier", None, "repro.search.tuner", "frontier_indices"),
    ("frontier", None, "repro.search.tuner", "domination_rank"),
    ("http", "http_requests", "repro.service.client", "_request"),
    ("service_engine", None, "repro.service.engine", "SweepService.submit"),
    ("service_engine", None, "repro.service.engine", "SweepService._claim"),
    ("service_engine", None, "repro.service.engine", "SweepService._execute"),
    ("service_engine", None, "repro.service.engine", "SweepService._settle_job"),
)

#: Layers whose share of operation time is reported, in report order.
LAYERS = tuple(dict.fromkeys(layer for layer, *_ in ENTRY_POINTS)) + ("unattributed",)

#: Call counters reported per operation, in report order.
COUNTERS = ("sim_refs", "mpp_chases") + tuple(
    dict.fromkeys(counter for _, counter, *_ in ENTRY_POINTS if counter)
)


def _resolve(module_name: str, attribute: str):
    """Return ``(owner, name, raw attribute)`` for a dotted attribute."""
    owner = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, inspect.getattr_static(owner, name)


def _mpp_fills(machine) -> int:
    """Structure fills the machine's MPP has chased so far (0 without one)."""
    return getattr(getattr(machine, "mpp", None), "structure_fills_seen", 0)


class LayerRecorder:
    """Installs the layer wrappers and aggregates spans per operation.

    Use as a context manager: the original attributes are restored on
    exit.  The harness sets :attr:`op` while an operation runs.
    """

    def __init__(self):
        self.op: int | None = None
        self._main = threading.get_ident()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        self.self_time: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.counts: dict[int, dict[str, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        #: Inclusive seconds inside ``Machine.run`` per operation.
        self.replay_time: dict[int, float] = defaultdict(float)
        #: Seconds of the harness thread covered by outermost spans.
        self.covered: dict[int, float] = defaultdict(float)

    # ------------------------------------------------------------------
    def __enter__(self) -> "LayerRecorder":
        for layer, counter, module_name, attribute in ENTRY_POINTS:
            try:
                owner, name, original = _resolve(module_name, attribute)
            except (ImportError, AttributeError):
                # A renamed entry point leaves its layer at zero rather than
                # failing the traced run.
                print(
                    "perfbench: layer %s: no %s.%s"
                    % (layer, module_name, attribute),
                    file=sys.stderr,
                )
                continue
            wrapper = self._timed(
                original, layer, counter, attribute == "Machine.run"
            )
            self._patched.append((owner, name, original))
            setattr(owner, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    def _timed(self, original, layer: str, counter: str | None, is_replay: bool):
        recorder = self
        local = self._local

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            op = recorder.op
            if is_replay:
                fills = _mpp_fills(args[0])
            frame = [0.0]  # seconds covered by child spans
            stack.append(frame)
            start = time.perf_counter()
            ok = False
            try:
                result = original(*args, **kwargs)
                ok = True
                return result
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                if op is not None:
                    with recorder._lock:
                        recorder.self_time[op][layer] += duration - frame[0]
                        if ok and counter is not None:
                            recorder.counts[op][counter] += 1
                        if is_replay:
                            recorder.replay_time[op] += duration
                            if ok:
                                recorder.counts[op]["sim_refs"] += len(args[1])
                                recorder.counts[op]["mpp_chases"] += (
                                    _mpp_fills(args[0]) - fills
                                )
                        if not stack and threading.get_ident() == recorder._main:
                            recorder.covered[op] += duration

        return wrapper

    # ------------------------------------------------------------------
    def layer_metrics(self, op_seconds: dict[int, float]) -> dict[str, float]:
        """Per-layer metrics: medians over operations, plus replay rate.

        Shares are self time as a percentage of the operation's wall
        time.  Layers executed by worker threads overlap the harness
        thread's wait, so shares of a concurrent workload may sum past
        100; ``unattributed`` is the harness thread's time outside every
        span.
        """
        ops = sorted(op_seconds)
        out: dict[str, float] = {}
        for layer in LAYERS:
            shares = []
            for op in ops:
                wall = op_seconds[op]
                if layer == "unattributed":
                    seconds = max(0.0, wall - self.covered[op])
                else:
                    seconds = self.self_time[op][layer]
                shares.append(100.0 * seconds / wall)
            out[layer + "_pct"] = median(shares)
        for counter in COUNTERS:
            out[counter] = median(self.counts[op][counter] for op in ops)
        replay = sum(self.replay_time[op] for op in ops)
        refs = sum(self.counts[op]["sim_refs"] for op in ops)
        out["replay_refs_per_s"] = refs / replay if replay > 0 else 0.0
        out["traced_op_s"] = median(op_seconds[op] for op in ops)
        return out
