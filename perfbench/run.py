"""End-to-end and per-layer benchmark of the repro simulator.

Run from anywhere inside a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Workloads (see ``scenarios.py``): ``sweep`` (cold experiment-scale
sweep), ``cascade`` (per-reference replay of a resident trace),
``pareto`` (successive-halving micro-search) and ``service`` (daemon
submit-to-results round trip).

A run sets up five times, then repeats the workload's operation until
``--seconds`` have passed (at least three times), then checks the
outputs against the scalar oracle or an exhaustive search.
``--trace 0`` reports the end-to-end metrics: the median set-up time and
the median operation time, both in seconds of a reference CPU (see
:class:`SpeedProbe`).  Scaling by the measured CPU speed cancels most of
a shared host's speed changes, which move raw times across runs by more
than any bound worth gating on; the raw times go to standard error.
``--trace 1`` wraps each layer's entry point (``layers.py``) and reports
per-layer shares of operation time and call counts instead.  The last
line of standard output is one JSON object.

All files go to a private directory under ``.perfbench-work/`` in the
checkout, removed when the run ends.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import os
import shutil
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
MIN_OPS = 3

#: Seconds between two probe samples.
PROBE_INTERVAL = 0.05
#: Probe sample time, in seconds, on the reference CPU that reported
#: times are scaled to (about what a 2.1 GHz server core takes).
PROBE_REFERENCE = 0.001


class SpeedProbe:
    """Samples the speed of the CPU the benchmark runs on.

    A background thread times a fixed interpreter loop (about a
    millisecond) in its own CPU time every :data:`PROBE_INTERVAL`
    seconds.  On a shared host the CPU switches between faster and
    slower phases lasting about a second; the mean sample over an
    interval says how fast the CPU was during it, and CPU time leaves
    out the waits for the interpreter lock.  The process is pinned to
    one CPU so that the probe and the measured work share it.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe")

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(PROBE_INTERVAL):
            start = time.thread_time()
            total, table = 0, {}
            for i in range(8_000):
                table[i & 1023] = total
                total += i * i & 0xFFFF
            self.samples.append((time.perf_counter(), time.thread_time() - start))

    def reference_seconds(self, start: float, end: float) -> tuple[float, int]:
        """``end - start`` scaled to the reference CPU's speed.

        Scales by the mean of the samples taken during the interval and
        the nearest one on each side, so an interval shorter than
        :data:`PROBE_INTERVAL` still has one.  Call it after the probe
        has stopped, when every interval has a sample after it.  With no
        sample at all the time is left unscaled.  Returns the scaled
        time and the number of samples used.
        """
        times = [t for t, _ in self.samples]
        first = max(bisect.bisect_left(times, start) - 1, 0)
        last = bisect.bisect_right(times, end) + 1
        used = [d for _, d in self.samples[first:last]]
        if not used:
            return end - start, 0
        return (end - start) * PROBE_REFERENCE / statistics.fmean(used), len(used)


def _per_layer_unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "count"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Put the checkout's ``src`` first on the path and import ``repro``.

    Exits with a non-zero status when the checkout holds no program, so
    the benchmark never measures some other installed copy.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit("perfbench: no program at %s" % (src / "repro"))
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit("perfbench: imported repro from %s" % repro.__file__)


def measure(scenario, seconds: float, recorder=None) -> dict:
    """Set up, repeat the operation for ``seconds``, then check.

    ``recorder`` (a :class:`layers.LayerRecorder`) is told which
    operation is running, so it can attribute spans to it.  Times are
    kept as ``(wall seconds, reference seconds)`` pairs.
    """
    setups: list[tuple[float, float]] = []
    ops: dict[int, tuple[float, float]] = {}
    attempted = failed = 0
    with SpeedProbe() as speed:
        for k in range(SETUP_REPEATS):
            if k:
                scenario.close()
            start = time.perf_counter()
            scenario.prepare(k)
            setups.append((start, time.perf_counter()))
        deadline = time.perf_counter() + seconds
        while attempted < MIN_OPS or time.perf_counter() < deadline:
            index = attempted
            attempted += 1
            if recorder is not None:
                recorder.op = index
            start = time.perf_counter()
            try:
                scenario.op(index)
            except Exception:
                failed += 1
                traceback.print_exc()
                continue
            finally:
                end = time.perf_counter()
                if recorder is not None:
                    recorder.op = None
            ops[index] = (start, end)
    problems = scenario.check() if ops else ["no operation succeeded"]
    for problem in problems:
        print("perfbench: incorrect: %s" % problem, file=sys.stderr)
    timed = {}
    for name, intervals in (("setups", setups), ("ops", list(ops.values()))):
        scaled = [speed.reference_seconds(start, end) for start, end in intervals]
        timed[name] = [
            (end - start, ref) for (start, end), (ref, _) in zip(intervals, scaled)
        ]
        print(
            "perfbench: %s wall %s s; reference %s s; probe samples %s"
            % (
                name,
                " ".join("%.3f" % wall for wall, _ in timed[name]),
                " ".join("%.3f" % ref for _, ref in timed[name]),
                " ".join(str(n) for _, n in scaled),
            ),
            file=sys.stderr,
        )
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "setups": timed["setups"],
        "ops": dict(zip(ops, timed["ops"])),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    # Threads inherit the affinity, so set it before any starts.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from layers import LayerRecorder
    from scenarios import SCENARIOS

    if args.workload not in SCENARIOS:
        sys.exit(
            "perfbench: unknown workload %r (choose from %s)"
            % (args.workload, ", ".join(SCENARIOS))
        )
    workdir = ROOT / ".perfbench-work" / ("%s-%d" % (args.workload, os.getpid()))
    workdir.mkdir(parents=True)
    # Anything the program would otherwise put under the home directory
    # stays in the private work directory.
    os.environ["REPRO_TRACE_CACHE"] = str(workdir / "traces-default")
    os.environ["REPRO_RUN_LEDGER"] = str(workdir / "runs-default")
    scenario = SCENARIOS[args.workload](args.seed, workdir)
    recorder = LayerRecorder() if args.trace else None
    try:
        with recorder or contextlib.nullcontext():
            outcome = measure(scenario, args.seconds, recorder)
    finally:
        scenario.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    ops = outcome["ops"]
    if not ops:
        return 1
    if args.trace:
        values = recorder.layer_metrics({i: wall for i, (wall, _) in ops.items()})
        metrics = {
            name: {"value": value, "unit": _per_layer_unit(name)}
            for name, value in values.items()
        }
    else:
        metrics = {
            "op_s": {
                "value": statistics.median(ref for _, ref in ops.values()),
                "unit": "s",
            },
            "setup_s": {
                "value": statistics.median(ref for _, ref in outcome["setups"]),
                "unit": "s",
            },
        }
    print(
        json.dumps(
            {
                "correct": outcome["correct"],
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
