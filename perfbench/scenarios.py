"""The benchmark's workloads: what a user of the simulator waits for.

Each scenario builds its inputs from the run's seed (the graph
generator's seed), so the same seed gives the same inputs, and follows
one protocol:

``prepare(k)``
    the timed set-up, run several times; the last one's state is kept.
``op(i)``
    one user-visible operation; raises on failure.
``check()``
    verifies the outputs after measuring; returns a list of problems.
``close()``
    releases what the scenario started; also called, untimed, between
    two set-ups.

Sizes follow the experiments' defaults (``ExperimentConfig``: graph
scale_shift 0, 200k references) unless a scenario says why not.  Where
a run must stay short, an operation covers fewer setups, not fewer
references.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

from repro.reporting import summarize
from repro.runtime import (
    RunLedger,
    SweepPoint,
    SweepRunner,
    TraceCache,
    TraceSpec,
)
from repro.runtime.executor import execute_point
from repro.runtime.ledger import point_key
from repro.runtime.trace_cache import trace_key
from repro.search import HalvingSchedule, ParetoSearch
from repro.search.frontier import frontier_indices, objective_vector, parse_objectives
from repro.search.space import parse_space
from repro.service import ServiceHTTPServer, SweepService, client
from repro.system.config import SystemConfig
from repro.system.runner import simulate


class Scenario:
    """Shared state: the run's seed and a private working directory."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.work = workdir

    def prepare(self, k: int) -> None:
        raise NotImplementedError

    def op(self, i: int) -> None:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def close(self) -> None:
        pass


def _mismatches(label: str, got: list[dict], want: list[dict]) -> list[str]:
    return [
        "%s: point %d differs from the scalar oracle" % (label, n)
        for n, (a, b) in enumerate(zip(got, want))
        if a != b
    ] + (
        ["%s: %d results, expected %d" % (label, len(got), len(want))]
        if len(got) != len(want)
        else []
    )


class Sweep(Scenario):
    """A cold experiment-scale sweep through the sweep runtime.

    PR on the default kron stand-in at experiment scale, with no
    prefetching and with DROPLET, through a disk trace cache and a run
    ledger.  Every operation uses a new graph seed, so it builds the
    graph, traces, stores the trace, plans and replays: what a user
    waits for on a first sweep.  Two setups rather than an experiment's
    six keep three operations inside one run.
    """

    WORKLOAD, DATASET, SCALE, REFS = "PR", "kron", 0, 200_000
    SETUPS = ("none", "droplet")

    def _points(self, i: int) -> list[SweepPoint]:
        return [
            SweepPoint(
                self.WORKLOAD, self.DATASET, setup,
                max_refs=self.REFS, scale_shift=self.SCALE,
                seed=self.seed * 1000 + i,
            )
            for setup in self.SETUPS
        ]

    def prepare(self, k: int) -> None:
        # The first operation's inputs, traced directly: the check replays
        # them on the scalar oracle.
        self.reference = self._points(0)[0].trace_spec.trace()
        self.first: list[dict] | None = None

    def op(self, i: int) -> None:
        runner = SweepRunner(
            return_full=False,
            trace_cache=TraceCache(self.work / "traces"),
            ledger=RunLedger("sweep-%d" % i, root=self.work / "runs"),
        )
        report = runner.run(self._points(i))
        report.raise_errors()
        if i == 0:
            self.first = report.summaries()

    def check(self) -> list[str]:
        if self.first is None:
            return ["sweep: the first operation produced no results"]
        oracle = [
            summarize(simulate(self.reference, setup=setup, fast_path="off"))
            for setup in self.SETUPS
        ]
        return _mismatches("sweep", self.first, oracle)


class Cascade(Scenario):
    """Replay of one resident experiment-scale trace: the per-reference cascade.

    BFS on the road stand-in (bounded degree, little reuse: the locality
    opposite of kron, which the ``sweep`` covers), replayed through the runtime's
    point seam under ``stream`` and ``droplet`` (batch fast path, vector
    tier, with the MPP chase) and ``monoDROPLETL1`` (degraded tier, whose
    windows fall back to scalar islands).  Each operation starts from a
    fresh trace object, so it plans once and replays three setups, as
    one trace's points do in a sweep.  No graph build or disk I/O.
    """

    WORKLOAD, DATASET, SCALE, REFS = "BFS", "road", 0, 200_000
    SETUPS = ("stream", "droplet", "monoDROPLETL1")

    def prepare(self, k: int) -> None:
        self.spec = TraceSpec(
            self.WORKLOAD, self.DATASET, max_refs=self.REFS,
            scale_shift=self.SCALE, seed=self.seed,
        )
        self.run = self.spec.trace()
        self.config = SystemConfig.scaled_baseline()
        self.results: list[list[dict]] = []

    def _point(self, setup: str) -> SweepPoint:
        return SweepPoint(
            self.WORKLOAD, self.DATASET, setup, max_refs=self.REFS,
            scale_shift=self.SCALE, seed=self.seed,
        )

    def op(self, i: int) -> None:
        fresh = dataclasses.replace(
            self.run, trace=dataclasses.replace(self.run.trace)
        )
        memo = {trace_key(self.spec): fresh}
        summaries = []
        for setup in self.SETUPS:
            result = execute_point(
                self._point(setup), self.config, TraceCache(enabled=False),
                memo, return_full=False,
            )
            if not result.ok:
                raise RuntimeError(result.error.traceback)
            summaries.append(result.summary)
        self.results.append(summaries)

    def check(self) -> list[str]:
        if not self.results:
            return ["cascade: no operation completed"]
        problems = [
            "cascade: operation %d differs from operation 0" % n
            for n, summaries in enumerate(self.results)
            if summaries != self.results[0]
        ]
        oracle = [
            summarize(simulate(self.run, setup=setup, fast_path="off"))
            for setup in self.SETUPS
        ]
        return problems + _mismatches("cascade", self.results[0], oracle)


class Pareto(Scenario):
    """A successive-halving pareto micro-search on a warm trace cache.

    PR on kron at scale_shift -3, objectives cycles and area, twelve
    candidates over three LLC sizes (the only area levels), three rungs
    with eta 2.  With at most three area levels a rung's frontier never
    exceeds the halving quota, so every seed evaluates the same 12 + 6 + 3
    points.  Each operation is a new search with its own ledger: it loads
    the rung traces from disk, replays, journals and prunes.

    The full window and graph scale are the experiments' quick scale
    (``ExperimentConfig.quick()``: 40k references, scale_shift -3): one
    search replays 21 points, which at experiment scale takes about
    13 s, too long for several searches in a run.
    """

    WORKLOAD, DATASET, SCALE, FULL_REFS = "PR", "kron", -3, 40_000
    SPACE = "setup=none,stream;llc=1,2,4;rob=128,256"
    OBJECTIVES = "cycles,area_mm2"

    def _search(self):
        return ParetoSearch(
            workload=self.WORKLOAD,
            dataset=self.DATASET,
            candidates=parse_space(self.SPACE),
            objectives=parse_objectives(self.OBJECTIVES),
            schedule=HalvingSchedule(full_refs=self.FULL_REFS, rungs=3, eta=2),
            scale_shift=self.SCALE,
            seed=self.seed,
        )

    def prepare(self, k: int) -> None:
        # Fill a new trace cache with every rung's window.
        self.cache = TraceCache(self.work / ("traces-%d" % k))
        graph = None
        for max_refs in self._search().schedule.windows():
            spec = TraceSpec(
                self.WORKLOAD, self.DATASET, max_refs=max_refs,
                scale_shift=self.SCALE, seed=self.seed,
            )
            if graph is None:
                graph = spec.build_graph()
            self.cache.get_or_trace(spec, graph=graph)
        self.reports: list[str] = []

    def op(self, i: int) -> None:
        runner = SweepRunner(
            return_full=False,
            trace_cache=self.cache,
            ledger=RunLedger("pareto-%d" % i, root=self.work / "runs"),
        )
        self.reports.append(json.dumps(self._search().run(runner), sort_keys=True))

    def check(self) -> list[str]:
        if not self.reports:
            return ["pareto: no operation completed"]
        problems = [
            "pareto: search %d differs from search 0" % n
            for n, report in enumerate(self.reports)
            if report != self.reports[0]
        ]
        report = json.loads(self.reports[0])
        if report["counters"]["evaluations"] != 21:
            problems.append(
                "pareto: %d evaluations, expected 12 + 6 + 3"
                % report["counters"]["evaluations"]
            )
        # Halving must keep exactly the frontier an exhaustive full-window
        # evaluation of the whole space finds.
        search = self._search()
        points = [
            c.point(self.WORKLOAD, self.DATASET, self.FULL_REFS,
                    scale_shift=self.SCALE, seed=self.seed)
            for c in search.candidates
        ]
        full = SweepRunner(return_full=False, trace_cache=self.cache).run(points)
        full.raise_errors()
        vectors = [
            objective_vector(r.summary, search.objectives) for r in full.points
        ]
        expected = sorted(
            search.candidates[i].label
            for i in frontier_indices(vectors, search.objectives)
        )
        found = sorted(entry["label"] for entry in report["frontier"])
        if found != expected:
            problems.append(
                "pareto: frontier %s, exhaustive search gives %s" % (found, expected)
            )
        return problems


class Service(Scenario):
    """Submit-to-results round trips against a warm in-process daemon.

    A ``repro serve`` engine (two worker threads, journal, leases,
    ledgers) behind its HTTP server on an ephemeral localhost port.  Set-up
    starts the daemon and primes it with one point, which builds the
    graph and trace it keeps in memory.  Each operation submits CC on
    kron under three setups with a memory-request-buffer
    size no earlier operation used, so the daemon executes every point
    rather than answering from its result cache, then polls status until
    the run finishes and fetches the results.  The graph is built at
    scale_shift -1: at 0, building it makes each set-up about 1 s
    longer, which the run has no time for.
    """

    WORKLOAD, DATASET, SCALE, REFS = "CC", "kron", -1, 200_000
    SETUPS = ("none", "stream", "droplet")
    #: Status polling interval of the round trip, seconds.
    POLL = 0.05

    server = None

    def _entry(self, setup: str, mrb: int | None) -> dict:
        return {
            "workload": self.WORKLOAD, "dataset": self.DATASET,
            "setup": setup, "max_refs": self.REFS,
            "scale_shift": self.SCALE, "seed": self.seed,
            "mrb_entries": mrb,
        }

    def _round_trip(self, run_id: str, entries: list[dict]) -> dict:
        url = self.server.url
        accepted = client.submit_sweep(
            url, {"points": entries, "retries": 0, "run_id": run_id}
        )
        while True:
            status = client.fetch_status(url, accepted["run_id"])
            if status.get("finished"):
                break
            time.sleep(self.POLL)
        failed = (status.get("states") or {}).get("failed", 0)
        if failed:
            raise RuntimeError("service run %s: %d failed point(s)" % (run_id, failed))
        return client.fetch_results(url, accepted["run_id"])["points"]

    def prepare(self, k: int) -> None:
        root = self.work / ("service-%d" % k)
        service = SweepService(
            root=root, workers=2, trace_cache=TraceCache(root / "traces")
        )
        self.server = ServiceHTTPServer(
            service, access_log=root / "service.access.jsonl"
        ).start()
        self._round_trip("prime", [self._entry("none", None)])
        self.last: tuple[list[dict], dict] | None = None

    def op(self, i: int) -> None:
        entries = [self._entry(setup, 512 + i) for setup in self.SETUPS]
        results = self._round_trip("op-%d" % i, entries)
        if len(results) != len(entries):
            raise RuntimeError(
                "service returned %d results for %d points"
                % (len(results), len(entries))
            )
        self.last = (entries, results)

    def check(self) -> list[str]:
        if self.last is None:
            return ["service: no operation completed"]
        entries, results = self.last
        memo: dict = {}
        config = SystemConfig.scaled_baseline()
        problems = []
        for entry in entries:
            point = SweepPoint(
                entry["workload"], entry["dataset"], entry["setup"],
                max_refs=entry["max_refs"], scale_shift=entry["scale_shift"],
                seed=entry["seed"], mrb_entries=entry["mrb_entries"],
            )
            local = execute_point(
                point, config, TraceCache(enabled=False), memo, return_full=False
            )
            remote = results.get(point_key(point), {}).get("summary")
            if not local.ok or remote != local.summary:
                problems.append(
                    "service: %s differs from in-process execution" % point.label
                )
        return problems

    def close(self) -> None:
        if self.server is not None:
            self.server.stop(drain_timeout=30.0)
            self.server = None


SCENARIOS = {
    "sweep": Sweep,
    "cascade": Cascade,
    "pareto": Pareto,
    "service": Service,
}
