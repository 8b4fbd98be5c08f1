"""Successive-halving pareto search over the machine design space.

The tuner evaluates every candidate configuration on a short trace
window first (rung 0), prunes the dominated tail, and promotes the
survivors to geometrically longer windows until the final rung runs the
full trace — so exploration cost concentrates on configurations that
stay competitive.  Pruning is *conservative by construction*: a rung
never drops a point on its own rung frontier (only dominated points are
eligible), and the reported frontier is recomputed exclusively from
full-window evaluations of the survivors, never from short-window
estimates.

Execution goes through the resilient :mod:`repro.runtime` machinery —
every evaluation is an ordinary :class:`~repro.runtime.points.SweepPoint`
journaled in the search's :class:`~repro.runtime.ledger.RunLedger` under
its content-addressed key (rung windows differ in ``max_refs``, so rungs
never collide).  An interrupted search resumed with the same spec
restores completed evaluations from the ledger and re-runs only the
remainder; because the report carries no timestamps, the resumed report
is byte-identical to an uninterrupted run's (``tests/search``).

With a service URL the tuner submits each rung to a running
``repro serve`` daemon instead (explicit-``points`` spec, deterministic
per-rung run ids so resubmission after a crash hits the service's result
cache) and harvests summaries from ``GET /sweeps/<id>/results``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

from ..runtime.ledger import point_key
from ..telemetry import spans as _spans
from .frontier import (
    Objective,
    domination_rank,
    frontier_indices,
    objective_vector,
)
from .report import build_report, point_entry
from .space import Candidate

__all__ = ["HalvingSchedule", "ParetoSearch", "SearchError"]


class SearchError(RuntimeError):
    """A rung left failed evaluations — the search cannot prune soundly.

    The ledger keeps every completed evaluation; re-running the same
    spec (``repro pareto --resume``) retries only the failures.
    """

    def __init__(self, message: str, failed: list[str] | None = None):
        super().__init__(message)
        self.failed = failed or []


@dataclass(frozen=True)
class HalvingSchedule:
    """Geometric rung windows: ``full_refs / eta^k`` up to the full trace."""

    full_refs: int
    rungs: int = 3
    eta: int = 2
    min_refs: int = 500

    def __post_init__(self) -> None:
        if self.full_refs <= 0:
            raise ValueError("full_refs must be positive")
        if self.rungs < 1:
            raise ValueError("at least one rung is required")
        if self.eta < 2:
            raise ValueError("eta must be >= 2 (nothing halves otherwise)")
        if self.min_refs <= 0:
            raise ValueError("min_refs must be positive")

    def windows(self) -> list[int]:
        """Strictly increasing ``max_refs`` per rung, ending at the full window."""
        raw = [
            max(self.min_refs, self.full_refs // self.eta ** (self.rungs - 1 - i))
            for i in range(self.rungs)
        ]
        raw[-1] = self.full_refs
        return sorted(dict.fromkeys(raw))


@dataclass
class ParetoSearch:
    """One workload/dataset design-space search (see module docstring)."""

    workload: str
    dataset: str
    candidates: list[Candidate]
    objectives: tuple[Objective, ...]
    schedule: HalvingSchedule
    scale_shift: int = 0
    seed: int | None = None
    #: Base URL of a running ``repro serve`` daemon; ``None`` executes
    #: locally through the runner passed to :meth:`run`.
    service: str | None = None
    #: Service submission knobs (mirrored into each rung's spec).
    retries: int = 2
    timeout: float | None = None
    service_poll: float = 0.5
    _log: object = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.workload = self.workload.upper()
        if not self.candidates:
            raise ValueError("the search space is empty")
        labels = [c.label for c in self.candidates]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate candidates: %s" % ", ".join(labels))
        self.candidates = sorted(self.candidates, key=lambda c: c.label)

    # ------------------------------------------------------------------
    def spec_dict(self) -> dict:
        """The search's full identity (what the digest fingerprints)."""
        return {
            "workload": self.workload,
            "dataset": self.dataset,
            "scale_shift": self.scale_shift,
            "seed": self.seed,
            "objectives": [o.as_dict() for o in self.objectives],
            "space": [c.knobs() for c in self.candidates],
            "windows": self.schedule.windows(),
            "eta": self.schedule.eta,
        }

    def spec_digest(self) -> str:
        blob = json.dumps(self.spec_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    # ------------------------------------------------------------------
    def run(self, runner=None) -> dict:
        """Execute the search; returns the ``repro-pareto-v1`` report dict."""
        if runner is None and self.service is None:
            raise ValueError("a SweepRunner or a service URL is required")
        windows = self.schedule.windows()
        trc = _spans.current()
        digest = self.spec_digest()
        if trc is not None:
            trc.meta(
                "pareto.run",
                workload=self.workload,
                dataset=self.dataset,
                candidates=len(self.candidates),
                rungs=len(windows),
                objectives=[o.name for o in self.objectives],
                spec_digest=digest,
            )
        active = list(self.candidates)
        rung_records: list[dict] = []
        evaluations = pruned_total = promoted_total = 0
        final_summaries: dict[str, dict] = {}
        for rung, max_refs in enumerate(windows):
            last = rung == len(windows) - 1
            span = None
            if trc is not None:
                span = trc.start(
                    "pareto.rung", rung=rung, max_refs=max_refs,
                    candidates=len(active),
                )
            summaries = self._evaluate(rung, max_refs, active, runner)
            evaluations += len(active)
            vectors = [
                objective_vector(summaries[c.label], self.objectives)
                for c in active
            ]
            front = set(frontier_indices(vectors, self.objectives))
            if last:
                survivors = list(active)
                pruned: list[Candidate] = []
                final_summaries = summaries
            else:
                keep = max(len(front), math.ceil(len(active) / self.schedule.eta))
                rank = domination_rank(vectors, self.objectives)
                order = sorted(
                    range(len(active)),
                    key=lambda i: (i not in front, rank[i], active[i].label),
                )
                kept = set(order[:keep])
                survivors = [c for i, c in enumerate(active) if i in kept]
                pruned = [c for i, c in enumerate(active) if i not in kept]
            rung_records.append(
                {
                    "rung": rung,
                    "max_refs": max_refs,
                    "candidates": [c.label for c in active],
                    "frontier": sorted(active[i].label for i in front),
                    "pruned": [c.label for c in pruned],
                    "promoted": [] if last else [c.label for c in survivors],
                }
            )
            pruned_total += len(pruned)
            if not last:
                promoted_total += len(survivors)
            if trc is not None:
                for candidate in pruned:
                    trc.event("pareto.prune", rung=rung, label=candidate.label)
                span.set(
                    frontier_size=len(front),
                    pruned=len(pruned),
                    promoted=0 if last else len(survivors),
                )
                trc.finish(span)
            self._say(
                "rung %d (%d refs): %d candidates, frontier %d, pruned %d"
                % (rung, max_refs, len(active), len(front), len(pruned))
            )
            active = survivors
        final_vectors = [
            objective_vector(final_summaries[c.label], self.objectives)
            for c in active
        ]
        front = set(frontier_indices(final_vectors, self.objectives))
        frontier_entries = [
            point_entry(c, final_summaries[c.label], self.objectives)
            for i, c in enumerate(active)
            if i in front
        ]
        dominated_entries = [
            point_entry(c, final_summaries[c.label], self.objectives)
            for i, c in enumerate(active)
            if i not in front
        ]
        if trc is not None:
            trc.meta(
                "pareto.finish",
                kind="F",
                rungs=len(rung_records),
                evaluations=evaluations,
                pruned=pruned_total,
                promoted=promoted_total,
                frontier_size=len(frontier_entries),
                dominated=len(self.candidates) - len(frontier_entries),
            )
        return build_report(
            workload=self.workload,
            dataset=self.dataset,
            scale_shift=self.scale_shift,
            seed=self.seed,
            objectives=self.objectives,
            candidates=self.candidates,
            windows=windows,
            eta=self.schedule.eta,
            spec_digest=digest,
            rung_records=rung_records,
            frontier_entries=frontier_entries,
            dominated_entries=dominated_entries,
            evaluations=evaluations,
            pruned=pruned_total,
            promoted=promoted_total,
        )

    # ------------------------------------------------------------------
    def _points(self, max_refs: int, active: list[Candidate]):
        return [
            c.point(
                self.workload,
                self.dataset,
                max_refs,
                scale_shift=self.scale_shift,
                seed=self.seed,
            )
            for c in active
        ]

    def _evaluate(
        self, rung: int, max_refs: int, active: list[Candidate], runner
    ) -> dict[str, dict]:
        """Evaluate one rung; returns ``{candidate label: summary}``.

        Raises :class:`SearchError` when any evaluation failed — pruning
        against a partially evaluated rung could drop a frontier point.
        """
        points = self._points(max_refs, active)
        if self.service is not None:
            summaries = self._evaluate_remote(rung, points)
        else:
            report = runner.run(points)
            failed = [r.point.label for r in report.errors()]
            if failed:
                raise SearchError(
                    "rung %d left %d failed evaluation(s): %s (completed "
                    "points are journaled; re-run the same spec with "
                    "--resume to retry only the failures)"
                    % (rung, len(failed), ", ".join(failed)),
                    failed=failed,
                )
            summaries = {
                point_key(r.point): r.summary for r in report.points
            }
        out: dict[str, dict] = {}
        missing = []
        for candidate, point in zip(active, points):
            summary = summaries.get(point_key(point))
            if summary is None:
                missing.append(candidate.label)
            else:
                out[candidate.label] = summary
        if missing:
            raise SearchError(
                "rung %d produced no result for: %s" % (rung, ", ".join(missing)),
                failed=missing,
            )
        return out

    def _evaluate_remote(self, rung: int, points) -> dict[str, dict]:
        """Submit one rung to the sweep service and harvest its results."""
        from ..service import client

        run_id = "par-%s-r%d" % (self.spec_digest(), rung)
        spec = {
            "points": [
                {
                    "workload": p.workload,
                    "dataset": p.dataset,
                    "setup": p.setup,
                    "max_refs": p.max_refs,
                    "scale_shift": p.scale_shift,
                    "seed": p.seed,
                    "llc_multiplier": p.llc_multiplier,
                    "l2_config": list(p.l2_config) if p.l2_config else None,
                    "rob_entries": p.rob_entries,
                    "mrb_entries": p.mrb_entries,
                }
                for p in points
            ],
            "retries": self.retries,
            "timeout": self.timeout,
            "run_id": run_id,
        }
        accepted = client.submit_sweep(self.service, spec, log=self._say)
        status = client.wait_for_run(
            self.service, accepted["run_id"], poll=self.service_poll
        )
        failed = int((status.get("states") or {}).get("failed", 0) or 0)
        if failed:
            raise SearchError(
                "rung %d: service run %s finished with %d failed point(s)"
                % (rung, accepted["run_id"], failed)
            )
        results = client.fetch_results(self.service, accepted["run_id"])
        return {
            key: entry.get("summary")
            for key, entry in results.get("points", {}).items()
        }

    def _say(self, message: str) -> None:
        if self._log is not None:
            self._log(message)
