"""Fast-path parity over the tuner's short rung windows.

The successive-halving tuner evaluates early rungs on truncated windows
(``max_refs`` cut by ``eta^k``), and a sweep point always replays on the
batch fast path.  Pruning decisions therefore depend on batch replay
agreeing with the scalar oracle *on short windows and under the
search's machine knobs* — a different surface than the full-trace
parity matrix in ``test_parity.py``.  :class:`OracleRunner` replays the
same points with ``simulate(..., fast_path="off")``: every summary
metric must match bit for bit, and so must the halving search built on
them.
"""

from __future__ import annotations

import pytest

from repro.reporting import summarize
from repro.runtime import RetryPolicy, SweepRunner, TraceCache
from repro.runtime.executor import resolve_point_config
from repro.runtime.points import PointResult
from repro.runtime.sweep import SweepReport
from repro.search.space import parse_space
from repro.system import SystemConfig, simulate

from ..regression.pareto_golden import SCALE_SHIFT, SPACE, make_search

WORKLOAD, DATASET = "PR", "kron"
#: The golden micro-space's rung-0 window.
RUNG0_REFS = 750


class OracleRunner:
    """The ``SweepRunner.run`` surface the tuner uses, on the scalar oracle."""

    def __init__(self, cache: TraceCache):
        self.cache = cache

    def run(self, points) -> SweepReport:
        base = SystemConfig.scaled_baseline()
        results = []
        for point in points:
            run, _ = self.cache.get_or_trace(point.trace_spec)
            result = simulate(
                run,
                config=resolve_point_config(point, base),
                setup=point.setup,
                multi_property=point.multi_property,
                fast_path="off",
            )
            results.append(
                PointResult(point=point, summary=summarize(result), result=result)
            )
        return SweepReport(points=results)


def fast_runner(cache: TraceCache) -> SweepRunner:
    return SweepRunner(
        workers=0,
        trace_cache=cache,
        return_full=True,
        retry=RetryPolicy(max_attempts=1),
    )


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return TraceCache(tmp_path_factory.mktemp("search-window") / "traces")


@pytest.fixture(scope="module")
def windows(cache):
    """The micro-space at its rung-0 window: scalar oracle vs fast path."""
    points = [
        c.point(WORKLOAD, DATASET, RUNG0_REFS, scale_shift=SCALE_SHIFT)
        for c in parse_space(SPACE)
    ]
    out = {}
    for mode, runner in (("off", OracleRunner(cache)), ("auto", fast_runner(cache))):
        report = runner.run(points)
        report.raise_errors()
        out[mode] = report.points
    return out


def test_rung0_summaries_are_bit_identical(windows):
    for scalar, fast in zip(windows["off"], windows["auto"]):
        assert scalar.point.label == fast.point.label
        assert scalar.summary == fast.summary, scalar.point.label


def test_auto_mode_actually_took_the_fast_path(windows):
    # The guard above would be vacuous if sweep points silently replayed
    # on the scalar loop.
    assert all(r.result.fast_path == "vector" for r in windows["auto"])
    assert all(r.result.fast_path is False for r in windows["off"])


def test_halving_under_the_oracle_matches_the_fast_path(cache):
    """The whole golden search — every rung, prune and promotion."""
    oracle = make_search().run(OracleRunner(cache))
    assert oracle == make_search().run(fast_runner(cache))
