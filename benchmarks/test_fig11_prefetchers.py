"""Bench: regenerate Fig. 11 (speedups of the six prefetcher configs).

This is the paper's headline result.  The per-cell table (Fig. 11a) and
the per-workload geomeans (Fig. 11b) print on completion.
"""

from repro.experiments import geomean, run_fig11a, run_fig11b


def test_fig11a_per_cell(benchmark, bench_config, show, figure_results):
    result = benchmark.pedantic(
        run_fig11a,
        args=(bench_config,),
        kwargs={"results": figure_results},
        rounds=1,
        iterations=1,
    )
    show(result)
    assert len(result.rows) == len(bench_config.workloads) * len(
        bench_config.datasets
    )


def test_fig11b_geomeans(bench_config, show, benchmark, full_scale, figure_results):
    result = benchmark.pedantic(
        run_fig11b,
        args=(bench_config,),
        kwargs={"results": figure_results},
        rounds=1,
        iterations=1,
    )
    show(result)
    if full_scale:
        droplet = result.column("droplet")
        stream = result.column("stream")
        ghb = result.column("ghb")
        # Paper shape: DROPLET improves on the baseline everywhere...
        assert geomean(droplet) > 1.05
        # ... beats the conventional streamer overall ...
        assert geomean(droplet) > geomean(stream)
        # ... and GHB is the weakest prefetcher.
        assert geomean(ghb) <= geomean(stream)
