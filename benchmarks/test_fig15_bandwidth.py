"""Bench: regenerate Fig. 15 (extra bandwidth, BPKI)."""

from repro.experiments import run_fig15


def test_fig15_bandwidth(benchmark, bench_config, show, figure_results):
    result = benchmark.pedantic(
        run_fig15,
        args=(bench_config,),
        kwargs={"results": figure_results},
        rounds=1,
        iterations=1,
    )
    show(result)
    extras = result.column("droplet_extra_%")
    mean_extra = sum(extras) / len(extras)
    # Paper: DROPLET's extra bandwidth is 6.5-19.9%; allow some headroom.
    assert mean_extra < 35
