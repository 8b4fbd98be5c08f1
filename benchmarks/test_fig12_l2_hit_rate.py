"""Bench: regenerate Fig. 12 (L2 hit rate under prefetching)."""

from repro.experiments import run_fig12


def test_fig12_l2_hit_rate(benchmark, bench_config, show, figure_results):
    result = benchmark.pedantic(
        run_fig12,
        args=(bench_config,),
        kwargs={"results": figure_results},
        rounds=1,
        iterations=1,
    )
    show(result)
    means = {r["workload"]: r for r in result.rows if r["dataset"] == "MEAN"}
    for workload, row in means.items():
        # Paper: DROPLET turns the underutilized L2 into a useful resource.
        assert row["droplet"] > row["none"], workload
