"""Bench: regenerate Fig. 3 (4x ROB: bandwidth delta and speedup)."""

from repro.experiments import run_fig03


def test_fig03_rob_sweep(benchmark, bench_config, show, full_scale, figure_results):
    result = benchmark.pedantic(
        run_fig03,
        args=(bench_config,),
        kwargs={"results": figure_results},
        rounds=1,
        iterations=1,
    )
    show(result)
    if full_scale:
        speedups = result.column("speedup")
        mean = sum(speedups) / len(speedups)
        # Paper: +1.44% average; we accept anything clearly "small".
        assert mean < 1.25
