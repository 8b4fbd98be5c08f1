"""Bench: regenerate Fig. 1 (cycle stack of PR on orkut)."""

from repro.experiments import run_fig01


def test_fig01_cycle_stack(benchmark, bench_config, show, figure_results):
    result = benchmark.pedantic(
        run_fig01,
        args=(bench_config,),
        kwargs={"results": figure_results},
        rounds=1,
        iterations=1,
    )
    show(result)
    row = result.rows[0]
    # Paper shape: DRAM stalls are the largest component, base is small.
    assert row["DRAM"] > row["base"]
    assert row["DRAM"] > 0.25
