"""Bench: regenerate Fig. 7 (hierarchy usage by data type)."""

from repro.experiments import run_fig07


def test_fig07_hierarchy_usage(benchmark, bench_config, show, figure_results):
    result = benchmark.pedantic(
        run_fig07,
        args=(bench_config,),
        kwargs={"results": figure_results},
        rounds=1,
        iterations=1,
    )
    show(result)
    struct_rows = [r for r in result.rows if r["type"] == "structure"]
    for row in struct_rows:
        # Paper: structure is serviced by the L1 and the DRAM; the private
        # L2 contributes almost nothing.
        assert row["L1_%"] + row["DRAM_%"] > 75
        assert row["L2_%"] < 20
