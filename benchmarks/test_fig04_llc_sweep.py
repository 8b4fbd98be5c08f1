"""Bench: regenerate Fig. 4 (LLC capacity sweep, L2 sweep, off-chip mix)."""

from repro.experiments import run_fig04a, run_fig04b, run_fig04c


def test_fig04a_llc_capacity(benchmark, bench_config, show, figure_results):
    result = benchmark.pedantic(
        run_fig04a,
        args=(bench_config,),
        kwargs={"results": figure_results},
        rounds=1,
        iterations=1,
    )
    show(result)
    mean = result.rows[-1]
    assert mean["workload"] == "MEAN"
    # MPKI falls monotonically with LLC capacity, as in the paper.
    assert mean["mpki_1x"] >= mean["mpki_2x"] >= mean["mpki_4x"] >= mean["mpki_8x"]


def test_fig04b_l2_sweep(benchmark, bench_config, show, full_scale, figure_results):
    result = benchmark.pedantic(
        run_fig04b,
        args=(bench_config,),
        kwargs={"results": figure_results},
        rounds=1,
        iterations=1,
    )
    show(result)
    if full_scale:
        # Paper: negligible sensitivity — no-L2 within a few % of baseline.
        for row in result.rows:
            assert abs(row["speedup_no-L2"] - 1.0) < 0.15


def test_fig04c_offchip_by_type(benchmark, bench_config, show, figure_results):
    result = benchmark.pedantic(
        run_fig04c,
        args=(bench_config,),
        kwargs={"results": figure_results},
        rounds=1,
        iterations=1,
    )
    show(result)
    first, last = result.rows[0], result.rows[-1]
    prop_drop = first["property_offchip_%"] - last["property_offchip_%"]
    struct_drop = first["structure_offchip_%"] - last["structure_offchip_%"]
    # Paper: property benefits most from a larger LLC.
    assert prop_drop >= struct_drop
