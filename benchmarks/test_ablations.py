"""Ablations of DROPLET's design decisions (paper Table IV).

Each Table IV decision is tested against its counterfactual:

* **When to prefetch** — chase structure *prefetches* (DROPLET) vs.
  chase structure *demands* (too late: chains are short).
* **Where to put prefetched data** — fill the L2 (DROPLET) vs. fill the
  L1 as well (pollutes the one cache that is actually useful).
* **Decoupling** — MPP at the MC (zero issue penalty) vs. progressively
  longer refill-path penalties, isolating the timeliness benefit the
  monolithic-L1 design gives up.
* **Streamer reach** — prefetch distance sweep around Table V's 16.
* **Multi-property chasing** (paper §VI) — BC gathers depth/sigma/delta
  through the same IDs; chasing all three vs. only the primary array.
"""

from repro.droplet.composite import PrefetchSetup
from repro.droplet.mpp import MPPConfig
from repro.experiments import ExperimentConfig, get_trace_run
from repro.prefetch.stream import DataAwareStreamer
from repro.system import simulate


def _droplet_setup(**overrides) -> PrefetchSetup:
    base = dict(
        name=overrides.pop("name", "droplet-variant"),
        l2_prefetcher=DataAwareStreamer(**overrides.pop("streamer_kwargs", {})),
        use_mpp=True,
        mpp_config=MPPConfig(identifies_structure=False),
    )
    base.update(overrides)
    return PrefetchSetup(**base)


def _cell(bench_config, workload="PR", dataset="kron"):
    if workload not in bench_config.workloads:
        workload = bench_config.workloads[0]
    if dataset not in bench_config.datasets:
        dataset = bench_config.datasets[0]
    return get_trace_run(
        workload, dataset, bench_config.max_refs, bench_config.scale_shift
    )


def test_ablation_mpp_trigger(benchmark, bench_config, show, full_scale):
    """Table IV 'when to prefetch': prefetch-triggered beats demand-triggered."""
    run = _cell(bench_config)

    def sweep():
        base = simulate(run, setup="none")
        rows = []
        for trigger in ("prefetch", "demand"):
            res = simulate(run, setup=_droplet_setup(name="droplet-" + trigger, mpp_trigger=trigger))
            late = sum(c.late[1] for c in res.ledger.counters.values())
            useful = sum(c.useful[1] for c in res.ledger.counters.values())
            rows.append(
                {
                    "mpp_trigger": trigger,
                    "speedup": round(res.speedup_vs(base), 3),
                    "late_prop_pf_%": round(100 * late / useful if useful else 0, 1),
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    from repro.experiments import ExperimentResult

    show(ExperimentResult("ablation", "MPP trigger: prefetch vs demand fills", rows))
    by = {r["mpp_trigger"]: r for r in rows}
    if full_scale:
        assert by["prefetch"]["speedup"] >= by["demand"]["speedup"]
        assert by["prefetch"]["late_prop_pf_%"] <= by["demand"]["late_prop_pf_%"]


def test_ablation_fill_level(benchmark, bench_config, show, full_scale):
    """Table IV 'where to put data': L2 fills avoid L1 pollution."""
    run = _cell(bench_config)

    def sweep():
        base = simulate(run, setup="none")
        rows = []
        for name, into_l1 in (("fill-L2", False), ("fill-L1-too", True)):
            res = simulate(run, setup=_droplet_setup(name=name, fill_into_l1=into_l1))
            l1 = res.hierarchy.l1s[0].stats
            rows.append(
                {
                    "fill": name,
                    "speedup": round(res.speedup_vs(base), 3),
                    "l1_hit_rate": round(l1.hit_rate, 3),
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    from repro.experiments import ExperimentResult

    show(ExperimentResult("ablation", "Prefetch fill level: L2 vs L1", rows))
    if full_scale:
        by = {r["fill"]: r for r in rows}
        # L1 fills must not be better: pollution offsets the closer placement.
        assert by["fill-L2"]["speedup"] >= by["fill-L1-too"]["speedup"] - 0.02


def test_ablation_decoupling_penalty(benchmark, bench_config, show, full_scale):
    """Decoupling: performance degrades as the MPP moves away from the MC."""
    run = _cell(bench_config)
    penalties = (0, 40, 80, 160)

    def sweep():
        base = simulate(run, setup="none")
        rows = []
        for penalty in penalties:
            res = simulate(
                run,
                setup=_droplet_setup(
                    name="droplet-pen%d" % penalty, mpp_issue_penalty=penalty
                ),
            )
            rows.append(
                {"issue_penalty": penalty, "speedup": round(res.speedup_vs(base), 3)}
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    from repro.experiments import ExperimentResult

    show(ExperimentResult("ablation", "MPP issue-penalty (decoupling) sweep", rows))
    if full_scale:
        speedups = [r["speedup"] for r in rows]
        assert speedups[0] >= speedups[-1]  # more delay never helps


def test_ablation_streamer_distance(benchmark, bench_config, show):
    """Table V prefetch distance: too short starves, 16 is a good spot."""
    run = _cell(bench_config)
    distances = (2, 8, 16, 32)

    def sweep():
        base = simulate(run, setup="none")
        rows = []
        for distance in distances:
            res = simulate(
                run,
                setup=_droplet_setup(
                    name="droplet-d%d" % distance,
                    streamer_kwargs={"distance": distance},
                ),
            )
            rows.append(
                {"distance": distance, "speedup": round(res.speedup_vs(base), 3)}
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    from repro.experiments import ExperimentResult

    show(ExperimentResult("ablation", "Streamer prefetch-distance sweep", rows))
    assert all(r["speedup"] > 0 for r in rows)


def test_ablation_multi_property_bc(benchmark, bench_config, show, full_scale):
    """Paper §VI: chasing all of BC's gathered arrays vs only `depth`."""
    if "BC" in bench_config.workloads:
        run = get_trace_run("BC", bench_config.datasets[0], bench_config.max_refs, bench_config.scale_shift)
    else:
        run = _cell(bench_config)

    def sweep():
        base = simulate(run, setup="none")
        single = simulate(run, setup="droplet", multi_property=False)
        multi = simulate(run, setup="droplet", multi_property=True)
        return [
            {"chased": "primary-only", "speedup": round(single.speedup_vs(base), 3),
             "pMPKI": round(single.llc_mpki(), 2)},
            {"chased": "all-gathered", "speedup": round(multi.speedup_vs(base), 3),
             "pMPKI": round(multi.llc_mpki(), 2)},
        ]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    from repro.experiments import ExperimentResult

    show(ExperimentResult("ablation", "Multi-property chasing (BC, paper §VI)", rows))
    if full_scale and run.workload == "BC":
        by = {r["chased"]: r for r in rows}
        # Chasing every gathered array removes more misses.
        assert by["all-gathered"]["pMPKI"] <= by["primary-only"]["pMPKI"] + 0.5


def test_ablation_feedback_directed_streamer(benchmark, bench_config, show):
    """Extension: the full FDP controller of [53] vs the static Table V
    streamer inside DROPLET."""
    from repro.prefetch.adaptive import AdaptiveDataAwareStreamer, FDPLevels

    run = _cell(bench_config)

    def sweep():
        base = simulate(run, setup="none")
        static = simulate(run, setup=_droplet_setup(name="droplet-static"))
        fdp_streamer = AdaptiveDataAwareStreamer(thresholds=FDPLevels(interval=128))
        adaptive = simulate(
            run,
            setup=PrefetchSetup(
                name="droplet-fdp",
                l2_prefetcher=fdp_streamer,
                use_mpp=True,
                mpp_config=MPPConfig(identifies_structure=False),
            ),
        )
        return [
            {"streamer": "static (Table V)", "speedup": round(static.speedup_vs(base), 3),
             "final_level": "-"},
            {"streamer": "feedback-directed", "speedup": round(adaptive.speedup_vs(base), 3),
             "final_level": str(fdp_streamer.level)},
        ]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    from repro.experiments import ExperimentResult

    show(ExperimentResult("ablation", "Static vs feedback-directed streamer", rows))
    speedups = [r["speedup"] for r in rows]
    assert all(s > 0.8 for s in speedups)


def test_ablation_direction_optimizing_bfs(benchmark, bench_config, show, full_scale):
    """Extension: GAP's direction-optimizing BFS vs our default top-down.

    Bottom-up sweeps stream the structure array sequentially, but their
    *early exit* (stop scanning once a frontier parent is found) leaves
    most of each prefetched line — and every property line the MPP chased
    for it — untouched.  The measured accuracy drop and droplet slowdown
    quantify why worklist-aware prefetchers (Ainsworth & Jones [40])
    target exactly this regime, and why the paper reports BFS as
    DROPLET's weakest workload.
    """
    from repro.experiments import get_graph
    from repro.workloads import get_workload

    dataset = "urand" if "urand" in bench_config.datasets else bench_config.datasets[0]
    graph = get_graph(dataset, scale_shift=bench_config.scale_shift)
    bfs = get_workload("BFS")

    def sweep():
        rows = []
        for label, do in (("top-down", False), ("direction-opt", True)):
            run = bfs.run(
                graph,
                max_refs=bench_config.max_refs,
                skip_refs=bfs.recommended_skip(graph),
                direction_optimizing=do,
            )
            base = simulate(run, setup="none")
            droplet = simulate(run, setup="droplet", multi_property=do)
            rows.append(
                {
                    "bfs_variant": label,
                    "droplet_speedup": round(droplet.speedup_vs(base), 3),
                    "struct_pf_acc": round(
                        droplet.prefetch_accuracy(), 2
                    ),
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    from repro.experiments import ExperimentResult

    show(ExperimentResult("ablation", "BFS: top-down vs direction-optimizing", rows))
    if full_scale:
        by = {r["bfs_variant"]: r for r in rows}
        # Early-exit bottom-up wastes chased prefetches: accuracy drops.
        assert by["direction-opt"]["struct_pf_acc"] <= by["top-down"]["struct_pf_acc"] + 0.05
        assert all(r["droplet_speedup"] > 0.6 for r in rows)


def test_ablation_edge_centric_layout(benchmark, bench_config, show, full_scale):
    """Paper §VI: DROPLET on an edge-centric (COO) layout, unchanged.

    The flat edge array is the structure stream; the MPP chases the
    gather indices out of prefetched edge lines exactly as it chases
    neighbor IDs out of CSR lines.
    """
    from repro.experiments import get_graph
    from repro.workloads import get_workload

    graph = get_graph("kron" if "kron" in bench_config.datasets else bench_config.datasets[0],
                      scale_shift=bench_config.scale_shift)

    def sweep():
        rows = []
        for name in ("PR", "PR-EDGE"):
            w = get_workload(name)
            run = w.run(
                graph,
                max_refs=bench_config.max_refs,
                skip_refs=w.recommended_skip(graph),
            )
            base = simulate(run, setup="none")
            droplet = simulate(run, setup="droplet")
            rows.append(
                {
                    "layout": "CSR" if name == "PR" else "edge-centric",
                    "droplet_speedup": round(droplet.speedup_vs(base), 3),
                    "llc_mpki_cut_%": round(
                        100 * (1 - droplet.llc_mpki() / base.llc_mpki()), 1
                    ),
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    from repro.experiments import ExperimentResult

    show(ExperimentResult("ablation", "DROPLET across data layouts (paper §VI)", rows))
    if full_scale:
        # DROPLET delivers on both layouts without modification.
        assert all(r["droplet_speedup"] > 1.3 for r in rows)
