"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    Generate the Table III stand-in datasets and print their statistics.
``simulate``
    Trace one workload on one dataset and compare prefetcher setups.
``sweep``
    Run a (workload × dataset × setup) sweep — optionally across worker
    processes — with trace caching, per-point error capture and
    execution metrics.
``pareto``
    Successive-halving design-space search: pareto-optimal
    {cycles, area, DRAM bandwidth} configurations for one workload,
    executed through the resilient sweep machinery (resumable) or a
    running ``repro serve`` daemon.
``figure``
    Regenerate one paper figure (or ``all``) and print its table.
``tables``
    Print Tables I–V and the §V-D overhead report.
``profile``
    Instrument one run with the telemetry subsystem and write a
    phase-sampled timeline (JSON + CSV + self-contained HTML report),
    including per-region miss attribution, shadow-tag miss
    classification and prefetch pollution tracking.
``diff``
    Compare two saved profiles: phase-aligned per-metric deltas as
    JSON, a terminal table, and a side-by-side HTML report.
``status``
    Point-level progress of a live or finished sweep run — state,
    retries, cache hits, wall times, ETA — reconstructed from its run
    ledger, with the span sidecar supplying points still in flight
    (``--watch`` polls; ``--chrome`` exports the Chrome-trace timeline).
``trend``
    Aggregate archived sweep reports and replay-benchmark snapshots
    under a metrics-store directory into per-workload time-series with
    threshold-based regression flags.
"""

from __future__ import annotations

import argparse
import sys

from .droplet.composite import PREFETCH_CONFIG_NAMES
from .graph.generators import DATASET_NAMES, PAPER_DATASET_NAMES
from .workloads.registry import PAPER_WORKLOAD_ORDER

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    from .experiments import FIGURES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="HPCA'19 DROPLET reproduction: simulate, characterize, "
        "and regenerate the paper's figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_data = sub.add_parser("datasets", help="print Table III dataset statistics")
    p_data.add_argument("--scale-shift", type=int, default=0)

    p_sim = sub.add_parser("simulate", help="compare prefetchers on one workload")
    p_sim.add_argument("workload", choices=list(PAPER_WORKLOAD_ORDER))
    p_sim.add_argument("dataset", choices=list(PAPER_DATASET_NAMES))
    p_sim.add_argument(
        "--setups",
        nargs="+",
        default=["none", "stream", "streamMPP1", "droplet"],
        choices=list(PREFETCH_CONFIG_NAMES),
    )
    p_sim.add_argument("--max-refs", type=int, default=150_000)
    p_sim.add_argument("--scale-shift", type=int, default=0)

    p_sweep = sub.add_parser(
        "sweep", help="run a simulation sweep, optionally in parallel"
    )
    p_sweep.add_argument(
        "--workloads",
        nargs="+",
        default=list(PAPER_WORKLOAD_ORDER),
        choices=list(PAPER_WORKLOAD_ORDER),
    )
    p_sweep.add_argument(
        "--datasets",
        nargs="+",
        default=list(PAPER_DATASET_NAMES),
        choices=list(PAPER_DATASET_NAMES),
    )
    p_sweep.add_argument(
        "--setups",
        nargs="+",
        default=["none", "stream", "streamMPP1", "droplet"],
        choices=list(PREFETCH_CONFIG_NAMES),
    )
    p_sweep.add_argument("--max-refs", type=int, default=150_000)
    p_sweep.add_argument("--scale-shift", type=int, default=0)
    p_sweep.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes; 0/1 runs serially in-process",
    )
    p_sweep.add_argument(
        "--no-trace-cache",
        action="store_true",
        help="skip the on-disk trace cache for this sweep",
    )
    p_sweep.add_argument(
        "--out", metavar="PATH", help="also write the JSON sweep report here"
    )
    p_sweep.add_argument(
        "--telemetry",
        action="store_true",
        help="sample per-point telemetry timelines into the sweep report",
    )
    p_sweep.add_argument(
        "--telemetry-interval",
        type=int,
        default=50_000,
        metavar="CYCLES",
        help="telemetry sampling interval in simulated cycles",
    )
    p_sweep.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-point watchdog timeout (default: none)",
    )
    p_sweep.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="max retries per point for transient failures (default: 2)",
    )
    p_sweep.add_argument(
        "--backoff",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="initial retry backoff, doubled per attempt",
    )
    p_sweep.add_argument(
        "--run-id",
        metavar="ID",
        help="run-ledger id for this sweep (default: generated)",
    )
    p_sweep.add_argument(
        "--resume",
        metavar="RUN_ID",
        help="resume an interrupted sweep from its run ledger",
    )
    p_sweep.add_argument(
        "--no-ledger",
        action="store_true",
        help="skip the run ledger (sweep is not resumable)",
    )
    p_sweep.add_argument(
        "--ledger-root",
        metavar="DIR",
        help="run-ledger directory (default: $REPRO_RUN_LEDGER or "
        "~/.cache/repro/runs)",
    )
    p_sweep.add_argument(
        "--faults",
        metavar="SPEC",
        help="inject faults, e.g. 'crash@2,hang@5,corrupt@0' (testing/CI)",
    )
    p_sweep.add_argument(
        "--no-spans",
        action="store_true",
        help="skip the span sidecar + Chrome-trace timeline (written next "
        "to the run ledger by default)",
    )

    p_par = sub.add_parser(
        "pareto",
        help="successive-halving pareto search over the machine design space",
    )
    p_par.add_argument("workload", choices=list(PAPER_WORKLOAD_ORDER))
    p_par.add_argument("dataset", choices=list(DATASET_NAMES))
    p_par.add_argument(
        "--space",
        default="setup=none,stream,droplet;llc=1,2,4",
        metavar="SPEC",
        help="design-space axes, e.g. 'setup=none,stream;llc=1,2,4;"
        "l2=1/8,no;rob=128,512;mrb=64,256' (see docs/pareto.md)",
    )
    p_par.add_argument(
        "--objectives",
        default="cycles,area_mm2,dram_bw_utilization",
        metavar="NAMES",
        help="comma-separated summary metrics, minimized by default; "
        "append ':max' to maximize (e.g. 'cycles,area_mm2,ipc:max')",
    )
    p_par.add_argument(
        "--max-refs", type=int, default=150_000,
        help="full trace window — the final rung's evaluation length",
    )
    p_par.add_argument(
        "--rungs", type=int, default=3,
        help="successive-halving rungs (windows grow by eta per rung)",
    )
    p_par.add_argument(
        "--eta", type=int, default=2,
        help="halving factor: keep ~1/eta of the candidates per rung",
    )
    p_par.add_argument(
        "--min-refs", type=int, default=500,
        help="smallest rung window (rung-0 evaluations)",
    )
    p_par.add_argument("--scale-shift", type=int, default=0)
    p_par.add_argument("--seed", type=int, default=None)
    p_par.add_argument(
        "--workers", type=int, default=0,
        help="worker processes; 0/1 runs serially in-process",
    )
    p_par.add_argument(
        "--no-trace-cache", action="store_true",
        help="skip the on-disk trace cache for this search",
    )
    p_par.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-point watchdog timeout (default: none)",
    )
    p_par.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="max retries per point for transient failures (default: 2)",
    )
    p_par.add_argument(
        "--backoff", type=float, default=0.25, metavar="SECONDS",
        help="initial retry backoff, doubled per attempt",
    )
    p_par.add_argument(
        "--run-id", metavar="ID",
        help="run-ledger id for this search (default: par-<spec digest>)",
    )
    p_par.add_argument(
        "--resume", metavar="RUN_ID",
        help="resume an interrupted search from its run ledger (the "
        "space/objectives/schedule flags must match the original run)",
    )
    p_par.add_argument(
        "--ledger-root", metavar="DIR",
        help="run-ledger directory (default: $REPRO_RUN_LEDGER or "
        "~/.cache/repro/runs)",
    )
    p_par.add_argument(
        "--faults", metavar="SPEC",
        help="inject faults, e.g. 'error@2,crash@5' (testing/CI)",
    )
    p_par.add_argument(
        "--no-spans", action="store_true",
        help="skip the span sidecar (no pareto.* timeline)",
    )
    p_par.add_argument(
        "--out", metavar="PATH",
        help="write the repro-pareto-v1 JSON report here",
    )
    p_par.add_argument(
        "--figure", metavar="PATH",
        help="write the frontier figure here (.svg always works; "
        ".png/.pdf need matplotlib)",
    )
    p_par.add_argument(
        "--service", metavar="URL",
        help="submit each rung to a running `repro serve` daemon instead "
        "of executing locally",
    )

    p_prof = sub.add_parser(
        "profile", help="instrument one run and write a telemetry report"
    )
    p_prof.add_argument("--workload", required=True, type=str.upper)
    p_prof.add_argument("--dataset", required=True, choices=list(DATASET_NAMES))
    p_prof.add_argument(
        "--setup", default="droplet", choices=list(PREFETCH_CONFIG_NAMES)
    )
    p_prof.add_argument("--max-refs", type=int, default=150_000)
    p_prof.add_argument("--scale-shift", type=int, default=0)
    p_prof.add_argument(
        "--interval",
        type=int,
        default=50_000,
        metavar="CYCLES",
        help="sampling interval in simulated cycles",
    )
    p_prof.add_argument(
        "--events",
        type=int,
        default=65_536,
        metavar="N",
        help="event ring-buffer capacity (most recent N events kept)",
    )
    p_prof.add_argument(
        "--out",
        default="profile_out",
        metavar="DIR",
        help="output directory for profile.{json,csv,html} (+ events.jsonl)",
    )
    p_prof.add_argument(
        "--no-attribution",
        action="store_true",
        help="skip per-region miss attribution and pollution tracking",
    )
    p_prof.add_argument(
        "--no-classify",
        action="store_true",
        help="skip the shadow-tag compulsory/capacity/conflict classifier",
    )
    p_prof.add_argument(
        "--prom",
        action="store_true",
        help="also write profile.prom (Prometheus text exposition of "
        "run totals and whole-run derived rates)",
    )

    p_diff = sub.add_parser(
        "diff", help="compare two saved telemetry profiles"
    )
    p_diff.add_argument("baseline", metavar="BASELINE_JSON")
    p_diff.add_argument("candidate", metavar="CANDIDATE_JSON")
    p_diff.add_argument(
        "--out",
        metavar="PATH",
        help="write the diff JSON here (PATH.html gets the HTML report)",
    )
    p_diff.add_argument(
        "--metrics",
        nargs="+",
        metavar="PREFIX",
        help="restrict raw-counter totals to these metric prefixes",
    )
    p_diff.add_argument(
        "--phase-rate",
        default="llc_mpki_property",
        metavar="RATE",
        help="derived rate shown in the per-phase terminal table",
    )

    p_status = sub.add_parser(
        "status", help="point-level progress of a live or finished sweep run"
    )
    p_status.add_argument("run_id", metavar="RUN_ID")
    p_status.add_argument(
        "--ledger-root",
        metavar="DIR",
        help="run-ledger directory (default: $REPRO_RUN_LEDGER or "
        "~/.cache/repro/runs)",
    )
    p_status.add_argument(
        "--json", action="store_true", help="machine-readable status payload"
    )
    p_status.add_argument(
        "--watch",
        action="store_true",
        help="poll and re-render until the run finishes",
    )
    p_status.add_argument(
        "--poll",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="polling interval for --watch (default: 2.0)",
    )
    p_status.add_argument(
        "--chrome",
        metavar="PATH",
        help="also export the run's Chrome trace-event JSON here "
        "(loadable in Perfetto / chrome://tracing)",
    )

    p_trend = sub.add_parser(
        "trend",
        help="per-workload time-series + regression flags over a metrics store",
    )
    p_trend.add_argument(
        "store",
        nargs="?",
        default=".",
        metavar="DIR",
        help="directory of archived sweep reports / BENCH_replay.json "
        "snapshots (default: .)",
    )
    p_trend.add_argument(
        "--threshold",
        type=float,
        default=0.05,
        metavar="FRACTION",
        help="regression flag threshold (default: 0.05 = 5%%)",
    )
    p_trend.add_argument(
        "--json", action="store_true", help="machine-readable trend payload"
    )
    p_trend.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when any series regressed past the threshold",
    )

    p_serve = sub.add_parser(
        "serve",
        help="run the sweep-service daemon (HTTP submission + live "
        "status/SSE/Prometheus observability)",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="bind port; 0 picks an ephemeral port (default: 8321, or "
        "ephemeral when --join is used)",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="supervised worker threads executing sweep points (default: 2)",
    )
    p_serve.add_argument(
        "--ledger-root",
        metavar="DIR",
        help="run-ledger directory the service owns (default: "
        "$REPRO_RUN_LEDGER or ~/.cache/repro/runs)",
    )
    p_serve.add_argument(
        "--access-log",
        metavar="PATH",
        help="structured JSONL access log (default: "
        "<ledger-root>/service.access.jsonl)",
    )
    p_serve.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="graceful-shutdown budget for in-flight work (default: 30)",
    )
    p_serve.add_argument(
        "--join",
        metavar="DIR",
        help="join an existing service's ledger root as an additional "
        "worker process (shared storage): picks up unleased/stale-leased "
        "points and adopts peer submissions; implies --ledger-root DIR "
        "and an ephemeral port unless --port is given",
    )
    p_serve.add_argument(
        "--max-queue",
        type=int,
        default=256,
        metavar="N",
        help="admission-control bound on the job queue; overflow answers "
        "429 + Retry-After (default: 256)",
    )
    p_serve.add_argument(
        "--lease-ttl",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="heartbeat staleness after which a point lease may be taken "
        "over by another worker process (default: 30)",
    )
    p_serve.add_argument(
        "--faults",
        metavar="SPEC",
        help="inject service-scope faults, e.g. "
        "'disk_full@0,kill_after_accept@1,torn_tail@2,lease_steal@0' "
        "(chaos testing; one-shot markers persist under "
        "<ledger-root>/faults)",
    )

    p_submit = sub.add_parser(
        "submit",
        help="submit a sweep to a running `repro serve` daemon "
        "(idempotent, retries through backpressure)",
    )
    p_submit.add_argument(
        "--url",
        default="http://127.0.0.1:8321",
        help="service base URL (default: http://127.0.0.1:8321)",
    )
    p_submit.add_argument("--workloads", nargs="+", metavar="W")
    p_submit.add_argument("--datasets", nargs="+", metavar="D")
    p_submit.add_argument("--setups", nargs="+", metavar="S")
    p_submit.add_argument("--max-refs", type=int, metavar="N")
    p_submit.add_argument("--scale-shift", type=int, metavar="K")
    p_submit.add_argument("--timeout", type=float, metavar="SECONDS")
    p_submit.add_argument("--retries", type=int, metavar="N")
    p_submit.add_argument("--backoff", type=float, metavar="SECONDS")
    p_submit.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        help="sweep wall-clock deadline; unfinished points fail as "
        "deadline_exceeded",
    )
    p_submit.add_argument(
        "--run-id",
        metavar="ID",
        help="explicit run id (default: content-addressed from the spec, "
        "making resubmission idempotent)",
    )
    p_submit.add_argument(
        "--submit-retries",
        type=int,
        default=8,
        metavar="N",
        help="attempts through 429/503/connection errors before giving "
        "up (default: 8)",
    )
    p_submit.add_argument(
        "--submit-backoff",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="base of the capped exponential backoff between submission "
        "attempts (default: 0.5)",
    )
    p_submit.add_argument(
        "--wait",
        action="store_true",
        help="poll the run's status until it finishes and print the "
        "final headline",
    )
    p_submit.add_argument(
        "--poll",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="status poll interval with --wait (default: 1)",
    )
    p_submit.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    p_fig = sub.add_parser("figure", help="regenerate a paper figure")
    p_fig.add_argument("name", choices=sorted(FIGURES) + ["all"])
    p_fig.add_argument("--quick", action="store_true", help="reduced matrix")
    p_fig.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes for the figures' sweep (default: serial)",
    )

    sub.add_parser("tables", help="print Tables I-V and overhead report")
    return parser


def _cmd_datasets(args) -> int:
    from .experiments.tables import run_table3
    from .experiments.common import ExperimentConfig

    cfg = ExperimentConfig(scale_shift=args.scale_shift)
    print(run_table3(cfg).to_text())
    return 0


def _cmd_simulate(args) -> int:
    from .runtime import TraceSpec
    from .system.runner import compare_setups
    from .trace.record import DataType

    spec = TraceSpec(args.workload, args.dataset, args.max_refs, args.scale_shift)
    run = spec.trace()
    setups = tuple(dict.fromkeys(["none", *args.setups]))
    results = compare_setups(run, setups=setups)
    base = results["none"]
    print(
        "%-14s %8s %8s %8s %9s %9s"
        % ("config", "speedup", "L2hit", "BPKI", "sMPKI", "pMPKI")
    )
    for name in setups:
        res = results[name]
        print(
            "%-14s %8.3f %8.3f %8.1f %9.2f %9.2f"
            % (
                name,
                res.speedup_vs(base),
                res.l2_hit_rate(),
                res.bpki(),
                res.llc_mpki(DataType.STRUCTURE),
                res.llc_mpki(DataType.PROPERTY),
            )
        )
    return 0


def _sweep_spec(args) -> dict:
    """The sweep spec a command's flags spell (``parse_spec``'s input).

    A ``--resume`` id is the spec's ``run_id``.
    """
    names = (
        "workloads",
        "datasets",
        "setups",
        "max_refs",
        "scale_shift",
        "timeout",
        "retries",
        "backoff",
        "deadline",
        "run_id",
    )
    values = {name: getattr(args, name, None) for name in names}
    spec = {name: value for name, value in values.items() if value is not None}
    if getattr(args, "resume", None):
        spec["run_id"] = args.resume
    return spec


def _cmd_sweep(args) -> int:
    from dataclasses import replace

    from .experiments.common import render_table
    from .reporting import save_results_payload, summarize_sweep, sweep_table_rows
    from .runtime import FaultPlan, RunLedger, SweepRunner, new_run_id
    from .service.engine import parse_spec
    from .telemetry import dropped_events_note, spans

    spec = _sweep_spec(args)
    try:
        points, options = parse_spec(spec)
        faults = FaultPlan.from_spec(args.faults) if args.faults else None
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    ledger = None
    run_id = options["run_id"]
    if not args.no_ledger:
        run_id = run_id or new_run_id()
        ledger = RunLedger(run_id, root=args.ledger_root)
        if args.resume and not ledger.exists():
            print(
                "no ledger found for run id %r at %s"
                % (args.resume, ledger.path),
                file=sys.stderr,
            )
            return 2
        if faults is not None:
            faults = replace(faults, trip_dir=str(ledger.root / (run_id + ".faults")))
    tracer = None
    if ledger is not None and not args.no_spans:
        tracer = spans.SpanRecorder(sidecar=spans.sidecar_path(ledger.path))
    runner = SweepRunner(
        workers=args.workers,
        trace_cache=False if args.no_trace_cache else None,
        return_full=False,
        telemetry=args.telemetry,
        telemetry_interval=args.telemetry_interval,
        retry=options["retry"],
        faults=faults,
        ledger=ledger,
        tracer=tracer,
    )
    report = runner.run(points)
    print(render_table(sweep_table_rows(report)))
    print(report.metrics.to_text())
    if ledger is not None:
        print(
            "run id %s (%d/%d points journaled; resume with "
            "`repro sweep --resume %s`)"
            % (run_id, len(ledger), len(points), run_id)
        )
    trace_path = None
    if tracer is not None:
        trace_path = spans.write_chrome_trace(
            tracer, spans.chrome_path(ledger.path)
        )
        print("spans   %s" % tracer.sidecar)
        print("trace   %s (Perfetto / chrome://tracing)" % trace_path)
    for failed in report.errors():
        print("error at %s:" % failed.point.label)
        print(failed.error.traceback.rstrip())
    if args.out:
        save_results_payload(summarize_sweep(report), args.out)
        print("report written to %s" % args.out)
    note = dropped_events_note(
        report.metrics.events_dropped, report.metrics.events_emitted
    )
    if note:
        print(note + " across the sweep's point timelines", file=sys.stderr)
    summary = report.failure_summary()
    if summary:
        print(summary, file=sys.stderr)
        # Name the run's on-disk timeline so operators can open it
        # straight from a failed CI log.
        if ledger is not None:
            print("ledger: %s" % ledger.path, file=sys.stderr)
            if tracer is not None:
                print("spans:  %s" % tracer.sidecar, file=sys.stderr)
                print("trace:  %s" % trace_path, file=sys.stderr)
            print(
                "inspect with `repro status %s`" % ledger.run_id,
                file=sys.stderr,
            )
    return report.exit_code()


def _cmd_pareto(args) -> int:
    import json
    from contextlib import nullcontext
    from dataclasses import replace

    from .experiments.common import render_table
    from .reporting import save_results_payload
    from .runtime import FaultPlan, RunLedger, SweepRunner
    from .search import (
        HalvingSchedule,
        ParetoSearch,
        SearchError,
        pareto_table_rows,
    )
    from .search.frontier import parse_objectives
    from .search.space import parse_space
    from .service.engine import parse_retry, parse_run_id
    from .telemetry import spans

    spec = _sweep_spec(args)
    try:
        # The retry flags and the run id get `repro sweep`'s checks;
        # nothing is written yet.
        options = parse_retry(spec)
        run_id = parse_run_id(spec)
        faults = FaultPlan.from_spec(args.faults) if args.faults else None
        candidates = parse_space(args.space)
        objectives = parse_objectives(args.objectives)
        schedule = HalvingSchedule(
            full_refs=args.max_refs,
            rungs=args.rungs,
            eta=args.eta,
            min_refs=min(args.min_refs, args.max_refs),
        )
        search = ParetoSearch(
            workload=args.workload,
            dataset=args.dataset,
            candidates=candidates,
            objectives=objectives,
            schedule=schedule,
            scale_shift=args.scale_shift,
            seed=args.seed,
            service=args.service,
            retries=args.retries,
            timeout=args.timeout,
            _log=print,
        )
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    digest = search.spec_digest()
    run_id = run_id or ("par-" + digest)
    ledger = RunLedger(run_id, root=args.ledger_root)
    if args.resume and not ledger.exists():
        print(
            "no ledger found for run id %r at %s" % (args.resume, ledger.path),
            file=sys.stderr,
        )
        return 2
    # A per-run spec fingerprint guards resume: restoring ledger entries
    # into a *different* search silently skews the frontier, so a digest
    # mismatch is a hard error rather than a warning.
    spec_path = ledger.root / (run_id + ".pareto.json")
    if spec_path.exists():
        try:
            prior = json.loads(spec_path.read_text()).get("spec_digest")
        except ValueError:
            prior = None
        if prior != digest:
            print(
                "run id %s was started with a different search spec "
                "(digest %s, this invocation %s); re-run with the original "
                "flags or pick a new --run-id" % (run_id, prior, digest),
                file=sys.stderr,
            )
            return 2
    else:
        ledger.root.mkdir(parents=True, exist_ok=True)
        spec_path.write_text(
            json.dumps(
                {
                    "format": "repro-pareto-spec-v1",
                    "run_id": run_id,
                    "spec_digest": digest,
                    "spec": search.spec_dict(),
                },
                indent=2,
                sort_keys=True,
            )
        )
    tracer = None
    if not args.no_spans:
        tracer = spans.SpanRecorder(sidecar=spans.sidecar_path(ledger.path))
    runner = None
    if args.service is None:
        if faults is not None:
            faults = replace(faults, trip_dir=str(ledger.root / (run_id + ".faults")))
        runner = SweepRunner(
            workers=args.workers,
            trace_cache=False if args.no_trace_cache else None,
            return_full=False,
            retry=options["retry"],
            faults=faults,
            ledger=ledger,
            tracer=tracer,
        )
    try:
        with spans.use(tracer) if tracer is not None else nullcontext():
            report = search.run(runner)
    except SearchError as exc:
        print("search aborted: %s" % exc, file=sys.stderr)
        print(
            "completed evaluations are journaled at %s; resume with "
            "`repro pareto %s %s ... --resume %s`"
            % (ledger.path, args.workload, args.dataset, run_id),
            file=sys.stderr,
        )
        return 1
    print(render_table(pareto_table_rows(report)))
    counters = report["counters"]
    print(
        "rungs %d  evaluations %d  pruned %d  promoted %d  frontier %d  "
        "dominated %d"
        % (
            counters["rungs"],
            counters["evaluations"],
            counters["pruned"],
            counters["promoted"],
            counters["frontier_size"],
            counters["dominated"],
        )
    )
    if runner is not None:
        print(
            "run id %s (%d evaluation(s) journaled; resume with "
            "`repro pareto ... --resume %s`)" % (run_id, len(ledger), run_id)
        )
    if tracer is not None:
        trace_path = spans.write_chrome_trace(
            tracer, spans.chrome_path(ledger.path)
        )
        print("spans   %s" % tracer.sidecar)
        print("trace   %s (Perfetto / chrome://tracing)" % trace_path)
    if args.out:
        save_results_payload(report, args.out)
        print("report written to %s" % args.out)
    if args.figure:
        from .search.figures import write_frontier_figure

        print("figure written to %s" % write_frontier_figure(report, args.figure))
    return 0


def _cmd_figure(args) -> int:
    from .experiments import FIGURES, ExperimentConfig, run_figures
    from .runtime import SweepRunner

    cfg = ExperimentConfig.quick() if args.quick else ExperimentConfig()
    names = sorted(FIGURES) if args.name == "all" else [args.name]
    runner = SweepRunner(workers=args.workers)
    for result in run_figures(names, cfg, runner).values():
        print(result.to_text())
        print()
    return 0


def _cmd_profile(args) -> int:
    from .runtime import TraceSpec
    from .system.runner import simulate
    from .telemetry import (
        Telemetry,
        dropped_events_note,
        telemetry_dict,
        write_profile,
    )

    spec = TraceSpec(args.workload, args.dataset, args.max_refs, args.scale_shift)
    run = spec.trace()
    telemetry = Telemetry(
        interval_cycles=args.interval,
        event_capacity=args.events,
        attribution=not args.no_attribution,
        classify_misses=not args.no_classify,
    )
    result = simulate(run, setup=args.setup, telemetry=telemetry)
    payload = telemetry_dict(
        telemetry,
        meta={
            "workload": args.workload,
            "dataset": args.dataset,
            "setup": args.setup,
            "max_refs": args.max_refs,
            "scale_shift": args.scale_shift,
            "trace": run.trace.name,
        },
    )
    paths = write_profile(payload, args.out)
    if args.prom:
        from pathlib import Path

        from .telemetry import telemetry_prom_samples, write_prom

        paths["prom"] = write_prom(
            telemetry_prom_samples(payload),
            Path(args.out) / "profile.prom",
        )
    timeline = telemetry.timeline
    print(
        "profiled %s/%s/%s: %d instructions, %d cycles (IPC %.3f)"
        % (
            args.workload,
            args.dataset,
            args.setup,
            result.instructions,
            result.cycles,
            result.ipc,
        )
    )
    print(
        "timeline: %d samples, %d phases, %d metrics; events: %d emitted"
        % (
            len(timeline),
            len(timeline.phases()),
            len(telemetry.registry),
            telemetry.events.emitted,
        )
    )
    profiler = telemetry.attribution_profiler
    if profiler is not None:
        for lvl in profiler.levels():
            top = sorted(
                lvl.misses_by_region().items(), key=lambda kv: -kv[1]
            )[:3]
            hot = ", ".join("%s=%d" % kv for kv in top if kv[1])
            line = "attribution: %s misses %d" % (lvl.level, lvl.total_misses)
            if hot:
                line += " (%s)" % hot
            if lvl.shadow is not None:
                line += "; " + "/".join(
                    "%s %d" % kv for kv in lvl.class_counts().items()
                )
            print(line)
    note = dropped_events_note(
        payload["events"]["dropped"],
        payload["events"]["emitted"],
        flag="--events",
    )
    if note:
        print(note, file=sys.stderr)
    for kind in sorted(paths):
        print("%-7s %s" % (kind, paths[kind]))
    return 0


def _cmd_diff(args) -> int:
    from .experiments.common import render_table
    from .telemetry import (
        diff_payloads,
        diff_table_rows,
        dropped_events_note,
        load_profile,
        phase_table_rows,
        validate_diff_payload,
        write_diff_html,
        write_diff_json,
    )

    baseline = load_profile(args.baseline)
    candidate = load_profile(args.candidate)
    for side, payload, path in (
        ("baseline", baseline, args.baseline),
        ("candidate", candidate, args.candidate),
    ):
        events = payload.get("events") or {}
        note = dropped_events_note(
            events.get("dropped", 0), events.get("emitted", 0)
        )
        if note:
            print(
                "%s (%s profile %s; totals may undercount)"
                % (note, side, path),
                file=sys.stderr,
            )
    diff = diff_payloads(baseline, candidate, metrics=args.metrics)
    validate_diff_payload(diff)
    print(render_table(diff_table_rows(diff)))
    phase_rows = phase_table_rows(diff, args.phase_rate)
    if phase_rows:
        print()
        print("per-phase %s:" % args.phase_rate)
        print(render_table(phase_rows))
    unmatched = diff["unmatched_phases"]
    for side in ("baseline", "candidate"):
        if unmatched[side]:
            print(
                "warning: %d %s phase(s) had no counterpart: %s"
                % (len(unmatched[side]), side, ", ".join(unmatched[side])),
                file=sys.stderr,
            )
    if args.out:
        from pathlib import Path

        json_path = write_diff_json(diff, args.out)
        html_path = write_diff_html(diff, Path(args.out).with_suffix(".html"))
        print("json    %s" % json_path)
        print("html    %s" % html_path)
    return 0


def _cmd_status(args) -> int:
    import json

    from .experiments.common import render_table
    from .runtime import load_run_status, status_table_rows
    from .runtime.status import watch
    from .telemetry import spans, write_chrome_trace

    def render(status) -> None:
        print(status.to_text())
        if status.points:
            print(render_table(status_table_rows(status)))
        if status.counters:
            print(
                "counters: "
                + ", ".join(
                    "%s=%s" % (k, v) for k, v in sorted(status.counters.items())
                )
            )

    status = load_run_status(args.run_id, root=args.ledger_root)
    if not status.found:
        print(
            "no ledger or span sidecar found for run id %r under %s"
            % (args.run_id, status.ledger_path.parent),
            file=sys.stderr,
        )
        return 2
    if args.watch and not args.json:
        status = watch(
            args.run_id,
            root=args.ledger_root,
            poll=args.poll,
            render=lambda s: (render(s), print()),
        )
    elif args.json:
        print(json.dumps(status.as_dict(), indent=2, sort_keys=True))
    else:
        render(status)
    if args.chrome:
        out = write_chrome_trace(
            spans.read_sidecar(status.sidecar_path), args.chrome
        )
        print("trace   %s (Perfetto / chrome://tracing)" % out)
    return 0


def _cmd_trend(args) -> int:
    import json

    from .experiments.common import render_table
    from .telemetry import trend_report
    from .telemetry.trend import (
        flag_regressions,
        scan_store,
        trend_series,
        trend_table_rows,
    )

    snapshots = scan_store(args.store)
    series = trend_series(snapshots)
    flags = flag_regressions(series, threshold=args.threshold)
    if args.json:
        print(
            json.dumps(
                trend_report(args.store, threshold=args.threshold),
                indent=2,
                sort_keys=True,
            )
        )
    else:
        if not snapshots:
            print(
                "no sweep reports or bench snapshots under %s" % args.store,
                file=sys.stderr,
            )
            return 2
        print(
            "%d snapshot(s): %s"
            % (len(snapshots), ", ".join(s.label for s in snapshots))
        )
        print(render_table(trend_table_rows(series, flags)))
        for flag in flags:
            print("REGRESSION: %s" % flag.to_text(), file=sys.stderr)
    if not snapshots and args.json:
        return 2
    if flags and args.strict:
        return 1
    return 0


def _cmd_serve(args) -> int:
    from pathlib import Path

    from .runtime.faults import ServiceFaultPlan
    from .runtime.ledger import default_ledger_root
    from .service import SweepService, serve_forever

    if args.join and args.ledger_root and args.join != args.ledger_root:
        print(
            "error: --join and --ledger-root name different directories",
            file=sys.stderr,
        )
        return 2
    root_arg = args.join or args.ledger_root
    root = Path(root_arg) if root_arg else default_ledger_root()
    port = args.port if args.port is not None else (0 if args.join else 8321)
    access_log = (
        Path(args.access_log)
        if args.access_log
        else root / "service.access.jsonl"
    )
    faults = None
    if args.faults:
        try:
            faults = ServiceFaultPlan.from_spec(
                args.faults, trip_dir=str(root / "faults")
            )
        except ValueError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
    service = SweepService(
        root=root,
        workers=args.workers,
        max_queue=args.max_queue,
        lease_ttl=args.lease_ttl,
        faults=faults,
    )
    return serve_forever(
        service,
        host=args.host,
        port=port,
        access_log=access_log,
        drain_timeout=args.drain_timeout,
    )


def _cmd_submit(args) -> int:
    import json as _json

    from .service import SubmitError, submit_sweep, wait_for_run

    try:
        accepted = submit_sweep(
            args.url,
            _sweep_spec(args),
            max_attempts=args.submit_retries,
            backoff=args.submit_backoff,
            log=lambda message: print(message, file=sys.stderr),
        )
    except SubmitError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    run_id = accepted.get("run_id", "")
    if not args.wait:
        if args.json:
            print(_json.dumps(accepted, indent=2, sort_keys=True))
        else:
            print("accepted run %s (attempt %s)"
                  % (run_id, accepted.get("attempts", 1)))
            print("  status: %s/sweeps/%s" % (args.url.rstrip("/"), run_id))
        return 0
    try:
        final = wait_for_run(args.url, run_id, poll=args.poll)
    except SubmitError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if args.json:
        print(_json.dumps(final, indent=2, sort_keys=True))
    else:
        states = final.get("states", {})
        print(
            "run %s finished: %s"
            % (
                run_id,
                ", ".join(
                    "%d %s" % (count, state)
                    for state, count in sorted(states.items())
                    if count
                )
                or "no points",
            )
        )
    return 1 if final.get("states", {}).get("failed") else 0


def _cmd_tables(args) -> int:
    from .experiments.tables import (
        run_overheads,
        run_table1,
        run_table2,
        run_table3,
        run_table4,
        run_table5,
    )

    for result in (
        run_table1(),
        run_table2(),
        run_table3(),
        run_table4(),
        run_table5(),
        run_overheads(),
    ):
        print(result.to_text())
        print()
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "datasets": _cmd_datasets,
        "simulate": _cmd_simulate,
        "sweep": _cmd_sweep,
        "pareto": _cmd_pareto,
        "figure": _cmd_figure,
        "tables": _cmd_tables,
        "profile": _cmd_profile,
        "diff": _cmd_diff,
        "status": _cmd_status,
        "trend": _cmd_trend,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
