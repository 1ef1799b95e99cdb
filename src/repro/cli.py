"""Command-line interface: ``python -m repro <command>``.

* ``simulate`` -- simulate a CERT-style organization (optionally with the
  two insider scenarios injected) and write its logs as CERT-style CSVs.
* ``detect`` -- fit and score an ACOBE-family model on a simulated
  benchmark and print the ordered investigation list.
* ``stream`` / ``ingest`` -- the operational daily service: sealed days
  (``stream``) or raw events in arrival order behind an event-time
  watermark (``ingest``) through the streaming detector, with durable
  checkpoints (``--checkpoint-dir``, ``--resume``), degradation policies
  (``--on-bad-day``) and, for ``ingest``, lateness and backpressure
  bounds.  Both build a source and call the one run driver,
  :func:`repro.eval.run.run`; see docs/OPERATIONS.md and docs/INGEST.md.
* ``report diff`` -- compare two JSON report envelopes (or directories
  of ``BENCH_*.json``) with tolerance bands; exits 1 on regression.
* ``case-study`` -- the Zeus or WannaCry enterprise case study.
* ``presets`` -- show the benchmark scale presets.

Observability rides along (:mod:`repro.obs`): ``--trace`` prints the span
tree, ``--metrics-out`` writes the JSON run report, ``--log`` appends
structured JSON-lines events; ``stream``/``ingest`` add
``--metrics-export``/``--export-every`` and ``--drift-monitor``, and
``ACOBE_TELEMETRY=1`` enables telemetry without flags.  None of it
perturbs numerics.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from typing import List, Optional

from repro.core.detector import ZOO
from repro.eval.experiments import (
    build_case_study,
    build_cert_benchmark,
    case_study_config,
    cert_config,
    cert_population,
    evaluate_run,
    run_model,
)
from repro.eval.reporting import format_table, sparkline
from repro.eval.run import (
    STREAMING_MODELS,
    DaySource,
    EventSource,
    RunOptions,
    close_log,
    make_model,
    open_telemetry,
    print_investigation,
    report_run,
    run,
)
from repro.ingest import LATE_POLICIES, IngestConfig
from repro.logs.csvio import write_store

_SCALES = ("small", "default", "paper")


def _add_run_arguments(parser: argparse.ArgumentParser, export_unit: Optional[str]) -> None:
    """The flags ``detect``, ``stream`` and ``ingest`` share.

    With an ``export_unit`` (what one metrics-export tick counts) it also
    adds the run driver's flags that ``stream`` and ``ingest`` share.
    """
    parser.add_argument("--scale", default="small", choices=_SCALES,
                        help="benchmark preset: organization, calendar and model")
    parser.add_argument("--seed", type=int, default=None, help="override the preset seed")
    parser.add_argument(
        "--dtype", default=None, choices=("float32", "float64"),
        help="compute dtype of the autoencoders (default: the preset's); float32 is "
        "NOT bit-comparable with float64 runs (docs/PERFORMANCE.md)",
    )
    parser.add_argument("--top", type=int, default=10, help="list length to print")
    parser.add_argument("--trace", action="store_true",
                        help="enable telemetry and print the per-stage span tree after the run")
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write the JSON run report to PATH; implies telemetry")
    parser.add_argument("--log", metavar="PATH", default=None,
                        help="append structured JSON-lines events to PATH; implies telemetry")
    if export_unit is None:
        return
    parser.add_argument("--model", default="acobe", choices=STREAMING_MODELS,
                        help="deviation-representation models only (streaming requirement)")
    parser.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                        help="directory for the saved model and checkpoints")
    parser.add_argument("--resume", action="store_true",
                        help="continue bit-identically from the checkpoint in --checkpoint-dir "
                        "(with the saved model and its dtype)")
    parser.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="save a checkpoint every N days the detector advances (default: 1) and on exit",
    )
    parser.add_argument(
        "--on-bad-day", default=None, choices=("strict", "skip", "impute-group-mean"),
        help="policy for malformed day slabs (default: strict, or the checkpointed one)",
    )
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write the per-day scores and investigation lists as JSON")
    parser.add_argument("--metrics-export", metavar="DIR", default=None,
                        help="export metrics.prom and metrics.jsonl into DIR; implies telemetry")
    parser.add_argument("--export-every", type=int, default=1, metavar="N",
                        help=f"flush the metrics export every N {export_unit} and on exit")
    parser.add_argument("--drift-monitor", action="store_true",
                        help="alert on score drift (rolling PSI/KS) and ingest data quality")


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ACOBE reproduction: anomaly detection of anomalous users.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate CERT-style logs and write CSVs")
    p_sim.add_argument("output", help="directory to write <type>.csv files into")
    p_sim.add_argument("--scale", default="small", choices=_SCALES)
    p_sim.add_argument("--seed", type=int, default=None, help="override the preset seed")
    p_sim.add_argument(
        "--no-injection", action="store_true", help="skip the insider-scenario injection"
    )

    p_det = sub.add_parser("detect", help="run a model over simulated logs")
    _add_run_arguments(p_det, export_unit=None)
    p_det.add_argument("--model", default="acobe", choices=sorted(ZOO))

    p_str = sub.add_parser("stream", help="day-by-day streaming detection with checkpoints")
    _add_run_arguments(p_str, export_unit="observed days")
    p_str.add_argument("--stop-after-days", type=int, default=None, metavar="K",
                       help="consume at most K days, then exit (a crash point for resume)")

    p_ing = sub.add_parser("ingest", help="event-time ingestion of raw events (docs/INGEST.md)")
    _add_run_arguments(p_ing, export_unit="consumed deliveries")
    p_ing.add_argument("--logs", metavar="DIR", default=None,
                       help="read CERT-style CSVs from DIR (default: simulate the preset)")
    p_ing.add_argument("--shuffle-seed", type=int, default=None, metavar="SEED",
                       help="deliver in a bounded-lateness out-of-order permutation")
    p_ing.add_argument("--allowed-lateness", type=int, default=1, metavar="DAYS",
                       help="how many days a delivery may trail the newest day (default: 1)")
    p_ing.add_argument("--late-policy", default="drop", choices=LATE_POLICIES,
                       help="what to do with deliveries past the watermark (default: drop)")
    p_ing.add_argument("--quarantine-file", metavar="PATH", default=None,
                       help="JSON-lines file for late events (--late-policy quarantine-file)")
    p_ing.add_argument("--max-open-days", type=int, default=8, metavar="N",
                       help="backpressure bound on the open-day window (default: 8)")
    p_ing.add_argument("--max-buffered-events", type=int, default=None, metavar="N",
                       help="backpressure bound on buffered unique records (default: none)")
    p_ing.add_argument("--stop-after-events", type=int, default=None, metavar="K",
                       help="consume at most K deliveries, then exit (a crash point for resume)")

    p_rep = sub.add_parser(
        "report",
        help="work with JSON report envelopes (acobe.run_report / acobe.bench)",
    )
    rep_sub = p_rep.add_subparsers(dest="report_command", required=True)
    p_diff = rep_sub.add_parser(
        "diff",
        help="compare two report envelopes (or BENCH_*.json directories) "
        "with tolerance bands; exits 1 on regression",
    )
    p_diff.add_argument("baseline", help="baseline report file or directory")
    p_diff.add_argument("current", help="current report file or directory")
    p_diff.add_argument(
        "--tolerance", type=float, default=0.5, metavar="FRAC",
        help="fractional no-movement band around the baseline (default: 0.5, "
        "i.e. a lower-is-better metric regresses past 1.5x baseline)",
    )
    p_diff.add_argument(
        "--pattern", default="BENCH_*.json", metavar="GLOB",
        help="filename glob matched in directory mode (default: BENCH_*.json)",
    )
    p_diff.add_argument(
        "--verbose", action="store_true",
        help="print every compared metric, not just movements",
    )

    p_case = sub.add_parser("case-study", help="run an enterprise attack case study")
    p_case.add_argument("attack", choices=("zeus", "wannacry"))
    p_case.add_argument("--scale", default="small", choices=_SCALES)

    sub.add_parser("presets", help="show the benchmark scale presets")
    return parser


def cmd_simulate(args: argparse.Namespace) -> int:
    config = cert_config(args.scale, args.seed)
    if args.no_injection:
        from repro.datagen.simulator import simulate_cert_dataset

        organization, calendar = cert_population(config)
        store = simulate_cert_dataset(organization, calendar, seed=config.seed).store
        abnormal: List[str] = []
    else:
        benchmark = build_cert_benchmark(config)
        store = benchmark.dataset.store
        abnormal = benchmark.abnormal_users
    paths = write_store(store, args.output)
    print(f"wrote {store.count():,} events across {len(paths)} files to {args.output}")
    if abnormal:
        print(f"injected insiders: {', '.join(abnormal)}")
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    if args.top < 0:
        print("error: --top must be >= 0", file=sys.stderr)
        return 2
    wants_telemetry = bool(args.trace or args.metrics_out or args.log)
    telemetry, log_sink = open_telemetry(wants_telemetry, args.log)
    config = cert_config(args.scale, args.seed)
    benchmark = build_cert_benchmark(config)
    model = make_model(args.model, config, args.dtype)
    print(f"fitting {model.config.name} on {len(benchmark.cube.users)} users ...")
    model_run = run_model(model, benchmark)

    print_investigation(model_run.investigation.entries, args.top, benchmark.abnormal_users)
    metrics = evaluate_run(model_run, benchmark.labels)
    print(f"AUC={metrics.auc:.4f}  AP={metrics.average_precision:.4f}  "
          f"FPs-before-TPs={metrics.fps_before_tps}")
    meta = {"model": model.config.name, "scale": config.name, "seed": config.seed,
            "users": len(benchmark.cube.users), "auc": metrics.auc,
            "average_precision": metrics.average_precision}
    report_run(telemetry, trace=args.trace, metrics_out=args.metrics_out,
               name=f"detect-{args.model}", meta=meta,
               training_histories=model.training_histories)
    close_log(telemetry, log_sink)
    return 0


def _run_options(args: argparse.Namespace, stop_after: Optional[int]) -> RunOptions:
    """The driver's options from a ``stream``/``ingest`` namespace."""
    shared = {f.name: getattr(args, f.name) for f in fields(RunOptions) if f.name != "stop_after"}
    return RunOptions(stop_after=stop_after, **shared)


def cmd_stream(args: argparse.Namespace) -> int:
    """Day-by-day streaming detection with durable checkpoints."""
    source = DaySource(cert_config(args.scale, args.seed))
    return run(source, _run_options(args, args.stop_after_days))


def cmd_ingest(args: argparse.Namespace) -> int:
    """Event-time ingestion in front of the streaming detector."""
    try:
        ingest = IngestConfig(
            allowed_lateness_days=args.allowed_lateness,
            late_policy=args.late_policy,
            quarantine_path=args.quarantine_file,
            max_open_days=args.max_open_days,
            max_buffered_events=args.max_buffered_events,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    source = EventSource(cert_config(args.scale, args.seed), logs=args.logs,
                         shuffle_seed=args.shuffle_seed, ingest=ingest)
    return run(source, _run_options(args, args.stop_after_events))


def cmd_report(args: argparse.Namespace) -> int:
    """Report-envelope utilities; currently ``repro report diff``."""
    from pathlib import Path

    from repro.obs import diff_directories, diff_reports, format_diff
    from repro.obs.diff import load_report

    baseline = Path(args.baseline)
    current = Path(args.current)
    problems: List[str] = []
    if baseline.is_dir():
        diffs, problems = diff_directories(
            baseline, current, tolerance=args.tolerance, pattern=args.pattern
        )
    else:
        diffs = [
            diff_reports(
                load_report(baseline), load_report(current),
                tolerance=args.tolerance, name=current.name,
            )
        ]
    print(format_diff(diffs, verbose=args.verbose))
    for problem in problems:
        print(f"! {problem}", file=sys.stderr)
    regressions = sum(len(d.regressions) for d in diffs)
    if regressions or problems:
        print(f"FAIL: {regressions} regression(s), "
              f"{len(problems)} structural problem(s)", file=sys.stderr)
        return 1
    print("PASS: no regressions")
    return 0


def cmd_case_study(args: argparse.Namespace) -> int:
    from repro.eval.experiments import run_case_study

    config = case_study_config(args.attack, args.scale)
    print(f"simulating {config.n_employees} employees, attack on {config.attack_day} ...")
    benchmark = build_case_study(config)
    result = run_case_study(benchmark)
    for aspect in result.run.scores:
        trend = result.run.score_trend(aspect, benchmark.victim)
        print(f"  {aspect:10s} {sparkline(trend)}")
    rows = [(str(d), r) for d, r in sorted(result.daily_rank.items())]
    print(format_table(["day", "victim rank"], rows))
    rank_one = result.days_at_rank_one()
    if rank_one:
        print(f"victim tops the list first on {rank_one[0]}")
    return 0


def cmd_presets(_args: argparse.Namespace) -> int:
    rows = []
    for scale in _SCALES:
        cfg = cert_config(scale)
        encoder = "x".join(str(u) for u in cfg.autoencoder.encoder_units)
        rows.append((scale, sum(cfg.department_sizes), cfg.n_days, cfg.window, encoder,
                     cfg.autoencoder.epochs))
    print(format_table(["scale", "users", "days", "window", "encoder", "epochs"], rows))
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "detect": cmd_detect,
    "stream": cmd_stream,
    "ingest": cmd_ingest,
    "report": cmd_report,
    "case-study": cmd_case_study,
    "presets": cmd_presets,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
