"""Command-line interface: impute CSV files and run quick evaluations.

Subcommands
-----------
``impute``    — fill a CSV's empty cells with a chosen algorithm
``corrupt``   — inject MCAR missing values into a clean CSV
``evaluate``  — score an imputed CSV against ground truth
``datasets``  — list the built-in datasets and their statistics
``stats``     — print the §5 value-distribution metrics of a CSV
``serve``     — answer imputation requests over HTTP from a checkpoint
``trace``     — run a small traced fit and render its span tree
``lint``      — run the project lint rules and plan/checkpoint checker

Examples
--------
::

    python -m repro datasets
    python -m repro corrupt clean.csv dirty.csv --fraction 0.2
    python -m repro impute dirty.csv imputed.csv --algorithm grimp-ft \\
        --dtype float32 --checkpoint model.ckpt
    python -m repro impute dirty.csv imputed.csv --algorithm grimp-e \\
        --embed-cache .embed-cache
    python -m repro evaluate clean.csv dirty.csv imputed.csv
    python -m repro serve model.ckpt --port 8080
    python -m repro trace --dataset flare --epochs 3 --events trace.jsonl
    python -m repro trace --replay trace.jsonl
    python -m repro lint --format json --output lint-report.json
    python -m repro lint --check-plans model.ckpt
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .corruption import Corruption, inject_mcar
from .data import MISSING, read_csv, write_csv
from .datasets import DATASETS, dataset_names, load
from .experiments import ALGORITHMS, make_imputer
from .fd import discover_fds
from .metrics import dataset_statistics, evaluate_imputation

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GRIMP relational-data imputation (EDBT 2024 "
                    "reproduction)")
    commands = parser.add_subparsers(dest="command", required=True)

    impute = commands.add_parser("impute", help="impute a CSV's empty cells")
    impute.add_argument("input", help="dirty CSV (empty fields = missing)")
    impute.add_argument("output", help="destination CSV")
    impute.add_argument("--algorithm", default="grimp-ft",
                        choices=sorted(ALGORITHMS))
    impute.add_argument("--profile", default="fast",
                        choices=("fast", "paper"))
    impute.add_argument("--discover-fds", action="store_true",
                        help="discover FDs and pass them to FD-aware "
                             "algorithms")
    impute.add_argument("--seed", type=int, default=0,
                        help="random seed for training/splits (recorded "
                             "in checkpoints)")
    impute.add_argument("--dtype", default=None,
                        choices=("float32", "float64"),
                        help="training dtype for grimp-* algorithms "
                             "(default: the config default, float32); "
                             "checkpoints record it")
    impute.add_argument("--batch-size", type=int, default=None,
                        help="training samples per optimizer step "
                             "(grimp-* only; default: full-graph "
                             "training)")
    impute.add_argument("--fanout", type=int, default=None,
                        help="neighbors sampled per node per hop for "
                             "minibatch training (grimp-* only; requires "
                             "--batch-size; default 0 = exact "
                             "neighborhoods)")
    impute.add_argument("--checkpoint", default=None, metavar="DIR",
                        help="after fitting, save the model to this "
                             "checkpoint directory (grimp-* only; "
                             "serve it with `repro serve`)")
    impute.add_argument("--embed-cache", default=None, metavar="DIR",
                        help="content-hash cache directory for "
                             "pre-computed embeddings (default: "
                             "$REPRO_EMBED_CACHE or disabled)")

    corrupt = commands.add_parser("corrupt",
                                  help="inject MCAR missing values")
    corrupt.add_argument("input")
    corrupt.add_argument("output")
    corrupt.add_argument("--fraction", type=float, default=0.2)
    corrupt.add_argument("--seed", type=int, default=0)

    evaluate = commands.add_parser("evaluate",
                                   help="score an imputed CSV")
    evaluate.add_argument("clean", help="ground-truth CSV")
    evaluate.add_argument("dirty", help="the corrupted CSV that was imputed")
    evaluate.add_argument("imputed", help="the imputation output CSV")

    commands.add_parser("datasets", help="list built-in datasets")

    compare = commands.add_parser(
        "compare", help="run a mini accuracy/time comparison grid")
    compare.add_argument("--datasets", default="flare",
                         help="comma-separated dataset names")
    compare.add_argument("--algorithms", default="mode,knn,misf",
                         help="comma-separated algorithm names")
    compare.add_argument("--rates", default="0.2",
                         help="comma-separated missingness fractions")
    compare.add_argument("--rows", type=int, default=120)
    compare.add_argument("--seed", type=int, default=0)

    stats = commands.add_parser("stats", help="value-distribution metrics")
    stats.add_argument("input", nargs="?", default=None,
                       help="a CSV file (default: all built-in datasets)")

    serve = commands.add_parser(
        "serve", help="serve imputation requests over HTTP")
    serve.add_argument("checkpoint",
                       help="checkpoint directory written by "
                            "`repro impute --checkpoint` or "
                            "GrimpImputer.save_checkpoint()")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="listen port (0 picks a free one)")
    serve.add_argument("--max-batch-size", type=int, default=32,
                       help="largest micro-batch: rows queued while a "
                            "batch computes are flushed together, up to "
                            "this many")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request")

    trace = commands.add_parser(
        "trace", help="run a small traced GRIMP fit and render the span "
                      "tree (or replay a saved event log)")
    trace.add_argument("input", nargs="?", default=None,
                       help="dirty CSV to fit on (default: a corrupted "
                            "sample of --dataset)")
    trace.add_argument("--dataset", default="flare",
                       help="built-in dataset to sample when no CSV is "
                            "given")
    trace.add_argument("--rows", type=int, default=60,
                       help="rows to sample from the built-in dataset")
    trace.add_argument("--fraction", type=float, default=0.2,
                       help="MCAR fraction injected into the sample")
    trace.add_argument("--epochs", type=int, default=3)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--events", default=None, metavar="JSONL",
                       help="write the span event log to this JSONL file")
    trace.add_argument("--manifest", default=None, metavar="JSON",
                       help="write the schema-versioned run manifest here")
    trace.add_argument("--max-depth", type=int, default=None,
                       help="limit the rendered tree depth")
    trace.add_argument("--replay", default=None, metavar="JSONL",
                       help="render a previously written event log "
                            "instead of fitting")

    lint = commands.add_parser(
        "lint", help="run the project lint rules (RPR001..RPR009) and "
                     "optionally shape/dtype-check a checkpoint")
    lint.add_argument("paths", nargs="*",
                      help="files or directories to lint (default: the "
                           "installed repro package)")
    lint.add_argument("--rules", default=None, metavar="CODES",
                      help="comma-separated rule codes to run "
                           "(default: all)")
    lint.add_argument("--format", default="text",
                      choices=("text", "json", "github"),
                      help="report format on stdout (github emits "
                           "workflow annotations for inline PR "
                           "rendering)")
    lint.add_argument("--output", default=None, metavar="JSON",
                      help="also write the JSON report to this file "
                           "(the CI artifact)")
    lint.add_argument("--interprocedural",
                      action=argparse.BooleanOptionalAction,
                      default=True,
                      help="run the whole-repo call-graph/taint rules "
                           "RPR007..RPR009 (on by default)")
    lint.add_argument("--cache", default=None, metavar="DIR",
                      help="incremental lint cache directory (also "
                           "REPRO_LINT_CACHE); warm runs re-parse only "
                           "changed files")
    lint.add_argument("--check-plans", default=None, metavar="CKPT",
                      help="also run the graph checker over this "
                           "checkpoint directory")
    return parser


def _command_impute(args) -> int:
    import os

    if args.checkpoint and not args.algorithm.startswith("grimp"):
        print(f"error: --checkpoint requires a grimp-* algorithm, "
              f"not {args.algorithm!r}", file=sys.stderr)
        return 2
    # The cache directory flows through the environment so the embedding
    # layer (features -> EmbdiEmbedder) picks it up without new plumbing
    # through make_imputer.
    if args.embed_cache is not None:
        from .embeddings import CACHE_ENV
        os.environ[CACHE_ENV] = args.embed_cache
    dirty = read_csv(args.input)
    fds = tuple(discover_fds(dirty)) if args.discover_fds else ()
    imputer = make_imputer(args.algorithm, profile=args.profile, fds=fds,
                           seed=args.seed, dtype=args.dtype,
                           batch_size=args.batch_size, fanout=args.fanout)
    imputed = imputer.impute(dirty)
    write_csv(imputed, args.output)
    filled = sum(1 for row, column in dirty.missing_cells()
                 if imputed.get(row, column) is not MISSING)
    print(f"imputed {filled}/{len(dirty.missing_cells())} missing cells "
          f"with {args.algorithm}; wrote {args.output}")
    if args.checkpoint:
        imputer.save_checkpoint(args.checkpoint)
        print(f"saved checkpoint to {args.checkpoint} "
              f"(dtype={imputer.config.dtype}, seed={imputer.config.seed})")
    return 0


def _command_corrupt(args) -> int:
    clean = read_csv(args.input)
    corruption = inject_mcar(clean, args.fraction,
                             np.random.default_rng(args.seed))
    write_csv(corruption.dirty, args.output)
    print(f"blanked {corruption.n_injected} cells "
          f"({args.fraction:.0%}); wrote {args.output}")
    return 0


def _command_evaluate(args) -> int:
    clean = read_csv(args.clean)
    dirty = read_csv(args.dirty)
    imputed = read_csv(args.imputed)
    injected = [(row, column) for row, column in dirty.missing_cells()
                if not clean.is_missing(row, column)]
    corruption = Corruption(dirty=dirty, clean=clean, injected=injected)
    score = evaluate_imputation(corruption, imputed)
    print(f"test cells:  {len(injected)}")
    print(f"accuracy:    {score.accuracy:.4f} "
          f"({score.n_categorical} categorical cells)")
    print(f"rmse:        {score.rmse:.4f} "
          f"({score.n_numerical} numerical cells)")
    print(f"fill rate:   {score.fill_rate:.4f}")
    return 0


def _command_datasets(args) -> int:
    print(f"{'name':<14}{'abbr':>5}{'rows':>7}{'cols':>6}{'cat':>5}"
          f"{'num':>5}{'#FD':>5}")
    for name in dataset_names():
        entry = DATASETS[name]
        paper = entry.paper
        print(f"{name:<14}{entry.abbr:>5}{paper.n_rows:>7}"
              f"{paper.n_columns:>6}{paper.n_categorical:>5}"
              f"{paper.n_numerical:>5}{paper.n_fds:>5}")
    return 0


def _command_stats(args) -> int:
    if args.input:
        tables = {args.input: read_csv(args.input)}
    else:
        tables = {name: load(name, n_rows=300) for name in dataset_names()}
    print(f"{'table':<16}{'rows':>6}{'dist':>7}{'S_avg':>8}{'K_avg':>8}"
          f"{'F+_avg':>8}{'N+_avg':>8}")
    for name, table in tables.items():
        stats = dataset_statistics(table)
        print(f"{name:<16}{stats.n_rows:>6}{stats.distinct:>7}"
              f"{stats.s_avg:>8.2f}{stats.k_avg:>8.2f}"
              f"{stats.f_plus_avg:>8.2f}{stats.n_plus_avg:>8.2f}")
    return 0


def _command_compare(args) -> int:
    from .experiments import (
        format_accuracy_matrix,
        format_ranking,
        run_grid,
    )

    datasets = [name.strip() for name in args.datasets.split(",") if name]
    algorithms = [name.strip() for name in args.algorithms.split(",")
                  if name]
    rates = tuple(float(rate) for rate in args.rates.split(","))
    unknown = [name for name in datasets if name not in dataset_names()]
    if unknown:
        print(f"unknown datasets: {', '.join(unknown)}", file=sys.stderr)
        return 2
    unknown = [name for name in algorithms if name not in ALGORITHMS]
    if unknown:
        print(f"unknown algorithms: {', '.join(unknown)}", file=sys.stderr)
        return 2
    results = run_grid(datasets, algorithms, error_rates=rates,
                       n_rows=args.rows, seed=args.seed)
    print(format_accuracy_matrix(results))
    print(format_ranking(results))
    return 0


def _command_serve(args) -> int:
    import signal

    from .serve import ImputationServer, InferenceEngine

    engine = InferenceEngine.from_checkpoint(args.checkpoint)
    server = ImputationServer(engine, host=args.host, port=args.port,
                              max_batch_size=args.max_batch_size,
                              verbose=args.verbose)
    print(f"serving {args.checkpoint} at {server.url} "
          f"(batch<= {args.max_batch_size}, flushed when idle); "
          f"Ctrl-C to stop")
    print(f"  POST {server.url}/impute    "
          '{"row": {...}} or {"rows": [...]}')
    print(f"  GET  {server.url}/healthz")
    print(f"  GET  {server.url}/metrics")
    # SIGTERM (systemd/k8s stop) must take the same graceful-drain path
    # as Ctrl-C; the default handler would kill this process and drop
    # the requests in flight.
    def _terminate(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
        server.stop()
    return 0


def _command_trace(args) -> int:
    from .telemetry import (
        TENSOR_OPS,
        build_manifest,
        get_registry,
        read_events,
        render_tree,
        replay,
        set_enabled,
        write_jsonl,
        write_manifest,
    )

    if args.replay:
        spans = replay(read_events(args.replay))
        print(render_tree(spans, max_depth=args.max_depth))
        return 0

    from .core import GrimpConfig, GrimpImputer

    if args.input:
        dirty = read_csv(args.input)
        source = args.input
    else:
        clean = load(args.dataset, n_rows=args.rows, seed=args.seed)
        corruption = inject_mcar(clean, args.fraction,
                                 np.random.default_rng(args.seed))
        dirty = corruption.dirty
        source = f"{args.dataset}[{args.rows} rows, " \
                 f"{args.fraction:.0%} MCAR]"
    set_enabled(True)   # record detail spans (layers, spmm dispatch)
    imputer = GrimpImputer(GrimpConfig(epochs=args.epochs,
                                       seed=args.seed))
    imputer.impute(dirty)
    tracer = imputer.trace_
    print(f"traced fit over {source} "
          f"({len(tracer.spans())} spans recorded)")
    print(render_tree(tracer.spans(), max_depth=args.max_depth))
    run = {"kind": "trace", "source": source, "epochs": args.epochs,
           "seed": args.seed, "dtype": imputer.config.dtype}
    counters = {"registry": get_registry().snapshot(),
                "tensor_ops": TENSOR_OPS.snapshot()}
    if args.events:
        write_jsonl(tracer, args.events, run=run, counters=counters)
        print(f"wrote event log to {args.events}")
    if args.manifest:
        metrics = {f"seconds.{path}": entry["seconds"]
                   for path, entry in tracer.aggregate().items()}
        write_manifest(build_manifest(run, tracer=tracer,
                                      metrics=metrics), args.manifest)
        print(f"wrote run manifest to {args.manifest}")
    return 0


def _command_lint(args) -> int:
    import json
    from pathlib import Path

    from .analysis import (
        LintCache,
        all_rules,
        check_checkpoint,
        lint_paths,
        render_github,
        render_text,
        report_json,
        write_report,
    )

    selected: list[str] | None = None
    if args.rules:
        selected = [code.strip().upper()
                    for code in args.rules.split(",") if code.strip()]
        known = all_rules()
        unknown = [code for code in selected if code not in known]
        if unknown:
            print(f"unknown lint rules: {', '.join(unknown)} "
                  f"(known: {', '.join(known)})", file=sys.stderr)
            return 2
    paths = args.paths or [str(Path(__file__).parent)]
    stats: dict = {}
    findings = lint_paths(paths, rules=selected,
                          interprocedural=args.interprocedural,
                          cache=LintCache(args.cache), stats=stats)
    plan_problems = None
    if args.check_plans:
        plan_problems = check_checkpoint(args.check_plans)
    report = report_json(findings, paths=paths,
                         plan_problems=plan_problems, stats=stats)
    if args.output:
        write_report(report, args.output)
    if args.format == "json":
        print(json.dumps(report, indent=1))
    elif args.format == "github":
        print(render_github(findings))
    else:
        print(render_text(findings))
        if plan_problems is not None:
            for problem in plan_problems:
                print(problem.render())
            print(f"plan check: "
                  f"{len(plan_problems)} problem(s) in {args.check_plans}"
                  if plan_problems else
                  f"plan check: {args.check_plans} is coherent")
    failed = any(finding.severity == "error" for finding in findings) \
        or bool(plan_problems)
    return 1 if failed else 0


_COMMANDS = {
    "impute": _command_impute,
    "corrupt": _command_corrupt,
    "evaluate": _command_evaluate,
    "datasets": _command_datasets,
    "stats": _command_stats,
    "compare": _command_compare,
    "serve": _command_serve,
    "trace": _command_trace,
    "lint": _command_lint,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    User-input problems (missing files, malformed CSVs, unknown names)
    print one line to stderr and exit 1 instead of dumping a traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (FileNotFoundError, ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
