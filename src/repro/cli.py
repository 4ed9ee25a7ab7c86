"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``train``       — build a corpus, train CATI, save the model bundle.
* ``infer``       — load a model, compile+strip a seeded demo binary,
                    print inferred variable types against ground truth
                    (``--json`` emits the serve wire schema instead).
* ``serve``       — run the batching inference daemon over a bundle
                    (see :mod:`repro.serve` and docs/OPERATIONS.md §7).
* ``client``      — talk to a running daemon: health, metrics, reload,
                    or a round-trip inference demo.
* ``repl``        — interactive analysis shell over a daemon's session
                    API (``--exec`` scripts it; see :mod:`repro.repl`).
* ``experiment``  — run one paper experiment by name and print its table.
* ``corpus-stats``— print Table I-style statistics for a corpus.
* ``model``       — artifact tooling: ``inspect`` prints a bundle's
                    manifest and verifies its checksums.
* ``batch``       — resumable corpus-scale analysis: ``run`` a job spec
                    to checkpointed shards, ``resume`` an interrupted
                    job, ``status`` a job directory (see
                    :mod:`repro.batch` and docs/OPERATIONS.md §8).

``infer`` and ``experiment`` take ``--metrics-out PATH`` to dump the
run's observability report (per-phase spans, engine cache counters,
vote-margin histograms, failure counts — see docs/OPERATIONS.md) as
JSON, and ``--no-metrics`` to switch instrumentation off entirely.

The CLI exists so the system is usable without writing Python; every
command is a thin veneer over the public API.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _add_metrics_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write the run's metrics report as JSON")
    parser.add_argument("--no-metrics", action="store_true",
                        help="disable observability instrumentation")


def _apply_metrics_flags(args: argparse.Namespace) -> None:
    if getattr(args, "no_metrics", False):
        from repro.core import observability

        observability.set_enabled(False)


def _dump_metrics(args: argparse.Namespace, failures=None) -> None:
    """Write ``{"metrics": ..., "failures": ...}`` to ``--metrics-out``."""
    path = getattr(args, "metrics_out", None)
    if not path:
        return
    from repro.core import observability
    from repro.core.errors import FailureReport

    from repro.core.fsutil import atomic_write

    report = failures if failures is not None else FailureReport()
    payload = {
        "metrics": observability.snapshot(),
        "failures": report.to_dict(),
    }
    # Atomic: a crash mid-dump (or a concurrent reader) must never see a
    # truncated report, and a nested path must not require a manual mkdir.
    atomic_write(path, json.dumps(payload, indent=2) + "\n")
    print(f"metrics report written to {path}")


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.core.config import CatiConfig
    from repro.core.pipeline import Cati
    from repro.datasets.corpus import build_corpus, build_small_corpus

    corpus = build_small_corpus() if args.small else build_corpus()
    print(corpus.summary())
    config = CatiConfig(epochs=args.epochs)
    cati = Cati(config).train(corpus.train, verbose=args.verbose)
    cati.save(args.model_dir)
    print(f"model saved to {args.model_dir}")
    return 0


def _compile_demo(args: argparse.Namespace):
    """The seeded ``cli-demo`` binary and its ground truth (variable id → type)."""
    from repro.codegen.binary import debug_variables
    from repro.codegen.compilers import compiler_by_name

    binary = compiler_by_name(args.compiler).compile_fresh(
        seed=args.seed, name="cli-demo", opt_level=args.opt_level)
    index_of = {func.name: index for index, func in enumerate(binary.functions)}
    truth = {}
    for record in debug_variables(binary):
        if record.function in index_of:
            base = "rbp" if record.frame_offset < 0 else "rsp"
            variable_id = f"cli-demo/{index_of[record.function]}::{base}{record.frame_offset:+d}"
            truth[variable_id] = record.type_label
    return binary, truth


def _cmd_infer(args: argparse.Namespace) -> int:
    from repro.codegen.strip import strip
    from repro.core.errors import FailureReport
    from repro.core.pipeline import Cati
    from repro.experiments.speed import extents_from_debug

    _apply_metrics_flags(args)
    cati = Cati.load(args.model_dir, warm_start=True)
    binary, truth = _compile_demo(args)
    failures = FailureReport()
    predictions = cati.infer_binary(strip(binary), extents_from_debug(binary),
                                    on_error=args.on_error, failures=failures,
                                    structs=args.structs)
    if getattr(args, "json", False):
        import repro
        from repro.serve.protocol import build_infer_response

        model = {
            "bundle": args.model_dir,
            "repro_version": repro.__version__,
            "provenance": dict(cati.provenance or {}),
        }
        print(json.dumps(build_infer_response(
            list(predictions), failures, model=model, binary="cli-demo",
            layouts=predictions.layouts),
            indent=2))
        _dump_metrics(args, failures)
        return 0
    hits = 0
    for prediction in predictions:
        true_label = truth.get(prediction.variable_id)
        mark = "ok" if true_label is prediction.predicted else "  "
        hits += true_label is prediction.predicted
        print(f"{mark} {prediction.variable_id:30s} -> {str(prediction.predicted):22s}"
              f" (truth: {true_label}, {prediction.n_vucs} VUCs)")
    if predictions:
        print(f"\naccuracy: {hits}/{len(predictions)} = {hits / len(predictions):.0%}")
    if predictions.layouts is not None:
        from repro.eval.reports import render_layouts

        print()
        print(render_layouts(predictions.layouts, title="recovered struct layouts"))
    if failures:
        print(f"\nskipped: {failures.summary()}")
        for record in failures:
            where = record.function or record.binary or "?"
            print(f"  [{record.stage}] {where}: {record.kind}: {record.message}")
    _dump_metrics(args, failures)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    _apply_metrics_flags(args)
    if args.workers is not None and args.workers < 0:
        raise ValueError("--workers must be >= 0 (0 = auto)")
    workers = args.workers or max(1, min(os.cpu_count() or 1, 4))
    options = dict(
        host=args.host,
        port=args.port,
        queue_limit=args.queue_limit,
        session_ttl_s=args.session_ttl_s,
        session_max_bytes=args.session_max_bytes,
        default_deadline_s=args.deadline_s,
        verbose=args.verbose,
    )
    if workers <= 1:
        # Today's in-process daemon: one process, one engine, no router.
        from repro.serve.server import ServeDaemon

        daemon = ServeDaemon(args.model_dir, **options)
    else:
        from repro.serve.router import RouterDaemon

        daemon = RouterDaemon(args.model_dir, workers=workers, **options)
    daemon.install_signal_handlers()
    try:
        return daemon.run()
    finally:
        _dump_metrics(args)


def _cmd_repl(args: argparse.Namespace) -> int:
    from repro.repl import run_repl

    return run_repl(args.host, args.port, timeout=args.timeout,
                    exec_commands=args.exec_commands)


def _cmd_client(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeClient, ServeClientError

    client = ServeClient(args.host, args.port, timeout=args.timeout)
    try:
        if args.client_command == "health":
            print(json.dumps(client.health(), indent=2))
        elif args.client_command == "metrics":
            print(json.dumps(client.metrics(), indent=2))
        elif args.client_command == "reload":
            print(json.dumps(client.reload(args.new_model_dir), indent=2))
        else:  # infer: compile the demo locally, upload it, score vs truth
            return _client_infer(args, client)
    except ServeClientError as error:
        print(f"request failed: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"cannot reach {args.host}:{args.port}: {error}", file=sys.stderr)
        return 2
    return 0


def _client_infer(args: argparse.Namespace, client) -> int:
    from repro.codegen.strip import strip
    from repro.experiments.speed import extents_from_debug

    binary, truth = _compile_demo(args)
    response = client.infer_binary(strip(binary), extents_from_debug(binary),
                                   on_error=args.on_error)
    if args.json:
        print(json.dumps(response, indent=2))
        return 0
    hits = 0
    for prediction in response["predictions"]:
        true_label = truth.get(prediction["variable_id"])
        match = true_label is not None and str(true_label) == prediction["type"]
        hits += match
        mark = "ok" if match else "  "
        print(f"{mark} {prediction['variable_id']:30s} -> {prediction['type']:22s}"
              f" (truth: {true_label}, {prediction['n_vucs']} VUCs)")
    if response["predictions"]:
        n = len(response["predictions"])
        print(f"\naccuracy: {hits}/{n} = {hits / n:.0%}")
    model = response.get("model", {})
    print(f"served by generation {model.get('generation')} "
          f"(repro {model.get('repro_version')})")
    return 0


_EXPERIMENTS = (
    "table1", "table3", "table4", "table5", "table6",
    "debin", "fig6", "table7", "compiler-id", "speed", "opt-levels",
)


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.common import get_context

    _apply_metrics_flags(args)
    name = args.name
    if name not in _EXPERIMENTS:
        print(f"unknown experiment {name!r}; choose from {', '.join(_EXPERIMENTS)}")
        return 2
    context = get_context("clang" if name == "table7" else "gcc")
    if name == "table1":
        from repro.experiments import table1

        result = table1.run(context.corpus)
    elif name == "table3":
        from repro.experiments import table3

        result = table3.run(context)
    elif name == "table4":
        from repro.experiments import table4

        result = table4.run(context)
    elif name == "table5":
        from repro.experiments import table5

        result = table5.run(context)
    elif name == "table6":
        from repro.experiments import table6

        result = table6.run(context)
    elif name == "debin":
        from repro.experiments import debin_compare

        result = debin_compare.run(context)
    elif name == "fig6":
        from repro.experiments import fig6

        result = fig6.run(context)
    elif name == "table7":
        from repro.experiments import table7

        result = table7.run(context)
    elif name == "compiler-id":
        from repro.experiments import compiler_id

        result = compiler_id.run(context)
    elif name == "opt-levels":
        from repro.experiments.ablations import run_opt_level_breakdown

        result = run_opt_level_breakdown(context)
    else:  # speed
        from repro.experiments import speed

        result = speed.run(context)
    print(result.render())
    _dump_metrics(args)
    return 0


def _cmd_model_inspect(args: argparse.Namespace) -> int:
    from repro.core.artifacts import ModelBundle
    from repro.core.errors import ArtifactError

    try:
        bundle = ModelBundle.open(args.model_dir)
    except ArtifactError as error:
        print(f"not a readable bundle: {error}", file=sys.stderr)
        return 2
    problems = bundle.problems()
    if args.json:
        print(json.dumps({"manifest": bundle.manifest, "problems": problems},
                         indent=2, sort_keys=True))
    else:
        print(bundle.describe())
        if problems:
            print("\nintegrity: FAILED")
            for problem in problems:
                print(f"  {problem}")
        else:
            print("\nintegrity: OK (all checksums verified)")
    return 1 if problems else 0


def _print_batch_results(results: dict) -> None:
    shards = results["shards"]
    print(f"items: {results['items']}  predictions: {results['n_predictions']}  "
          f"shards: {shards['total']} total, {results['shards_run']} run, "
          f"{results['shards_reused']} reused from checkpoints, "
          f"{len(shards['quarantined'])} quarantined")
    failures = results["failures"]
    if failures["total"]:
        print(f"skipped/failed: {failures['total']} "
              f"(by stage: {failures['by_stage']})")
    cache = results.get("window_cache")
    if cache:
        print(f"window cache: {cache['hits']} hits, {cache['misses']} misses, "
              f"{cache['appends']} appended, "
              f"{cache['corrupt_records']} corrupt record(s) recomputed")
    print(f"elapsed: {results['elapsed_s']:.2f}s")


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.batch import (
        JobSpec,
        demo_corpus,
        job_status,
        load_manifest,
        resume_job,
        run_job,
    )
    from repro.core.errors import CatiError

    _apply_metrics_flags(args)
    try:
        if args.batch_command == "status":
            status = job_status(args.job_dir)
            if args.json:
                print(json.dumps(status, indent=2, sort_keys=True))
            else:
                shards = status["shards"]
                state = "complete" if status["complete"] else "in progress"
                print(f"job {status['job_dir']} ({state}): "
                      f"{shards['committed']}/{shards['total']} shard(s) "
                      f"committed, {len(shards['pending'])} pending, "
                      f"{len(shards['invalid'])} invalid (will recompute), "
                      f"{len(shards['quarantined'])} quarantined")
            return 0
        if args.batch_command == "resume":
            results = resume_job(args.job_dir, model_dir=args.model_dir,
                                 force=args.force)
        else:  # run
            if args.manifest:
                items = load_manifest(args.manifest)
            else:
                items = demo_corpus(args.demo_corpus,
                                    compiler=args.compiler,
                                    opt_level=args.opt_level,
                                    base_seed=args.base_seed)
            spec = JobSpec(items=items, shard_size=args.shard_size,
                           on_error=args.on_error,
                           max_retries=args.max_retries, seed=args.seed,
                           structs=args.structs)
            cache_dir = None if args.no_cache else args.cache_dir
            results = run_job(args.job_dir, spec, model_dir=args.model_dir,
                              cache_dir=cache_dir)
    except CatiError as error:
        print(f"batch {args.batch_command} failed: {error}", file=sys.stderr)
        return 2
    _print_batch_results(results)
    _dump_metrics(args)
    return 0


def _cmd_corpus_stats(args: argparse.Namespace) -> int:
    from repro.datasets.corpus import build_corpus, build_small_corpus
    from repro.experiments import table1

    corpus = build_small_corpus() if args.small else build_corpus()
    print(table1.run(corpus).render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.analysis.store import DEFAULT_MAX_BYTES, DEFAULT_TTL_S

    parser = argparse.ArgumentParser(
        prog="repro",
        description="CATI reproduction: type inference from stripped binaries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train CATI and save the model")
    train.add_argument("--model-dir", default=".cache/cli-model")
    train.add_argument("--epochs", type=int, default=10)
    train.add_argument("--small", action="store_true", help="use the small test corpus")
    train.add_argument("--verbose", action="store_true")
    train.set_defaults(func=_cmd_train)

    infer = sub.add_parser("infer", help="type a freshly compiled stripped binary")
    infer.add_argument("--model-dir", default=".cache/cli-model")
    infer.add_argument("--compiler", default="gcc", choices=("gcc", "clang"))
    infer.add_argument("--opt-level", type=int, default=1, choices=(0, 1, 2, 3))
    infer.add_argument("--seed", type=int, default=1234)
    infer.add_argument("--on-error", choices=("raise", "skip"), default="raise",
                       help="skip-and-record damaged functions instead of aborting")
    infer.add_argument("--structs", action="store_true",
                       help="also run the posterior struct-layout recovery stage "
                            "and print/emit recovered layouts")
    infer.add_argument("--json", action="store_true",
                       help="emit the serve wire schema (cati-infer-response/2) "
                            "instead of the human-readable table")
    _add_metrics_flags(infer)
    infer.set_defaults(func=_cmd_infer)

    serve = sub.add_parser(
        "serve", help="run the batching inference daemon over a model bundle")
    serve.add_argument("--model-dir", default=".cache/cli-model")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8417,
                       help="listen port (0 picks a free one and prints it)")
    serve.add_argument("--workers", type=int, default=None,
                       help="worker processes behind the router "
                            "(default: min(cores, 4); 1 = classic "
                            "in-process daemon)")
    serve.add_argument("--queue-limit", type=int, default=64,
                       help="pending requests beyond this are answered 503")
    serve.add_argument("--deadline-s", type=float, default=None,
                       help="default per-request deadline (504 past it)")
    serve.add_argument("--session-ttl-s", type=float, default=DEFAULT_TTL_S,
                       help="idle seconds before an analysis session expires")
    serve.add_argument("--session-max-bytes", type=int, default=DEFAULT_MAX_BYTES,
                       help="per-worker session-store byte budget "
                            "(LRU eviction past it)")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request")
    _add_metrics_flags(serve)
    serve.set_defaults(func=_cmd_serve)

    client = sub.add_parser("client", help="talk to a running serve daemon")
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, default=8417)
    client.add_argument("--timeout", type=float, default=300.0)
    client_sub = client.add_subparsers(dest="client_command", required=True)
    client_sub.add_parser("health", help="GET /healthz")
    client_sub.add_parser("metrics", help="GET /metricsz")
    reload_cmd = client_sub.add_parser("reload", help="POST /v1/reload")
    reload_cmd.add_argument("--new-model-dir", default=None,
                            help="switch the daemon to this bundle "
                                 "(default: re-read its current one)")
    client_infer = client_sub.add_parser(
        "infer", help="compile a demo binary locally, type it via the daemon")
    client_infer.add_argument("--compiler", default="gcc",
                              choices=("gcc", "clang"))
    client_infer.add_argument("--opt-level", type=int, default=1,
                              choices=(0, 1, 2, 3))
    client_infer.add_argument("--seed", type=int, default=1234)
    client_infer.add_argument("--on-error", choices=("raise", "skip"),
                              default="raise")
    client_infer.add_argument("--json", action="store_true",
                              help="print the raw response body")
    client.set_defaults(func=_cmd_client)

    repl = sub.add_parser(
        "repl", help="interactive analysis shell over a daemon's session API")
    repl.add_argument("--host", default="127.0.0.1")
    repl.add_argument("--port", type=int, default=8417)
    repl.add_argument("--timeout", type=float, default=300.0)
    repl.add_argument("--exec", dest="exec_commands", default=None,
                      metavar="COMMANDS",
                      help="run a ';'-separated command list and exit "
                           "(non-zero on the first failure)")
    repl.set_defaults(func=_cmd_repl)

    experiment = sub.add_parser("experiment", help="run one paper experiment")
    experiment.add_argument("name", choices=_EXPERIMENTS)
    _add_metrics_flags(experiment)
    experiment.set_defaults(func=_cmd_experiment)

    batch = sub.add_parser(
        "batch", help="resumable corpus-scale analysis over checkpointed shards")
    batch_sub = batch.add_subparsers(dest="batch_command", required=True)

    batch_run = batch_sub.add_parser(
        "run", help="create a job from a corpus manifest and run it")
    batch_run.add_argument("--job-dir", required=True,
                           help="fresh directory for the job's durable state")
    batch_run.add_argument("--model-dir", default=".cache/cli-model")
    batch_run.add_argument("--manifest", default=None,
                           help="corpus manifest JSON (see docs/OPERATIONS.md §8)")
    batch_run.add_argument("--demo-corpus", type=int, default=0, metavar="N",
                           help="instead of --manifest: N seeded demo binaries")
    batch_run.add_argument("--compiler", default="gcc", choices=("gcc", "clang"),
                           help="toolchain for --demo-corpus items")
    batch_run.add_argument("--opt-level", type=int, default=1, choices=(0, 1, 2, 3))
    batch_run.add_argument("--base-seed", type=int, default=100,
                           help="first codegen seed for --demo-corpus items")
    batch_run.add_argument("--shard-size", type=int, default=4,
                           help="binaries per checkpointed shard")
    batch_run.add_argument("--on-error", choices=("raise", "skip"), default="skip",
                           help="per-shard failure policy")
    batch_run.add_argument("--max-retries", type=int, default=1,
                           help="re-tries per shard before quarantine")
    batch_run.add_argument("--seed", type=int, default=0,
                           help="seeds the retry-backoff jitter (determinism)")
    batch_run.add_argument("--structs", action="store_true",
                           help="run the posterior struct-layout recovery "
                                "stage on every item (layouts land in the "
                                "checkpoints and merged results)")
    batch_run.add_argument("--cache-dir", default=".cache/window-cache",
                           help="durable window cache location")
    batch_run.add_argument("--no-cache", action="store_true",
                           help="disable the durable window cache")
    _add_metrics_flags(batch_run)
    batch_run.set_defaults(func=_cmd_batch)

    batch_resume = batch_sub.add_parser(
        "resume", help="resume an interrupted job from its checkpoints")
    batch_resume.add_argument("--job-dir", required=True)
    batch_resume.add_argument("--model-dir", default=None,
                              help="override the recorded model (drift-checked)")
    batch_resume.add_argument("--force", action="store_true",
                              help="accept model/config drift; stale "
                                   "checkpoints are recomputed")
    _add_metrics_flags(batch_resume)
    batch_resume.set_defaults(func=_cmd_batch)

    batch_status = batch_sub.add_parser(
        "status", help="summarize a job directory's checkpoint state")
    batch_status.add_argument("--job-dir", required=True)
    batch_status.add_argument("--json", action="store_true")
    batch_status.set_defaults(func=_cmd_batch)

    stats = sub.add_parser("corpus-stats", help="Table I statistics for a corpus")
    stats.add_argument("--small", action="store_true")
    stats.set_defaults(func=_cmd_corpus_stats)

    model = sub.add_parser("model", help="inspect saved model artifacts")
    model_sub = model.add_subparsers(dest="model_command", required=True)

    inspect = model_sub.add_parser(
        "inspect", help="print a bundle's manifest and verify its checksums")
    inspect.add_argument("model_dir")
    inspect.add_argument("--json", action="store_true",
                         help="emit the manifest + problems as JSON")
    inspect.set_defaults(func=_cmd_model_inspect)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
