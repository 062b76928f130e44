"""Command-line interface for running the paper's experiments via ``repro.api``.

The generic experiment commands drive any experiment registered in
:data:`repro.api.experiment.EXPERIMENT_REGISTRY` through the shared
``plan -> execute -> analyze -> check_claims -> export`` lifecycle::

    repro run figure2 --workers 4 --export out/
    repro run attack_matrix --smoke --checkpoint matrix.jsonl
    repro run ablation --set name=gossip --trials 2
    repro claims figure2                      # claim gates only (exit != 0 on failure)
    repro trace figure2 --smoke --trace-out traces/   # repro.obs tracer + hot phases
    repro serve --port 8547 --workers 4       # simulator-as-a-service JSON-RPC facade
    repro loadgen --smoke --url http://127.0.0.1:8547   # measured tail latency + gates
    repro list [--adversaries|--topologies]   # every registry, one line per entry
    repro golden check [NAME...]              # pinned outputs still reproduce (goldens/)
    repro golden record NAME --reason TEXT    # re-pin one, with a logged reason

``--checkpoint FILE`` makes the sweep resumable: completed cells append to a
JSONL file keyed by the grid's digest, and a re-run executes only the
missing cells (byte-identical exports either way).  ``--set NAME=VALUE``
overrides experiment knobs: a comma list replaces a sweep dimension, a
scalar lands on the base spec.

``repro sweep`` runs an ad-hoc scenario x parameter grid that no
experiment declares::

    repro sweep --workload market --scenarios geth_unmodified semantic_mining \
        --over buys_per_set=1,2,10 --trials 2 --workers 4 --csv out.csv

Every subcommand resolves scenarios, workloads, adversaries, and
experiments through the :mod:`repro.api` registries and executes through
the facade's engine.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional, Sequence

from .api import (
    CheckpointMismatchError,
    ExperimentOptions,
    ResultFrame,
    Simulation,
    Sweep,
    execute_plan,
    format_hot_phase_table,
    plan_experiment,
)
from .experiments.reporting import emit_block, format_percentage, format_table

__all__ = ["main", "build_parser"]


def _add_run_options(
    parser: argparse.ArgumentParser,
    *,
    smoke: bool = True,
    workers: bool = True,
    seed: bool = True,
    overrides: bool = True,
    trials: bool = False,
    checkpoint: bool = False,
    export: bool = False,
) -> None:
    """The run-option vocabulary every executing subcommand shares.

    ``run``/``claims``/``trace``/``loadgen`` all take some subset
    of these flags; declaring them here keeps names, defaults, and help
    text identical everywhere instead of drifting per-subcommand copies.
    """
    if smoke:
        parser.add_argument("--smoke", action="store_true", help="run the reduced CI-sized grid")
    if workers:
        parser.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    if seed:
        parser.add_argument("--seed", type=int, default=None, help="root seed (default: the experiment's)")
    if trials:
        parser.add_argument("--trials", type=int, default=None, help="trials per grid cell")
    if overrides:
        parser.add_argument(
            "--set",
            dest="overrides",
            nargs="*",
            default=[],
            metavar="NAME=VALUE",
            help="overrides; comma lists become sweep dimensions "
            "(e.g. --set buys_per_set=1,2,10 name=gossip)",
        )
    if checkpoint:
        parser.add_argument(
            "--checkpoint",
            default=None,
            help="JSONL checkpoint file: completed cells are recorded as they "
            "finish, and a re-run executes only the missing ones",
        )
    if export:
        parser.add_argument(
            "--export", dest="export_dir", default=None, help="write JSON/CSV/Markdown/claims artifacts here"
        )


def _experiment_options(
    arguments: argparse.Namespace, *, smoke: Optional[bool] = None
) -> ExperimentOptions:
    """Build :class:`ExperimentOptions` from flags `_add_run_options` declared."""
    return ExperimentOptions(
        workers=getattr(arguments, "workers", 1),
        smoke=getattr(arguments, "smoke", False) if smoke is None else smoke,
        seed=getattr(arguments, "seed", None),
        trials=getattr(arguments, "trials", None),
        checkpoint=getattr(arguments, "checkpoint", None),
        overrides=_parse_overrides(getattr(arguments, "overrides", [])),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the experiments of 'Read-Uncommitted Transactions for "
        "Smart Contract Performance' (ICDCS 2019).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser(
        "run", help="run any registered experiment through the generic lifecycle"
    )
    run.add_argument("experiment", help="registered experiment name (see `repro list --experiments`)")
    _add_run_options(run, trials=True, checkpoint=True, export=True)
    run.add_argument("--no-claims", action="store_true", help="skip the claim gates (always exit 0)")

    claims = subparsers.add_parser(
        "claims", help="evaluate an experiment's claim gates (smoke grid by default)"
    )
    claims.add_argument("experiment", help="registered experiment name")
    claims.add_argument("--full", action="store_true", help="run the full grid instead of the smoke grid")
    _add_run_options(claims, smoke=False)

    trace = subparsers.add_parser(
        "trace",
        help="run an experiment's grid under the repro.obs tracer and rank hot phases",
    )
    trace.add_argument("experiment", help="registered experiment name (see `repro list --experiments`)")
    _add_run_options(trace, trials=True)
    trace.add_argument(
        "--trace-out",
        dest="trace_out",
        default=None,
        help="directory collecting one JSONL + Chrome-trace file pair per job "
        "(open the .trace.json in Perfetto or chrome://tracing)",
    )

    sweep = subparsers.add_parser(
        "sweep", help="run an arbitrary scenario x parameter grid through repro.api"
    )
    sweep.add_argument("--workload", default="market", help="registered workload name")
    sweep.add_argument(
        "--scenarios", nargs="+", default=["geth_unmodified", "sereth_client", "semantic_mining"]
    )
    sweep.add_argument(
        "--over",
        nargs="*",
        default=[],
        metavar="NAME=V1,V2,...",
        help="extra grid dimensions, e.g. buys_per_set=1,2,10 block_interval=5,13",
    )
    sweep.add_argument("--trials", type=int, default=1)
    sweep.add_argument("--workers", type=int, default=1)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--json", dest="json_path", default=None, help="write rows as JSON")
    sweep.add_argument("--csv", dest="csv_path", default=None, help="write rows as CSV")

    serve = subparsers.add_parser(
        "serve",
        help="run the persistent simulator-as-a-service JSON-RPC facade "
        "(POST JSON-RPC to /rpc, GET /healthz)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="admission: at most 3 x N session requests hold or wait for the one "
        "engine turn; more are refused with server_overloaded and a retry_after hint",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8547, help="bind port (0: ephemeral)")
    serve.add_argument(
        "--idle-timeout",
        dest="idle_timeout",
        type=float,
        default=300.0,
        help="evict sessions idle this many seconds, checked between requests "
        "(<= 0 disables eviction)",
    )
    serve.add_argument(
        "--retention",
        type=int,
        default=64,
        help="default per-session chain retention in blocks, applied to specs "
        "that set none (<= 0: sessions keep unbounded history)",
    )
    serve.add_argument("--max-sessions", dest="max_sessions", type=int, default=64)
    serve.add_argument(
        "--trace-out",
        dest="trace_out",
        default=None,
        help="directory where shutdown writes the request-lifecycle trace "
        "(service.jsonl + service.trace.json) and a probe snapshot",
    )
    serve.add_argument(
        "--persist",
        dest="persist_dir",
        default=None,
        metavar="DIR",
        help="journal state-changing requests to DIR/requests.jsonl "
        "(fsynced per request) so a killed server can be resumed",
    )
    serve.add_argument(
        "--resume",
        action="store_true",
        help="replay the --persist journal on startup, rebuilding every "
        "journaled session byte-identically before serving",
    )

    loadgen = subparsers.add_parser(
        "loadgen",
        help="drive closed/open-loop load against a service and measure tail latency",
    )
    _add_run_options(loadgen, workers=False)
    loadgen.add_argument(
        "--url", default=None, help="server URL (default: spawn an in-process server)"
    )
    loadgen.add_argument("--clients", type=int, default=4, help="concurrent load clients")
    loadgen.add_argument(
        "--requests", type=int, default=25, help="requests per client per loop mode"
    )
    loadgen.add_argument("--mode", choices=["closed", "open", "both"], default="both")
    loadgen.add_argument("--arrival", choices=["regular", "poisson", "bursty"], default="regular")
    loadgen.add_argument(
        "--rate", type=float, default=50.0, help="open-loop arrivals per second per client"
    )
    loadgen.add_argument("--mix", default="market", help="session mix (see repro.service.loadgen)")
    loadgen.add_argument("--output", default=None, help="write the BENCH-shaped JSON report here")
    loadgen.add_argument(
        "--p95-ceiling",
        dest="p95_ceiling",
        type=float,
        default=2000.0,
        help="--smoke gate: fail if any mode's p95 exceeds this many ms",
    )

    golden = subparsers.add_parser(
        "golden", help="check or re-pin the outputs pinned in goldens/ (see repro.golden)"
    )
    golden_verbs = golden.add_subparsers(dest="verb", required=True)
    golden_check = golden_verbs.add_parser(
        "check", help="re-run each producer; on a mismatch print the JSON paths that moved"
    )
    golden_check.add_argument("names", nargs="*", help="entries to check (default: all)")
    golden_record = golden_verbs.add_parser(
        "record", help="re-pin one entry to its producer's output and log why"
    )
    golden_record.add_argument("name", help="entry name (see goldens/)")
    golden_record.add_argument("--reason", required=True, help="why the pinned output moves")

    listing = subparsers.add_parser(
        "list",
        help="list registered scenarios, workloads, adversaries, topologies, "
        "and experiments",
    )
    listing.add_argument(
        "--scenarios",
        action="store_true",
        help="show only the registered scenarios",
    )
    listing.add_argument(
        "--workloads",
        action="store_true",
        help="show only the registered workloads",
    )
    listing.add_argument(
        "--adversaries",
        action="store_true",
        help="show only the registered attack strategies",
    )
    listing.add_argument(
        "--experiments",
        action="store_true",
        help="show only the registered experiments and their claim gates",
    )
    listing.add_argument(
        "--topologies",
        action="store_true",
        help="show only the registered gossip topologies",
    )
    listing.add_argument(
        "--probes",
        action="store_true",
        help="show only the registered observability probes",
    )
    return parser


def _convert_token(token: str) -> Any:
    for cast in (int, float):
        try:
            return cast(token)
        except ValueError:
            continue
    lowered = token.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    return token


def _parse_overrides(pairs: Sequence[str]) -> Dict[str, Any]:
    """Parse ``--set NAME=VALUE`` overrides; ``V1,V2,...`` becomes a list."""
    overrides: Dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"bad --set override {pair!r}; expected NAME=VALUE")
        name, _, raw = pair.partition("=")
        if "," in raw:
            overrides[name] = [_convert_token(token) for token in raw.split(",") if token]
        else:
            overrides[name] = _convert_token(raw)
    return overrides


def _emit_claims(checks) -> None:
    rows = [
        [check.claim[:58], check.paper_value, check.measured_value, "yes" if check.holds else "NO"]
        for check in checks
    ]
    if rows:
        emit_block("Claim gates", format_table(["claim", "paper", "measured", "holds"], rows))
    else:
        emit_block("Claim gates", "(this experiment declares no claims)")


def _plan_experiment(command: str, name: str, options: ExperimentOptions):
    """Resolve and plan an experiment, rendering plan-time problems (unknown
    name, bad override) as usage errors.  Execution errors are *not*
    wrapped — a bug deep in a sweep deserves its traceback."""
    try:
        return plan_experiment(name, options)
    except (KeyError, TypeError, ValueError) as error:
        message = error.args[0] if error.args else error
        raise SystemExit(f"repro {command}: {message}")


def _command_run(arguments: argparse.Namespace) -> int:
    options = _experiment_options(arguments)
    experiment, options, sweep = _plan_experiment("run", arguments.experiment, options)
    try:
        run = execute_plan(experiment, options, sweep)
    except CheckpointMismatchError as error:
        raise SystemExit(f"repro run: {error}")
    emit_block(
        f"{experiment.name} — {experiment.description} "
        f"({len(run.frame)} rows{', smoke grid' if arguments.smoke else ''})",
        run.export_frame().to_markdown().rstrip("\n"),
    )
    _emit_claims(run.claim_checks)
    if arguments.export_dir:
        paths = run.export(arguments.export_dir)
        emit_block(
            "Artifacts",
            "\n".join(f"{kind}: {path}" for kind, path in sorted(paths.items())),
        )
    if arguments.no_claims:
        return 0
    return 0 if run.passed else 1


def _command_claims(arguments: argparse.Namespace) -> int:
    options = _experiment_options(arguments, smoke=not arguments.full)
    experiment, options, sweep = _plan_experiment("claims", arguments.experiment, options)
    run = execute_plan(experiment, options, sweep)
    _emit_claims(run.claim_checks)
    return 0 if run.passed else 1


def _command_trace(arguments: argparse.Namespace) -> int:
    options = _experiment_options(arguments)
    experiment, options, sweep = _plan_experiment("trace", arguments.experiment, options)
    result = sweep.observed(arguments.trace_out).run(workers=options.workers)
    summaries = [row.summary for row in result.rows]
    emit_block(
        f"{experiment.name} — hot phases over {len(result)} traced runs"
        f"{' (smoke grid)' if arguments.smoke else ''}",
        format_hot_phase_table(summaries).rstrip("\n"),
    )
    event_totals: Dict[str, int] = {}
    for summary in summaries:
        for kind, count in summary.get("observability", {}).get("event_counts", {}).items():
            event_totals[kind] = event_totals.get(kind, 0) + count
    emit_block(
        "Lifecycle events (all runs)",
        format_table(
            ["event", "count"],
            [[kind, event_totals[kind]] for kind in sorted(event_totals)],
        )
        if event_totals
        else "(no events recorded)",
    )
    if arguments.trace_out:
        from pathlib import Path

        files = sorted(str(path) for path in Path(arguments.trace_out).glob("trace_*"))
        emit_block(
            f"Trace files in {arguments.trace_out}",
            "\n".join(files) if files else "(none written)",
        )
    return 0


def _parse_dimensions(pairs: Sequence[str]) -> Dict[str, List[Any]]:
    """Parse ``name=v1,v2,...`` grid dimensions (tokens as ``--set`` reads them)."""
    dimensions: Dict[str, List[Any]] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"bad --over dimension {pair!r}; expected NAME=V1,V2,...")
        name, _, values = pair.partition("=")
        dimensions[name] = [_convert_token(token) for token in values.split(",") if token]
    return dimensions


def _command_sweep(arguments: argparse.Namespace) -> int:
    try:
        base = (
            Simulation.builder()
            .scenario(arguments.scenarios[0])
            .workload(arguments.workload)
            .seed(arguments.seed)
            .build()
        )
        sweep = Sweep(base).over(scenario=list(arguments.scenarios))
        dimensions = _parse_dimensions(arguments.over)
        if dimensions:
            sweep = sweep.over(**dimensions)
        sweep = sweep.trials(arguments.trials)
        sweep.jobs()  # expand eagerly so grid-value errors surface here
    except (KeyError, TypeError, ValueError) as error:
        # Registry misses and bad grid values should read as usage errors,
        # not tracebacks.
        message = error.args[0] if error.args else error
        raise SystemExit(f"repro sweep: {message}")
    result = sweep.run(workers=arguments.workers)
    if arguments.json_path:
        result.to_json(arguments.json_path)
    frame = ResultFrame.from_sweep(result)
    if arguments.csv_path:
        frame.to_csv(arguments.csv_path)
    # from_sweep puts the (sorted) tag columns ahead of the metric columns.
    tags = frame.column_names[: frame.column_names.index("efficiency")]
    table_rows = [
        [
            str(row["scenario"]),
            ", ".join(f"{key}={row[key]}" for key in tags if key not in ("scenario", "seed")),
            "-" if row["efficiency"] is None else format_percentage(row["efficiency"]),
        ]
        for row in frame.rows()
    ]
    emit_block(
        f"Sweep — {arguments.workload} ({len(result)} runs, {arguments.workers} workers)",
        format_table(["scenario", "cell", "efficiency"], table_rows),
    )
    return 0


def _command_serve(arguments: argparse.Namespace) -> int:
    from .service import ServiceConfig, ServiceServer

    idle_timeout = arguments.idle_timeout if arguments.idle_timeout > 0 else None
    retention = arguments.retention if arguments.retention > 0 else None
    if arguments.resume and arguments.persist_dir is None:
        raise SystemExit("--resume requires --persist DIR (the journal to replay)")
    server = ServiceServer(
        ServiceConfig(
            host=arguments.host,
            port=arguments.port,
            workers=arguments.workers,
            idle_timeout=idle_timeout,
            retention_default=retention,
            max_sessions=arguments.max_sessions,
            trace_dir=arguments.trace_out,
            persist_dir=arguments.persist_dir,
            resume=arguments.resume,
        )
    )
    server.start()
    persisted = (
        f" persist={arguments.persist_dir}" if arguments.persist_dir else ""
    )
    emit_block(
        "repro service",
        f"serving at {server.url} (POST JSON-RPC 2.0 to {server.url}/rpc)\n"
        f"workers={arguments.workers} idle_timeout={idle_timeout} "
        f"retention_default={retention} max_sessions={arguments.max_sessions}"
        f"{persisted}\n"
        "stop with Ctrl-C or the service.shutdown RPC method",
    )
    try:
        server.wait()
    except KeyboardInterrupt:
        server.shutdown()
    return 0


def _command_loadgen(arguments: argparse.Namespace) -> int:
    from pathlib import Path

    from .service import (
        LoadgenConfig,
        ServiceConfig,
        ServiceServer,
        format_report,
        run_loadgen,
        write_bench,
    )

    server: Optional[ServiceServer] = None
    try:
        url = arguments.url
        if url is None:
            server = ServiceServer(
                ServiceConfig(port=0, workers=4, idle_timeout=None)
            ).start()
            url = server.url
        fields: Dict[str, Any] = {
            "url": url,
            "clients": arguments.clients,
            "requests_per_client": arguments.requests,
            "mode": arguments.mode,
            "arrival": arguments.arrival,
            "rate": arguments.rate,
            "mix": arguments.mix,
            "seed": arguments.seed if arguments.seed is not None else 0,
            "smoke": arguments.smoke,
            "p95_ceiling_ms": arguments.p95_ceiling,
        }
        for name, value in _parse_overrides(arguments.overrides).items():
            if name not in fields:
                raise SystemExit(
                    f"repro loadgen: unknown --set field {name!r}; known: {sorted(fields)}"
                )
            fields[name] = value
        try:
            config = LoadgenConfig(**fields)
        except ValueError as error:
            raise SystemExit(f"repro loadgen: {error}")
        report = run_loadgen(config)
        emit_block("Load generator", format_report(report))
        if arguments.output:
            write_bench(report, Path(arguments.output))
            emit_block("Bench", f"wrote {arguments.output}")
        if arguments.smoke:
            return 0 if report["passed"] else 1
        return 0
    finally:
        if server is not None:
            server.shutdown()


def _command_golden(arguments: argparse.Namespace) -> int:
    from . import golden

    names = [arguments.name] if arguments.verb == "record" else arguments.names or sorted(golden.GOLDENS)
    unknown = sorted(set(names) - set(golden.GOLDENS))
    if unknown:
        raise SystemExit(f"repro golden: unknown name(s) {unknown}; known: {sorted(golden.GOLDENS)}")
    if arguments.verb == "record":
        try:
            sha = golden.record(arguments.name, arguments.reason)
        except ValueError as error:
            raise SystemExit(f"repro golden record: {error}")
        print(f"{arguments.name}: recorded {sha}")
        return 0
    failed = 0
    for name in names:
        found = golden.check(name)
        failed += bool(found)
        print(golden.report(name, found))
    print(f"{len(names) - failed}/{len(names)} goldens hold")
    return 1 if failed else 0


def _command_list(arguments: argparse.Namespace) -> int:
    from .service.catalog import registry_catalog

    catalog = registry_catalog()
    titles = {
        "scenarios": "Registered scenarios",
        "workloads": "Registered workloads",
        "adversaries": "Registered adversaries",
        "topologies": "Registered topologies",
        "experiments": "Registered experiments",
        "probes": "Registered probes",
    }

    def lines(section: str) -> str:
        rendered = "\n".join(
            f"{entry['name']}  ({entry['description']})" for entry in catalog[section]
        )
        return rendered or "(none registered)"

    selected = [section for section in titles if getattr(arguments, section, False)]
    for section in selected or titles:
        emit_block(titles[section], lines(section))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    arguments = build_parser().parse_args(argv)
    handlers = {
        "run": _command_run,
        "claims": _command_claims,
        "trace": _command_trace,
        "sweep": _command_sweep,
        "serve": _command_serve,
        "loadgen": _command_loadgen,
        "golden": _command_golden,
        "list": _command_list,
    }
    return handlers[arguments.command](arguments)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in examples
    sys.exit(main())
