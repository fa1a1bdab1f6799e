"""Command-line interface: ``python -m repro`` / ``repro-diagnose``.

Subcommands:

- ``circuits``            list registered benchmark circuits,
- ``stats <circuit>``     print a circuit's characteristics,
- ``atpg <circuit>``      generate and report a compacted test set,
- ``inject <circuit>``    sample defects, apply the test, write a datalog,
- ``diagnose <circuit>``  run the diagnosis against a datalog file,
- ``campaign <circuit>``  run a scored injection campaign,
- ``serve``               run the fault-tolerant diagnosis daemon
                          (``--role standalone|worker|coordinator``),
- ``cluster status``      query a node's fabric view (membership, leases).

``repro serve`` exit codes are distinct, documented (``--help``), and
shared by every role so supervisors can react per failure class: 0 clean
drain, 1 drain deadline overran (deferred jobs recover on restart), 2
configuration error (including a coordinator configured with zero
workers), 3 bind failure, 4 job store locked by another daemon.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro import __version__
from repro.atpg.random_gen import PODEM_WORK_BUDGET, generate_stuck_at_tests
from repro.campaign.driver import Campaign, CampaignConfig, provision_patterns
from repro.campaign.samplers import DEFAULT_MIX, sample_defect_set
from repro.campaign.tables import format_table
from repro.circuit.bench import parse_bench_file
from repro.circuit.library import circuit_names, load_circuit
from repro.circuit.netlist import Netlist
from repro.core.diagnose import (
    COVER_ENGINES,
    PER_DIE_METHODS,
    DiagnosisConfig,
    run_method,
)
from repro.errors import DatalogError, ReproError
from repro.obs.trace import NULL_TRACER, Tracer, to_chrome_trace
from repro.tester.harness import apply_test
from repro.tester.noise import read_datalog


def _load(circuit: str) -> Netlist:
    path = Path(circuit)
    if path.exists():
        if path.suffix == ".bench":
            return parse_bench_file(path)
        if path.suffix in (".v", ".vg"):
            from repro.circuit.verilog import parse_verilog_file

            return parse_verilog_file(path)
    return load_circuit(circuit)


def _cmd_circuits(_args: argparse.Namespace) -> int:
    rows = []
    for name in circuit_names():
        netlist = load_circuit(name)
        stats = netlist.stats()
        rows.append(
            (name, stats["inputs"], stats["outputs"], stats["gates"], stats["depth"])
        )
    print(format_table(["circuit", "PIs", "POs", "gates", "depth"], rows))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    netlist = _load(args.circuit)
    for key, value in netlist.stats().items():
        print(f"{key:>14}: {value}")
    return 0


def _cmd_atpg(args: argparse.Namespace) -> int:
    netlist = _load(args.circuit)
    if args.n_detect > 1:
        from repro.atpg.ndetect import generate_ndetect_tests

        ndreport = generate_ndetect_tests(netlist, args.n_detect, seed=args.seed)
        print(
            f"{netlist.name}: {ndreport.patterns.n} patterns, "
            f"{ndreport.fraction_meeting_target:.1%} of testable faults "
            f"detected >= {args.n_detect} times"
        )
        return 0
    report = generate_stuck_at_tests(netlist, seed=args.seed)
    print(
        f"{netlist.name}: {report.patterns.n} patterns, "
        f"coverage {report.coverage:.1%} of {report.n_faults} collapsed faults "
        f"({report.n_untestable} untestable, {report.n_aborted} aborted, "
        f"{report.n_skipped} skipped); PODEM work {report.podem_work:,} "
        f"of {PODEM_WORK_BUDGET:,} implications"
    )
    return 0


def _cmd_timing(args: argparse.Namespace) -> int:
    from repro.sim.timing import arrival_times, propagation_depths

    netlist = _load(args.circuit)
    arrival = arrival_times(netlist)
    depth = propagation_depths(netlist)
    critical = max(arrival.values())
    print(f"{netlist.name}: critical path {critical:.0f} gate delays")
    slack_histogram: dict[int, int] = {}
    for net in netlist.nets():
        slack = int(critical - (arrival[net] + depth[net]))
        slack_histogram[slack] = slack_histogram.get(slack, 0) + 1
    print("slack histogram (nets per slack bucket):")
    for slack in sorted(slack_histogram):
        print(f"  slack {slack:>3d}: {'#' * min(slack_histogram[slack], 60)}")
    return 0


def _cmd_inject(args: argparse.Namespace) -> int:
    netlist = _load(args.circuit)
    patterns = provision_patterns(netlist, args.pattern_seed)
    defects = sample_defect_set(netlist, args.defects, seed=args.seed, mix=DEFAULT_MIX)
    noise = None
    if args.noise:
        from repro.tester.noise import parse_noise_spec

        noise = parse_noise_spec(args.noise)
    result = apply_test(netlist, patterns, defects, noise=noise, noise_seed=args.seed)
    print(f"injected: {', '.join(map(str, defects))}", file=sys.stderr)
    print(
        f"device {'FAILS' if result.device_fails else 'passes'} "
        f"({len(result.datalog.failing_indices)}/{patterns.n} failing patterns)",
        file=sys.stderr,
    )
    if result.raw is not None:
        # Emit the corrupted log as the tester would have: contradictions,
        # duplicates and all (diagnose --noise-report re-ingests it).
        print(result.ingest.describe(), file=sys.stderr)
        text = result.raw.to_text()
    else:
        text = result.datalog.to_text()
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    netlist = _load(args.circuit)
    patterns = provision_patterns(netlist, args.pattern_seed)
    path = Path(args.datalog)
    try:
        text = path.read_text()
    except OSError as exc:
        raise DatalogError(f"{path}: cannot read datalog: {exc}") from exc
    try:
        datalog, evidence, ingest = read_datalog(text, tolerant=args.noise_report)
        if ingest is not None:
            print(ingest.describe(), file=sys.stderr)
            for warning in ingest.warnings:
                print(f"  {warning}", file=sys.stderr)
        datalog.validate_for(netlist, n_patterns=patterns.n)
    except DatalogError as exc:
        raise DatalogError(f"{path}: {exc}") from exc
    tracer = Tracer() if args.trace else None
    # The method span holds the whole run, as in a traced campaign trial.
    with (tracer or NULL_TRACER).span(f"method:{args.method}", method=args.method):
        report = run_method(
            args.method,
            netlist,
            patterns,
            datalog,
            config=_budget_config(args),
            raw=evidence if args.validate else None,
            tracer=tracer,
        )
    print(report.summary())
    if not report.is_exact:
        print(
            f"diagnosis is {report.completeness}: partial but usable; "
            "raise --deadline/--max-expansions for a sharper result",
            file=sys.stderr,
        )
    if args.json:
        Path(args.json).write_text(report.to_json())
        print(f"(full report written to {args.json})", file=sys.stderr)
    if tracer is not None:
        Path(args.trace_out).write_text(
            json.dumps(to_chrome_trace([(0, tracer.to_dicts())]))
        )
        print(f"(chrome trace written to {args.trace_out})", file=sys.stderr)
    if args.metrics_out:
        _write_metrics(args.metrics_out)
    return 0


def _write_metrics(path: str) -> None:
    """Export the process metrics registry: Prometheus text, or JSON when
    the path ends in ``.json``."""
    from repro.obs.metrics import REGISTRY

    text = (
        REGISTRY.to_json()
        if str(path).endswith(".json")
        else REGISTRY.to_prometheus_text()
    )
    Path(path).write_text(text)
    print(f"(metrics written to {path})", file=sys.stderr)


def _budget_config(args: argparse.Namespace) -> DiagnosisConfig | None:
    """A DiagnosisConfig carrying the CLI search flags, or None if unset.

    ``None`` (every flag at its default) keeps the historical pipeline
    byte-identical -- campaigns then journal the same config fingerprint
    as before these flags existed.
    """
    cover_engine = getattr(args, "cover_engine", "greedy")
    if (
        args.deadline is None
        and args.max_multiplets is None
        and args.max_expansions is None
        and cover_engine == "greedy"
    ):
        return None
    return DiagnosisConfig(
        cover_engine=cover_engine,
        deadline_seconds=args.deadline,
        max_multiplets=args.max_multiplets,
        max_expansions=args.max_expansions,
    )


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign.runner import RunnerConfig

    if args.noise:
        # Fail fast on a bad spec instead of burning a trial per worker.
        from repro.tester.noise import parse_noise_spec

        parse_noise_spec(args.noise)
    campaign = Campaign(args.circuit)
    config = CampaignConfig(
        circuit=args.circuit,
        n_trials=args.trials,
        k=args.defects,
        methods=tuple(args.methods.split(",")),
        seed=args.seed,
        interacting=args.interacting,
        diagnosis_config=_budget_config(args),
        noise=args.noise,
        trace=args.trace,
    )
    runner = RunnerConfig(
        jobs=args.jobs,
        timeout=args.timeout,
        retries=args.retries,
        journal=args.journal,
        resume=args.resume,
    )
    if args.resume and not args.journal:
        print("campaign: --resume requires --journal", file=sys.stderr)
        return 2
    result = campaign.run(config, runner)
    if args.csv:
        from repro.campaign.export import outcomes_to_csv

        Path(args.csv).write_text(outcomes_to_csv(result))
    if args.json:
        from repro.campaign.export import result_to_json

        Path(args.json).write_text(result_to_json(result))
    if args.trace:
        payload = to_chrome_trace(
            (entry["trial"], entry["spans"]) for entry in result.traces
        )
        Path(args.trace_out).write_text(json.dumps(payload))
        print(
            f"(chrome trace of {len(result.traces)} trial(s) written to "
            f"{args.trace_out})",
            file=sys.stderr,
        )
    if args.metrics_out:
        _write_metrics(args.metrics_out)
    headers = [
        "method", "trials", "recall", "precision", "resolution", "success", "time",
    ]
    rows = [
        [
            agg.group,
            agg.n_trials,
            f"{agg.recall_near:.2f}",
            f"{agg.precision:.2f}",
            f"{agg.resolution:.1f}",
            f"{agg.success_rate:.2f}",
            f"{agg.seconds * 1000:.0f}ms",
        ]
        for agg in result.by_method().values()
    ]
    if args.noise:
        # The oracle runs on every noisy trial; surface its agreement.
        headers.append("confirmed")
        for row, agg in zip(rows, result.by_method().values()):
            row.append(f"{agg.confirmed_rate:.2f}")
    print(
        format_table(
            headers,
            [tuple(row) for row in rows],
            title=f"campaign {args.circuit} k={args.defects}"
            + (f" noise={args.noise}" if args.noise else ""),
        )
    )
    truncated = sum(1 for o in result.outcomes if o.completeness != "exact")
    if truncated:
        print(
            f"{truncated} diagnosis run(s) hit the resource budget and "
            "reported a truncated (anytime) result",
            file=sys.stderr,
        )
    if result.resumed_trials:
        print(
            f"resumed {result.resumed_trials} journaled trial(s) without "
            "re-execution",
            file=sys.stderr,
        )
    if result.skip_reasons:
        reasons = ", ".join(
            f"{name}={count}" for name, count in sorted(result.skip_reasons.items())
        )
        print(
            f"skipped {result.skipped_trials} trial(s); resamples: {reasons}",
            file=sys.stderr,
        )
    for error in result.trial_errors:
        print(
            f"trial {error.trial} failed [{error.cause}] after "
            f"{error.attempts} attempt(s): {error}",
            file=sys.stderr,
        )
    return 1 if result.trial_errors else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.errors import BindError, JournalError, ServeError
    from repro.serve.app import (
        EXIT_BIND,
        EXIT_CONFIG,
        EXIT_LOCKED,
        ServeConfig,
        serve,
    )

    try:
        if args.role == "coordinator":
            return _serve_coordinator(args)
        if args.worker:
            raise ServeError(
                "--worker only applies to --role coordinator "
                f"(got --role {args.role})"
            )
        config = ServeConfig(
            store=args.store,
            host=args.host,
            port=args.port,
            workers=args.jobs,
            queue_depth=args.queue_depth,
            high_water=args.high_water,
            drain_seconds=args.drain_seconds,
            retries=args.retries,
            fsync=not args.no_fsync,
            compact_bytes=args.compact_bytes if args.compact_bytes > 0 else None,
            compact_age_seconds=args.compact_age if args.compact_age > 0 else None,
            stuck_seconds=args.stuck_seconds if args.stuck_seconds > 0 else None,
            retry_wall_seconds=args.retry_wall if args.retry_wall > 0 else None,
            chaos=args.chaos,
            role=args.role,
        )
        if config.workers < 1:
            raise ServeError("--jobs must be >= 1")
        if config.queue_depth < 1:
            raise ServeError("--queue-depth must be >= 1")
        if not 0.0 < config.high_water <= 1.0:
            raise ServeError("--high-water must be in (0, 1]")
        if config.drain_seconds < 0 or config.retries < 0:
            raise ServeError("--drain-seconds and --retries must be >= 0")
        return serve(config)
    except BindError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BIND
    except JournalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LOCKED
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _serve_coordinator(args: argparse.Namespace) -> int:
    """Build and run the cluster coordinator (raises for the exit-code
    mapping in :func:`_cmd_serve`)."""
    from repro.errors import ServeError
    from repro.serve.cluster import CoordinatorConfig, serve_coordinator

    if args.queue_depth < 1:
        raise ServeError("--queue-depth must be >= 1")
    if args.heartbeat_interval < 0 or args.lease_seconds <= 0:
        raise ServeError(
            "--heartbeat-interval must be >= 0 and --lease-seconds > 0"
        )
    if args.max_failures < 1 or args.min_live < 1:
        raise ServeError("--max-failures and --min-live must be >= 1")
    config = CoordinatorConfig(
        store=args.store,
        host=args.host,
        port=args.port,
        workers=tuple(args.worker),  # empty -> ServeError from the parser
        heartbeat_interval=args.heartbeat_interval,
        max_failures=args.max_failures,
        lease_seconds=args.lease_seconds,
        min_live=args.min_live,
        queue_depth=args.queue_depth,
        drain_seconds=args.drain_seconds,
        retry_wall_seconds=args.retry_wall if args.retry_wall > 0 else None,
        fsync=not args.no_fsync,
        compact_bytes=args.compact_bytes if args.compact_bytes > 0 else None,
        chaos=args.chaos,
    )
    return serve_coordinator(config)


def _cmd_cluster_status(args: argparse.Namespace) -> int:
    from repro.serve.cluster.client import NodeUnreachable, WorkerClient

    client = WorkerClient(timeout=args.timeout)
    try:
        status, payload = client.request(
            args.url, "health", "GET", "/cluster/status"
        )
    except NodeUnreachable as exc:
        raise ReproError(str(exc)) from exc
    if status != 200:
        raise ReproError(
            f"{args.url}/cluster/status answered {status}: "
            f"{payload.get('error', payload)}"
        )
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(f"role: {payload.get('role', 'unknown')}")
    counts = payload.get("counts", {})
    if counts:
        summary = ", ".join(
            f"{state}={counts[state]}" for state in sorted(counts)
        )
        print(f"jobs: {summary}")
    for node in payload.get("nodes", []):
        print(
            f"node {node['name']:>8} {node['state']:>8} "
            f"failures={node['failures']} {node.get('url', '')}"
        )
    leases = payload.get("leases", [])
    for lease in leases:
        print(
            f"lease {lease['id']} -> {lease['node']} "
            f"attempt={lease['attempt']} "
            f"expires_in={lease['expires_in_seconds']}s"
            + (" (adopted)" if lease.get("adopted") else "")
        )
    pending = payload.get("pending", [])
    if pending:
        print(f"pending dispatch: {', '.join(pending)}")
    if "queued" in payload:
        print(
            f"queued={payload['queued']} running={payload['running']} "
            f"draining={payload.get('draining', False)}"
        )
    return 0


def _cmd_store_compact(args: argparse.Namespace) -> int:
    from repro.serve.store import JobStore

    if not Path(args.store).exists():
        # Opening would create an empty store -- a typo'd path must not
        # silently succeed as a 0-record "compaction".
        raise ReproError(f"job store not found: {args.store}")
    store = JobStore(args.store)
    store.open(recover=False)  # JournalError when a daemon holds the lock
    try:
        stats = store.compact()
    finally:
        store.close()
    print(
        f"compacted {args.store}: {stats['before_bytes']} -> "
        f"{stats['after_bytes']} bytes "
        f"({stats['records']} records kept, "
        f"{stats['dropped_records']} superseded records dropped)"
    )
    return 0


def _add_obs_args(p: argparse.ArgumentParser) -> None:
    """Observability flags shared by ``diagnose`` and ``campaign``."""
    p.add_argument(
        "--trace",
        action="store_true",
        help="record per-stage spans and write a Chrome-trace JSON "
        "(open in chrome://tracing or Perfetto as a flamegraph); never "
        "changes the diagnosis itself",
    )
    p.add_argument(
        "--trace-out",
        default="trace.json",
        help="Chrome-trace output path for --trace (default: trace.json)",
    )
    p.add_argument(
        "--metrics-out",
        help="export the process metrics registry on exit: Prometheus "
        "text format, or JSON when the path ends in .json",
    )


def _add_budget_args(p: argparse.ArgumentParser) -> None:
    """Search-governance flags shared by ``diagnose`` and ``campaign``."""
    p.add_argument(
        "--cover-engine",
        choices=COVER_ENGINES,
        default="greedy",
        help="multiplet search engine: greedy (historical default) or exact "
        "(implicit hitting sets, provably minimum covers with an "
        "optimality status)",
    )
    p.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="in-engine wall-clock budget in seconds; on expiry the "
        "diagnosis returns what it has (completeness != exact) instead "
        "of running on",
    )
    p.add_argument(
        "--max-multiplets",
        type=int,
        default=None,
        help="stop enumerating multiplet covers beyond this many",
    )
    p.add_argument(
        "--max-expansions",
        type=int,
        default=None,
        help="ceiling on expansion nodes (joint simulations / cover checks)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Assumption-free multiple defect diagnosis (DAC 2008 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("circuits", help="list benchmark circuits").set_defaults(
        func=_cmd_circuits
    )

    p = sub.add_parser("stats", help="circuit characteristics")
    p.add_argument("circuit")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("atpg", help="generate a compacted stuck-at test set")
    p.add_argument("circuit")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--n-detect", type=int, default=1)
    p.set_defaults(func=_cmd_atpg)

    p = sub.add_parser("timing", help="static timing profile of a circuit")
    p.add_argument("circuit")
    p.set_defaults(func=_cmd_timing)

    p = sub.add_parser("inject", help="sample defects and emit a datalog")
    p.add_argument("circuit")
    p.add_argument("-k", "--defects", type=int, default=2)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--pattern-seed", type=int, default=7)
    p.add_argument(
        "--noise",
        help="corrupt the emitted datalog with a seeded noise spec, e.g. "
        "flip:0.02 or flip:0.02+dup:0.1 (models: flip, drop, trunc, "
        "xmask, dup)",
    )
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_inject)

    p = sub.add_parser("diagnose", help="diagnose a datalog")
    p.add_argument("circuit")
    p.add_argument("datalog")
    p.add_argument("--method", choices=PER_DIE_METHODS, default="xcover")
    p.add_argument("--pattern-seed", type=int, default=7)
    p.add_argument("--json", help="also write the full report as JSON")
    p.add_argument(
        "--noise-report",
        action="store_true",
        help="ingest tolerantly: quarantine contradictory/malformed "
        "records into the X tier and print the anomaly report instead "
        "of rejecting the datalog",
    )
    p.add_argument(
        "--validate",
        action="store_true",
        help="run the post-diagnosis oracle: resimulate reported "
        "candidates against the raw evidence and attach verdicts",
    )
    _add_budget_args(p)
    _add_obs_args(p)
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("campaign", help="run a scored injection campaign")
    p.add_argument("circuit")
    p.add_argument("-k", "--defects", type=int, default=2)
    p.add_argument("-n", "--trials", type=int, default=10)
    p.add_argument("--methods", default="xcover,slat,single")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--interacting", action="store_true")
    p.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        help="worker processes; >1 runs trials concurrently in isolation",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-trial wall-clock budget in seconds (kills stuck trials)",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=1,
        help="retries for transient trial failures (crash/timeout)",
    )
    p.add_argument(
        "--journal",
        help="append-only JSONL trial journal (checkpoint for --resume)",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="replay journaled trials instead of re-executing them",
    )
    p.add_argument("--csv", help="write per-trial outcomes as CSV")
    p.add_argument("--json", help="write the full campaign record as JSON")
    p.add_argument(
        "--noise",
        help="datalog noise spec applied to every trial (e.g. flip:0.02); "
        "diagnosis runs on the quarantined sanitizer output and the "
        "oracle judges every report against the raw log",
    )
    _add_budget_args(p)
    _add_obs_args(p)
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser(
        "serve",
        help="run the fault-tolerant diagnosis daemon (durable job store, "
        "crash recovery, backpressure, graceful drain) or the cluster "
        "coordinator (--role coordinator)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "exit codes (all roles):\n"
            "  0  clean drain (SIGTERM honored within the deadline)\n"
            "  1  drain deadline overran; deferred jobs recover on restart\n"
            "  2  configuration error (bad flag, zero workers for a "
            "coordinator)\n"
            "  3  listen address could not be bound\n"
            "  4  job store locked by another daemon\n"
        ),
    )
    p.add_argument(
        "--role",
        choices=("standalone", "worker", "coordinator"),
        default="standalone",
        help="standalone serves end clients directly; worker is the same "
        "daemon fronted by a coordinator; coordinator admits jobs and "
        "dispatches them to --worker nodes under durable leases",
    )
    p.add_argument(
        "--worker",
        action="append",
        default=[],
        metavar="[NAME=]URL",
        help="(coordinator) one worker node base URL, repeatable; bare "
        "URLs are auto-named w0, w1, ...; a coordinator with zero "
        "workers refuses to start",
    )
    p.add_argument(
        "--heartbeat-interval",
        type=float,
        default=1.0,
        help="(coordinator) seconds between worker /healthz polls",
    )
    p.add_argument(
        "--max-failures",
        type=int,
        default=3,
        help="(coordinator) consecutive heartbeat failures before a "
        "worker is declared dead and its leases are taken over",
    )
    p.add_argument(
        "--lease-seconds",
        type=float,
        default=15.0,
        help="(coordinator) unrenewed-lease expiry; the takeover backstop "
        "for partitions that drop responses without refusing connections",
    )
    p.add_argument(
        "--min-live",
        type=int,
        default=1,
        help="(coordinator) admission floor: below this many routable "
        "workers new submissions get 503 + Retry-After",
    )
    p.add_argument(
        "--store",
        default="jobs.jsonl",
        help="durable job journal path; restart with the same path to "
        "recover in-flight jobs (default: jobs.jsonl)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=8765,
        help="listen port; 0 picks a free port (printed on startup)",
    )
    p.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=2,
        help="worker threads (shard-affine by circuit fingerprint)",
    )
    p.add_argument(
        "--queue-depth",
        type=int,
        default=16,
        help="admission bound: queued jobs past this are rejected with 429",
    )
    p.add_argument(
        "--high-water",
        type=float,
        default=0.75,
        help="queue fraction past which readiness drops and new jobs run "
        "under degraded QoS budgets",
    )
    p.add_argument(
        "--drain-seconds",
        type=float,
        default=10.0,
        help="SIGTERM drain deadline for in-flight jobs",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=1,
        help="retries for transient job failures",
    )
    p.add_argument(
        "--no-fsync",
        action="store_true",
        help="skip per-record fsync on the job store (faster, loses the "
        "acknowledged-implies-durable guarantee)",
    )
    p.add_argument(
        "--compact-bytes",
        type=int,
        default=4 << 20,
        help="compact the job store when its journal exceeds this many "
        "bytes (0 disables; default: 4 MiB)",
    )
    p.add_argument(
        "--compact-age",
        type=float,
        default=0.0,
        help="also compact every this many seconds (0 disables)",
    )
    p.add_argument(
        "--stuck-seconds",
        type=float,
        default=300.0,
        help="watchdog: abandon and requeue a job wedged on one worker "
        "longer than this (0 disables wedge detection)",
    )
    p.add_argument(
        "--retry-wall",
        type=float,
        default=600.0,
        help="total wall-clock a job may spend in retries/requeues before "
        "it fails terminally (0: unbounded)",
    )
    p.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="arm the deterministic fault-injection plan, e.g. "
        "'fsync_eio:0.05+slow_io:20ms' (testing only; falls back to the "
        "REPRO_CHAOS environment variable)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "store",
        help="offline job-store maintenance",
    )
    store_sub = p.add_subparsers(dest="store_command", required=True)
    p = store_sub.add_parser(
        "compact",
        help="rewrite the job journal as a minimal snapshot (crash-safe: "
        "new journal is fsync'd then atomically renamed over the old)",
    )
    p.add_argument(
        "--store",
        default="jobs.jsonl",
        help="job journal path (default: jobs.jsonl); refuses to run "
        "while a daemon holds the store lock",
    )
    p.set_defaults(func=_cmd_store_compact)

    p = sub.add_parser(
        "cluster",
        help="cluster fabric introspection",
    )
    cluster_sub = p.add_subparsers(dest="cluster_command", required=True)
    p = cluster_sub.add_parser(
        "status",
        help="query a node's /cluster/status (coordinator: membership, "
        "leases, pending dispatches; worker/standalone: role and load)",
    )
    p.add_argument(
        "--url",
        default="http://127.0.0.1:8765",
        help="node base URL (default: http://127.0.0.1:8765)",
    )
    p.add_argument("--timeout", type=float, default=5.0)
    p.add_argument(
        "--json", action="store_true", help="print the raw JSON payload"
    )
    p.set_defaults(func=_cmd_cluster_status)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except ReproError as exc:
        # Library errors are user-facing diagnoses (bad file, bad circuit,
        # mismatched journal...), not tracebacks.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
