"""Command-line front end for the parallel experiment engine.

``python -m repro`` (or the ``repro`` console script) exposes the workflows
every figure of the paper is built from, plus the component registries:

``sweep``
    A Fig. 4-style latency-vs-injection-rate sweep: one latency curve per
    policy, with the 10x-zero-load saturation rate per curve.

``compare``
    A Fig. 6/7-style single-operating-point comparison: one row per policy
    with absolute and Elevator-First-normalized metrics.

``run``
    Execute experiment specs from a ``--spec`` JSON file (a single
    :meth:`repro.spec.ExperimentSpec.to_dict` document or a list of them)
    through the batch engine and print one summary row per spec.  A spec
    carrying a ``scenario`` timeline of elevator faults and repairs gets
    its per-phase measurement windows printed beneath its row.

``optimize``
    Run (or fetch from the design cache) the paper's offline stage for
    one placement: a registered optimizer (``amosa`` by default;
    ``random-search`` / ``greedy-swap`` as baselines) searches the
    per-router elevator-subset space, prints the Pareto front, the
    representative (S0...) points and the strategy-selected solution.
    ``--spec FILE`` reads a ``DesignSpec`` JSON document; flags override
    its fields, ``--progress`` streams per-iteration progress, and a warm
    ``--cache-dir`` serves the whole design from its store.

``serve``
    Run the persistent experiment service: a ``ThreadingHTTPServer`` front
    end (submit/status/result/cancel; see :mod:`repro.service.http`) over a
    durable SQLite-backed job queue drained by a supervised worker pool.
    Jobs dedup by spec hash, completed tasks are recorded individually so
    interrupted sweeps resume, and results are bit-identical to direct
    ``repro run`` invocations of the same specs.  Its ``--cache-dir`` is
    the same store the other commands write, so rows a sweep cached are
    served without simulating.

``cache stats``
    What a cache directory holds, on one line: the row counts of its store
    (results, designs, jobs, tasks), its ``manifest-*.json`` checkpoints
    and their bytes on disk.

``trace export`` / ``trace report``
    Inspect a span log written by ``--trace FILE``: ``export`` converts
    the JSONL log to Chrome trace-event JSON (open it in Perfetto),
    ``report`` prints a per-span-name latency summary (count, total,
    p50/p95/max).

``stats``
    Scrape a live ``repro serve`` daemon: its ``/api/health`` document
    and the full ``GET /metrics`` Prometheus exposition (engine counters,
    queue gauges, latency histograms).

``list``
    Show every registered policy, traffic pattern, application model,
    placement, simulation backend and offline optimizer with its aliases
    and description -- including components registered by ``--plugin``
    modules.

``sweep``/``compare``/``run`` also accept ``--backend NAME`` selecting the
simulation kernel (``optimized`` by default; ``reference`` for the original
full-scan loop).  Backends are result-equivalent -- the flag changes wall
clock, never numbers.

All subcommands accept ``--plugin MODULE`` (repeatable): the module is
imported first, so its ``@register_policy`` / ``@register_pattern`` /
``register_placement`` calls run and the components become usable *by name*
(see ``examples/custom_policy.py``).

``sweep``/``compare``/``run`` share the engine flags:

``--workers N``
    Fan the experiment grid out over N processes (``1`` = serial).

``--cache-dir DIR``
    Caching of summary rows *and* AdEle offline designs in the directory's
    SQLite store (``DIR/repro.sqlite3``, the ``serve`` daemon's database);
    a warm directory makes re-runs skip every finished simulation and the
    AMOSA stage.  The directory must be on a local filesystem.  Without it,
    caching is in-memory (deduplication only).

``--seed S``
    Batch-level base seed: every task's RNG seed is derived from the
    canonical hash of its spec plus S, so results are reproducible across
    processes and worker counts.

``sweep``/``compare``/``run``/``optimize`` also accept
``--json``: one machine-readable JSON document on stdout instead of the
human tables (the format clients and scripts consume; note non-finite
floats serialize as ``Infinity``/``NaN``, which ``json.loads`` accepts).

``sweep``/``compare``/``run`` (and ``serve``) share the observability
flags:

``--trace FILE``
    Append one JSONL span record per instrumented boundary (setup,
    kernel, cache, chunk flush, queue, HTTP) to FILE; inspect with
    ``repro trace report`` / ``repro trace export``.  The spans of
    ``--workers`` > 1 processes come back to this process and are
    appended too, each stamped with its worker's pid.

``--probe-interval N`` / ``--probe-channels C1,C2``
    Attach a kernel probe sampling per-cycle congestion gauges every N
    cycles; the sampled series ride in the ``--json`` document under
    ``probes`` (keyed by cache key).  Results stay bit-identical.

``sweep``/``run`` additionally accept the checkpoint flag:

``--chunk-size C``
    Flush results to the cache (and a ``manifest-*.json`` checkpoint)
    every C completed specs, so a killed sweep resumes from its last chunk
    instead of restarting: rerunning the same command serves the flushed
    rows from cache and simulates only the rest.

The sweep/compare target is either a named placement (``--placement PS1``)
or an ad-hoc one (``--mesh X Y Z --elevators "x,y;x,y"``), which keeps CI
smoke runs on tiny meshes fast.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.comparison import format_table, policy_comparison_from_summaries
from repro.analysis.runner import design_for, design_key_for
from repro.analysis.sweep import LatencyCurve, saturation_rate
from repro.core.optimizers import OPTIMIZER_REGISTRY
from repro.core.selection import SELECTION_STRATEGIES
from repro.exec.batch import ExperimentBatch, ExperimentOutcome, summaries_by_policy
from repro.exec.cache import cache_stats, close_caches, open_caches
from repro.exec.designs import DesignBatch
from repro.obs.probes import PROBE_CHANNELS, ProbeSpec
from repro.obs.tracing import (
    JsonlRecorder,
    Tracer,
    chrome_trace_document,
    install_tracer,
    load_span_records,
    trace_report,
)
from repro.routing.base import POLICY_REGISTRY
from repro.service import http as service_http
from repro.service.client import DEFAULT_SERVICE_URL, ServiceClient, ServiceError
from repro.service.store import DEFAULT_DB_FILENAME, SqliteStore
from repro.sim.backends import BACKEND_REGISTRY, DEFAULT_BACKEND
from repro.spec import DesignSpec, ExperimentSpec, PlacementSpec, SimSpec, TrafficSpec
from repro.topology.elevators import PLACEMENT_REGISTRY
from repro.traffic.applications import APPLICATION_REGISTRY
from repro.traffic.patterns import PATTERN_REGISTRY


def _comma_floats(text: str) -> List[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _comma_names(text: str) -> List[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _parse_columns(text: str) -> List[Tuple[int, int]]:
    """Parse ``"x,y;x,y"`` elevator column lists."""
    columns: List[Tuple[int, int]] = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        x, y = part.split(",")
        columns.append((int(x), int(y)))
    return columns


def _count(text: str) -> int:
    """Argparse type of the count flags: an int >= 1.

    Rejecting 0 at parse time exits 2 with the flag's name, before a
    command opens any store.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _add_plugin_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--plugin", action="append", default=[], metavar="MODULE",
        help="import MODULE first so its registered components are usable "
             "by name (repeatable)",
    )


def _load_plugins(args: argparse.Namespace) -> None:
    for module in getattr(args, "plugin", []):
        try:
            importlib.import_module(module)
        except ImportError as error:
            raise SystemExit(f"cannot import --plugin {module!r}: {error}")


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    _add_plugin_argument(parser)
    target = parser.add_argument_group("target")
    target.add_argument(
        "--placement", default="PS1",
        help="registered placement name (see `repro list`); "
             "ignored when --mesh is given",
    )
    target.add_argument(
        "--mesh", nargs=3, type=int, metavar=("X", "Y", "Z"), default=None,
        help="ad-hoc mesh dimensions for a custom placement",
    )
    target.add_argument(
        "--elevators", default=None, metavar="X,Y;X,Y",
        help='elevator columns of the ad-hoc placement, e.g. "0,0;1,1"',
    )
    workload = parser.add_argument_group("workload")
    workload.add_argument(
        "--policies", default="elevator_first,cda,adele",
        help="comma-separated registered policy names",
    )
    workload.add_argument(
        "--traffic", default="uniform",
        help="registered traffic pattern or application name",
    )
    workload.add_argument("--warmup", type=int, default=300, help="warm-up cycles")
    workload.add_argument(
        "--measure", type=int, default=1500, help="measurement cycles"
    )
    workload.add_argument("--drain", type=int, default=800, help="max drain cycles")
    _add_backend_argument(workload)
    _add_engine_arguments(parser)


def _add_backend_argument(target) -> None:
    target.add_argument(
        "--backend", default=None, metavar="NAME",
        help="simulation kernel (see `repro list`; backends are result-"
             f"equivalent, default: {DEFAULT_BACKEND})",
    )


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    engine = parser.add_argument_group("engine")
    engine.add_argument(
        "--workers", type=_count, default=1,
        help="worker processes (1 = serial fallback)",
    )
    engine.add_argument(
        "--cache-dir", default=None,
        help=f"cache directory (results and designs persist in {DEFAULT_DB_FILENAME})",
    )
    engine.add_argument(
        "--seed", type=int, default=None,
        help="base seed; per-task seeds derive from it and the spec hash",
    )
    engine.add_argument(
        "--json", action="store_true", dest="json_output",
        help="print one machine-readable JSON document instead of tables",
    )
    _add_observability_arguments(parser)


def _add_observability_arguments(parser: argparse.ArgumentParser) -> None:
    obs = parser.add_argument_group("observability")
    _add_trace_argument(obs)
    obs.add_argument(
        "--probe-interval", type=int, default=None, metavar="N",
        help="attach a kernel probe sampling congestion gauges every N "
             "cycles (series ride in the --json document; results stay "
             "bit-identical)",
    )
    obs.add_argument(
        "--probe-channels", default=None, metavar="C1,C2",
        help="probe channel selection (default: all of "
             f"{','.join(PROBE_CHANNELS)}); implies --probe-interval 100",
    )


def _add_trace_argument(target) -> None:
    target.add_argument(
        "--trace", default=None, metavar="FILE",
        help="append one JSONL span record per instrumented boundary to "
             "FILE (inspect with `repro trace report` / `repro trace "
             "export`; worker processes' spans included, under their pids)",
    )


def _parse_probe_argument(args: argparse.Namespace) -> Optional[ProbeSpec]:
    interval = getattr(args, "probe_interval", None)
    channels_text = getattr(args, "probe_channels", None)
    if interval is None and not channels_text:
        return None
    kwargs: Dict[str, Any] = {}
    if interval is not None:
        kwargs["interval"] = interval
    if channels_text:
        try:
            kwargs["channels"] = ProbeSpec.parse_channels(channels_text)
        except ValueError as error:
            raise SystemExit(f"--probe-channels: {error}")
    try:
        return ProbeSpec(**kwargs)
    except ValueError as error:
        raise SystemExit(f"--probe-interval: {error}")


def _install_cli_tracer(args: argparse.Namespace) -> None:
    """Install a process-global JSONL tracer when ``--trace FILE`` is set."""
    path = getattr(args, "trace", None)
    if not path:
        return
    try:
        recorder = JsonlRecorder(path)
    except OSError as error:
        raise SystemExit(f"--trace: cannot open {path!r}: {error}")
    install_tracer(Tracer(recorder))


def _add_checkpoint_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument_group("checkpoints").add_argument(
        "--chunk-size", type=_count, default=None, metavar="C",
        help="flush results to the cache every C completed specs (chunked "
             "checkpointing; a killed run resumes from its last chunk)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AdEle reproduction: parallel experiment engine",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sweep = subparsers.add_parser(
        "sweep", help="latency-vs-injection-rate sweep (Fig. 4 style)"
    )
    _add_common_arguments(sweep)
    _add_checkpoint_argument(sweep)
    sweep.add_argument(
        "--rates", default="0.001,0.003,0.005",
        help="comma-separated packet injection rates",
    )

    compare = subparsers.add_parser(
        "compare", help="policy comparison at one operating point (Fig. 6/7 style)"
    )
    _add_common_arguments(compare)
    compare.add_argument(
        "--rate", type=float, default=0.004, help="packet injection rate"
    )
    compare.add_argument(
        "--baseline", default="elevator_first", help="normalization baseline policy"
    )

    run = subparsers.add_parser(
        "run",
        help="run experiment specs (scenario timelines included) from a "
             "--spec JSON file",
    )
    _add_plugin_argument(run)
    run.add_argument(
        "--spec", required=True, metavar="FILE",
        help="JSON file with one ExperimentSpec document or a list of them",
    )
    _add_backend_argument(run)
    _add_engine_arguments(run)
    _add_checkpoint_argument(run)

    optimize = subparsers.add_parser(
        "optimize",
        help="run the offline elevator-subset optimization (Fig. 3 front)",
    )
    _add_plugin_argument(optimize)
    optimize.add_argument(
        "--spec", default=None, metavar="FILE",
        help="JSON file with one DesignSpec document or a list of them "
             "(flags below override every document's fields)",
    )
    optimize.add_argument(
        "--workers", type=_count, default=1,
        help="worker processes fanning a design grid out (1 = serial)",
    )
    optimize.add_argument(
        "--seed", type=int, default=None,
        help="base seed; per-design optimizer seeds derive from it and "
             "the canonical design key",
    )
    optimize.add_argument(
        "--optimizer", default=None, metavar="NAME",
        help="registered optimizer (see `repro list`; default: amosa)",
    )
    target = optimize.add_argument_group("target")
    target.add_argument(
        "--placement", default=None,
        help="registered placement name; ignored when --mesh is given",
    )
    target.add_argument(
        "--mesh", nargs=3, type=int, metavar=("X", "Y", "Z"), default=None,
        help="ad-hoc mesh dimensions for a custom placement",
    )
    target.add_argument(
        "--elevators", default=None, metavar="X,Y;X,Y",
        help='elevator columns of the ad-hoc placement, e.g. "0,0;1,1"',
    )
    optimize.add_argument(
        "--traffic", default=None,
        help="assumed traffic pattern of the offline objectives "
             "(default: uniform)",
    )
    optimize.add_argument(
        "--max-subset-size", type=int, default=None, metavar="N",
        help="cap on each router's elevator subset size",
    )
    optimize.add_argument(
        "--selection", default=None, choices=sorted(SELECTION_STRATEGIES),
        help="archive-selection strategy for the deployed solution",
    )
    optimize.add_argument(
        "--weight-by-traffic", action="store_true",
        help="weight the distance objective by the assumed traffic matrix",
    )
    optimize.add_argument(
        "--representatives", type=int, default=None, metavar="N",
        help="how many spread (S0...) solutions to print (default: 6)",
    )
    optimize.add_argument(
        "--cache-dir", default=None,
        help=f"cache directory (designs persist in {DEFAULT_DB_FILENAME})",
    )
    optimize.add_argument(
        "--progress", action="store_true",
        help="print optimizer progress (temperature/stage, archive size, "
             "current objectives) to stderr",
    )
    optimize.add_argument(
        "--json", action="store_true", dest="json_output",
        help="print one machine-readable JSON document instead of tables "
             "(includes the engine hit/miss counters)",
    )

    serve = subparsers.add_parser(
        "serve",
        help="run the persistent experiment service (HTTP + durable queue)",
    )
    _add_plugin_argument(serve)
    serve.add_argument(
        "--host", default=service_http.DEFAULT_HOST,
        help=f"bind address (default: {service_http.DEFAULT_HOST})",
    )
    serve.add_argument(
        "--port", type=int, default=service_http.DEFAULT_PORT,
        help=f"bind port, 0 = ephemeral (default: {service_http.DEFAULT_PORT})",
    )
    serve.add_argument(
        "--workers", type=_count, default=2,
        help="worker threads draining the job queue; with two or more, "
             "each runs its simulations in a pool process (default: 2)",
    )
    serve.add_argument(
        "--cache-dir", required=True,
        help=f"service state directory (holds {DEFAULT_DB_FILENAME})",
    )
    serve.add_argument(
        "--max-attempts", type=_count, default=None, metavar="N",
        help="times a task may be claimed before it is marked failed "
             "(default: 3)",
    )
    serve.add_argument(
        "--verbose", action="store_true",
        help="DEBUG-level service logging on stderr (structured access-log "
             "events show at the default INFO level already)",
    )
    _add_trace_argument(serve)

    cache = subparsers.add_parser(
        "cache", help="inspect a cache directory (stats)"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    stats = cache_sub.add_parser(
        "stats",
        help=f"row counts of a cache directory's {DEFAULT_DB_FILENAME}, "
             "its manifests and their bytes",
    )
    stats.add_argument(
        "--cache-dir", required=True,
        help="cache directory to inspect",
    )
    stats.add_argument(
        "--json", action="store_true", dest="json_output",
        help="print the stats as one JSON document",
    )

    trace = subparsers.add_parser(
        "trace", help="inspect span logs written by --trace FILE"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    export = trace_sub.add_parser(
        "export",
        help="convert a span JSONL log to Chrome trace-event JSON "
             "(open the output in Perfetto / chrome://tracing)",
    )
    export.add_argument(
        "log", metavar="FILE", help="span JSONL log written by --trace"
    )
    export.add_argument(
        "--out", default=None, metavar="FILE",
        help="output path (default: stdout)",
    )
    report = trace_sub.add_parser(
        "report",
        help="per-span-name latency summary of a span JSONL log "
             "(count, total, p50/p95/max)",
    )
    report.add_argument(
        "log", metavar="FILE", help="span JSONL log written by --trace"
    )
    report.add_argument(
        "--json", action="store_true", dest="json_output",
        help="print the report as one JSON document",
    )

    stats_cmd = subparsers.add_parser(
        "stats",
        help="scrape a live `repro serve` daemon: health + /metrics",
    )
    stats_cmd.add_argument(
        "--url", default=DEFAULT_SERVICE_URL,
        help=f"daemon base URL (default: {DEFAULT_SERVICE_URL})",
    )
    stats_cmd.add_argument(
        "--json", action="store_true", dest="json_output",
        help="print health + raw metrics text as one JSON document",
    )

    listing = subparsers.add_parser(
        "list", help="list registered policies, traffic, applications, placements"
    )
    _add_plugin_argument(listing)
    listing.add_argument(
        "--json", action="store_true", dest="json_output",
        help="print every registry as one machine-readable JSON document",
    )
    return parser


def _base_spec(args: argparse.Namespace) -> ExperimentSpec:
    if args.mesh is None and args.elevators:
        raise SystemExit("--elevators requires --mesh")
    if args.mesh is not None:
        if not args.elevators:
            raise SystemExit("--mesh requires --elevators")
        placement = PlacementSpec(
            name="cli-custom",
            mesh=tuple(args.mesh),
            columns=tuple(_parse_columns(args.elevators)),
        )
    else:
        placement = PlacementSpec(name=args.placement)
    return ExperimentSpec(
        placement=placement,
        traffic=TrafficSpec(pattern=args.traffic),
        sim=SimSpec(
            warmup_cycles=args.warmup,
            measurement_cycles=args.measure,
            drain_cycles=args.drain,
            backend=args.backend or DEFAULT_BACKEND,
        ),
    )


def _run_batch(
    args: argparse.Namespace, specs: List[ExperimentSpec]
) -> Tuple[ExperimentBatch, List[ExperimentOutcome]]:
    """Run specs through the batch engine on ``--cache-dir``'s store."""
    result_cache, design_cache = open_caches(args.cache_dir)
    try:
        batch = ExperimentBatch(
            specs,
            workers=args.workers,
            result_cache=result_cache,
            design_cache=design_cache,
            base_seed=args.seed,
            # Re-imported inside worker processes, so --plugin components
            # exist by name under any multiprocessing start method (not
            # just fork).
            plugins=tuple(getattr(args, "plugin", [])),
            chunk_size=getattr(args, "chunk_size", None),
            manifest_dir=args.cache_dir,
            probe=_parse_probe_argument(args),
        )
        return batch, batch.run()
    finally:
        close_caches(result_cache, design_cache)


def _report_engine(batch: ExperimentBatch) -> None:
    print(
        f"[repro.exec] {batch.last_executed} simulated, "
        f"{batch.last_cached} served from cache "
        f"({batch.workers} worker{'s' if batch.workers != 1 else ''})"
    )
    if batch.last_executed:
        print(
            f"[repro.exec] setup {batch.last_setup_s:.3f}s "
            f"(memo {batch.last_memo_hits} hit(s) / "
            f"{batch.last_memo_misses} miss(es)), "
            f"kernel {batch.last_kernel_s:.3f}s"
        )
    if getattr(batch, "probe", None) is not None:
        print(
            f"[repro.obs] probe: {len(batch.last_probes)} series sampled "
            f"every {batch.probe.interval} cycle(s) "
            f"(use --json to read them)"
        )


def _probe_document(batch: ExperimentBatch) -> Dict[str, Any]:
    """The conditional ``probes`` block: one series document per key."""
    return {
        key: series.to_dict()
        for key, series in sorted(batch.last_probes.items())
    }


def _engine_document(batch) -> Dict[str, Any]:
    document: Dict[str, Any] = {
        "executed": batch.last_executed,
        "cached": batch.last_cached,
        "workers": batch.workers,
        # Observability counters ride along in every engine block: wall
        # seconds split into setup (network/route construction) vs kernel
        # (simulation proper), plus warm-worker setup-memo hit/miss counts.
        "setup_s": batch.last_setup_s,
        "kernel_s": batch.last_kernel_s,
        "memo_hits": batch.last_memo_hits,
        "memo_misses": batch.last_memo_misses,
    }
    # The chunk key appears only when chunking is in play, keeping plain
    # documents (and everything pinned on them) unchanged.
    if getattr(batch, "chunk_size", None) is not None:
        document["chunks"] = batch.last_chunks
    return document


def _outcome_document(outcome) -> Dict[str, Any]:
    return {
        "key": outcome.key,
        "from_cache": outcome.from_cache,
        "spec": outcome.spec.to_dict(),
        "summary": outcome.summary,
    }


def _print_json(document: Dict[str, Any]) -> None:
    # Python's json extension serializes non-finite floats as Infinity/NaN
    # (saturated runs carry infinite latencies); json.loads reads them back.
    print(json.dumps(document, indent=2, sort_keys=True))


def _run_sweep(args: argparse.Namespace) -> int:
    policies = _comma_names(args.policies)
    rates = _comma_floats(args.rates)
    if not policies or not rates:
        raise SystemExit("need at least one policy and one rate")
    base = _base_spec(args)
    specs = [
        base.with_(policy=policy, injection_rate=rate)
        for policy in policies
        for rate in rates
    ]
    batch, outcomes = _run_batch(args, specs)

    curves = {policy: LatencyCurve(policy=policy) for policy in policies}
    for outcome in outcomes:
        curves[outcome.spec.policy.name].add_point(
            outcome.spec.traffic.injection_rate, outcome.summary["average_latency"]
        )
    if args.json_output:
        document = {
            "command": "sweep",
            "placement": base.placement.name,
            "traffic": base.traffic.pattern,
            "engine": _engine_document(batch),
            "curves": [
                {
                    "policy": policy,
                    "points": [
                        {"injection_rate": rate, "average_latency": latency}
                        for rate, latency in curves[policy].points
                    ],
                    "saturation_rate": saturation_rate(curves[policy]),
                }
                for policy in policies
            ],
            # Same per-spec rows as `run --json`.
            "outcomes": [_outcome_document(outcome) for outcome in outcomes],
        }
        # The probes block appears only when a probe was attached, keeping
        # plain documents (and everything pinned on them) unchanged.
        if batch.probe is not None:
            document["probes"] = _probe_document(batch)
        _print_json(document)
        return 0
    _report_engine(batch)
    print(f"placement={base.placement.name} traffic={base.traffic.pattern}")
    for policy in policies:
        curve = curves[policy]
        points = "  ".join(
            f"{rate:.4f}:{latency:9.2f}" for rate, latency in curve.points
        )
        print(f"{policy:15s} {points}")
        print(
            f"{policy:15s} saturation rate (10x zero-load): "
            f"{saturation_rate(curve):.4f}"
        )
    return 0


def _run_compare(args: argparse.Namespace) -> int:
    policies = _comma_names(args.policies)
    if not policies:
        raise SystemExit("need at least one policy")
    base = _base_spec(args)
    specs = [
        base.with_(policy=policy, injection_rate=args.rate) for policy in policies
    ]
    batch, outcomes = _run_batch(args, specs)

    summaries = summaries_by_policy(outcomes)
    baseline = args.baseline
    if baseline not in summaries:
        baseline = policies[0]
        print(
            f"[repro.exec] warning: baseline {args.baseline!r} not among "
            f"--policies; normalizing to {baseline!r} instead",
            file=sys.stderr,
        )
    table = policy_comparison_from_summaries(summaries, baseline=baseline)
    if args.json_output:
        document = {
            "command": "compare",
            "placement": base.placement.name,
            "traffic": base.traffic.pattern,
            "rate": args.rate,
            "baseline": baseline,
            "engine": _engine_document(batch),
            "policies": table,
        }
        if batch.probe is not None:
            document["probes"] = _probe_document(batch)
        _print_json(document)
        return 0
    _report_engine(batch)
    print(
        f"placement={base.placement.name} traffic={base.traffic.pattern} "
        f"rate={args.rate}"
    )
    print(format_table(table))
    return 0


def _load_spec_documents(path: str) -> List[ExperimentSpec]:
    try:
        with open(path, "r") as handle:
            data = json.load(handle)
    except OSError as error:
        raise SystemExit(f"cannot read --spec file {path!r}: {error}")
    except ValueError as error:
        raise SystemExit(f"--spec file {path!r} is not valid JSON: {error}")
    documents = data if isinstance(data, list) else [data]
    specs: List[ExperimentSpec] = []
    for index, document in enumerate(documents):
        try:
            specs.append(ExperimentSpec.from_dict(document))
        except ValueError as error:
            raise SystemExit(f"--spec file {path!r}, document {index}: {error}")
    if not specs:
        raise SystemExit(f"--spec file {path!r} contains no experiment specs")
    return specs


def _run_specs(args: argparse.Namespace) -> int:
    specs = _load_spec_documents(args.spec)
    if args.backend:
        specs = [spec.with_(backend=args.backend) for spec in specs]
    batch, outcomes = _run_batch(args, specs)
    if args.json_output:
        document = {
            "command": "run",
            "engine": _engine_document(batch),
            "outcomes": [_outcome_document(outcome) for outcome in outcomes],
        }
        if batch.probe is not None:
            document["probes"] = _probe_document(batch)
        _print_json(document)
        return 0
    _report_engine(batch)
    header = f"{'placement':12s} {'policy':15s} {'traffic':14s} {'rate':>8s} {'avg_latency':>12s} {'throughput':>11s}"
    print(header)
    for outcome in outcomes:
        spec = outcome.spec
        print(
            f"{spec.placement.name:12s} {spec.policy.name:15s} "
            f"{spec.traffic.pattern:14s} {spec.traffic.injection_rate:8.4f} "
            f"{outcome.summary['average_latency']:12.2f} "
            f"{outcome.summary.get('throughput', float('nan')):11.4f}"
        )
        _print_phases(outcome.summary.get("phases", []))
    return 0


def _print_phases(phases: List[Dict[str, Any]]) -> None:
    """One line per measurement window of a scenario run's summary."""
    for phase in phases:
        end = phase["end_cycle"]
        window = f"[{phase['start_cycle']},{'...' if end is None else end})"
        latency = phase["average_latency"]
        latency_text = f"{latency:9.2f}" if latency != float("inf") else "      inf"
        energy = phase.get("energy_j")
        energy_text = f"  energy={energy * 1e9:8.2f} nJ" if energy is not None else ""
        print(
            f"  {phase['label']:24s} {window:>14s} "
            f"created={phase['packets_created']:5d} "
            f"delivered={phase['packets_delivered']:5d} "
            f"avg_latency={latency_text}{energy_text}"
        )


def _load_design_specs(path: str) -> List[DesignSpec]:
    try:
        with open(path, "r") as handle:
            data = json.load(handle)
    except OSError as error:
        raise SystemExit(f"cannot read --spec file {path!r}: {error}")
    except ValueError as error:
        raise SystemExit(f"--spec file {path!r} is not valid JSON: {error}")
    documents = data if isinstance(data, list) else [data]
    specs: List[DesignSpec] = []
    for index, document in enumerate(documents):
        try:
            specs.append(DesignSpec.from_dict(document))
        except ValueError as error:
            raise SystemExit(f"--spec file {path!r}, document {index}: {error}")
    if not specs:
        raise SystemExit(f"--spec file {path!r} contains no design specs")
    return specs


def _apply_design_overrides(
    args: argparse.Namespace, spec: DesignSpec
) -> DesignSpec:
    changes = {}
    if args.mesh is not None:
        if not args.elevators:
            raise SystemExit("--mesh requires --elevators")
        changes["placement"] = PlacementSpec(
            name="cli-custom",
            mesh=tuple(args.mesh),
            columns=tuple(_parse_columns(args.elevators)),
        )
    elif args.elevators:
        raise SystemExit("--elevators requires --mesh")
    elif args.placement:
        changes["placement"] = PlacementSpec(name=args.placement)
    if args.optimizer:
        changes["optimizer"] = args.optimizer

        def _canonical(name: str) -> str:
            return (
                OPTIMIZER_REGISTRY.entry(name).name
                if name in OPTIMIZER_REGISTRY
                else name.strip().lower()
            )

        if _canonical(args.optimizer) != _canonical(spec.optimizer):
            # Options rarely transfer between optimizers (same rule as
            # policy names in ExperimentSpec.with_).
            changes["options"] = {}
    if args.traffic:
        changes["traffic"] = args.traffic
    if args.max_subset_size is not None:
        changes["max_subset_size"] = args.max_subset_size
    if args.selection:
        changes["selection"] = args.selection
    if args.weight_by_traffic:
        changes["weight_distance_by_traffic"] = True
    if args.representatives is not None:
        changes["num_representatives"] = args.representatives
    if changes:
        spec = spec.with_(**changes)
    return spec


def _run_optimize(args: argparse.Namespace) -> int:
    specs = _load_design_specs(args.spec) if args.spec else [DesignSpec()]
    specs = [_apply_design_overrides(args, spec) for spec in specs]

    # Resolve optimizer names eagerly so typos surface as the registry's
    # did-you-mean ValueError before any work happens.
    for spec in specs:
        OPTIMIZER_REGISTRY.entry(spec.optimizer)

    _, design_cache = open_caches(args.cache_dir)
    try:
        if len(specs) == 1 and args.workers == 1 and args.seed is None:
            return _run_optimize_single(args, specs[0], design_cache)
        return _run_optimize_grid(args, specs, design_cache)
    finally:
        close_caches(design_cache)


def _design_document(spec: DesignSpec, design, from_cache: bool) -> Dict[str, Any]:
    placement = spec.placement.resolve()
    selected = design.selected
    return {
        "spec": spec.to_dict(),
        "placement": placement.name,
        "from_cache": from_cache,
        "evaluations": design.result.evaluations,
        "archive_size": len(design.result.archive),
        "baseline_objectives": list(design.baseline_objectives),
        "representatives": [
            {
                "objectives": list(entry.objectives),
                "selected": entry is design.selected,
            }
            for entry in design.representatives
        ],
        "selected": {
            "objectives": list(selected.objectives),
            "average_subset_size": selected.solution.average_subset_size(),
        },
    }


def _run_optimize_single(
    args: argparse.Namespace, spec: DesignSpec, cache
) -> int:
    placement = spec.placement.resolve()
    was_cached = (
        cache is not None and cache.get(design_key_for(spec, placement)) is not None
    )

    on_iteration = None
    if args.progress:
        def on_iteration(stage, archive_size, best):
            print(
                f"[optimize] stage={stage:g} archive={archive_size} "
                f"objectives=({best[0]:.6g}, {best[1]:.6g})",
                file=sys.stderr,
            )

    design = design_for(spec, placement, cache=cache, on_iteration=on_iteration)

    if args.json_output:
        _print_json({
            "command": "optimize",
            "engine": {
                "executed": 0 if was_cached else 1,
                "cached": 1 if was_cached else 0,
                "workers": 1,
            },
            "designs": [_design_document(spec, design, was_cached)],
        })
        return 0

    result = design.result
    print(
        f"placement={placement.name} mesh={'x'.join(map(str, placement.mesh.shape))} "
        f"elevators={placement.num_elevators} traffic={spec.traffic} "
        f"optimizer={spec.optimizer} selection={spec.selection}"
    )
    print(
        f"evaluations={result.evaluations} accepted={result.accepted_moves} "
        f"archive={len(result.archive)}"
    )
    baseline = design.baseline_objectives
    print(f"{'elevator-first baseline':28s} variance={baseline[0]:.6g} distance={baseline[1]:.6g}")
    for index, entry in enumerate(design.representatives):
        marker = " *" if entry is design.selected else ""
        print(
            f"{f'S{index}':28s} variance={entry.objectives[0]:.6g} "
            f"distance={entry.objectives[1]:.6g}{marker}"
        )
    selected = design.selected
    print(
        f"{'selected':28s} variance={selected.objectives[0]:.6g} "
        f"distance={selected.objectives[1]:.6g} "
        f"avg_subset={selected.solution.average_subset_size():.2f}"
    )
    print(
        f"[repro.exec] design {'served from cache' if was_cached else 'optimized'}"
    )
    return 0


def _run_optimize_grid(
    args: argparse.Namespace, specs: List[DesignSpec], cache
) -> int:
    """Fan a DesignSpec grid over worker processes (one row per design)."""
    if args.progress:
        print(
            "[repro.exec] warning: --progress only applies to single serial "
            "designs; ignored for grids",
            file=sys.stderr,
        )
    batch = DesignBatch(
        specs,
        workers=args.workers,
        cache=cache,
        base_seed=args.seed,
        plugins=tuple(getattr(args, "plugin", [])),
    )
    outcomes = batch.run()
    if args.json_output:
        _print_json({
            "command": "optimize",
            "engine": _engine_document(batch),
            "designs": [
                _design_document(outcome.spec, outcome.design, outcome.from_cache)
                for outcome in outcomes
            ],
        })
        return 0
    for outcome in outcomes:
        spec = outcome.spec
        placement = spec.placement.resolve()
        selected = outcome.design.selected
        source = "cache" if outcome.from_cache else "optimized"
        print(
            f"{placement.name:12s} optimizer={spec.optimizer:14s} "
            f"seed={spec.options.get('seed', '-')!s:>10s} "
            f"variance={selected.objectives[0]:.6g} "
            f"distance={selected.objectives[1]:.6g} "
            f"avg_subset={selected.solution.average_subset_size():.2f} "
            f"[{source}]"
        )
    print(
        f"[repro.exec] {batch.last_executed} optimized, "
        f"{batch.last_cached} served from cache "
        f"({batch.workers} worker{'s' if batch.workers != 1 else ''})"
    )
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    os.makedirs(args.cache_dir, exist_ok=True)
    store = SqliteStore(os.path.join(args.cache_dir, DEFAULT_DB_FILENAME))
    return service_http.serve(
        store,
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_attempts=args.max_attempts,
        plugins=tuple(getattr(args, "plugin", [])),
        verbose=getattr(args, "verbose", False),
    )


def _run_cache_stats(args: argparse.Namespace) -> int:
    if not os.path.isdir(args.cache_dir):
        raise SystemExit(f"--cache-dir {args.cache_dir!r} is not a directory")
    stats = cache_stats(args.cache_dir)
    if args.json_output:
        _print_json({"command": "cache-stats", **stats})
        return 0
    print(
        f"[repro.cache] {stats['cache_dir']} ({stats['backend']}): "
        f"{stats['results']} result(s), {stats['designs']} design(s), "
        f"{stats['jobs']} job(s), {stats['tasks']} task(s), "
        f"{stats['manifests']} manifest(s), {stats['bytes']} byte(s)"
    )
    return 0


def _load_trace_log(path: str):
    try:
        return load_span_records(path)
    except OSError as error:
        raise SystemExit(f"cannot read trace log {path!r}: {error}")
    except ValueError as error:
        raise SystemExit(str(error))


def _run_trace_export(args: argparse.Namespace) -> int:
    records = _load_trace_log(args.log)
    text = json.dumps(chrome_trace_document(records), indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(
            f"[repro.trace] {len(records)} span(s) -> {args.out} "
            "(open in https://ui.perfetto.dev or chrome://tracing)",
            file=sys.stderr,
        )
    else:
        print(text)
    return 0


def _run_trace_report(args: argparse.Namespace) -> int:
    records = _load_trace_log(args.log)
    rows = trace_report(records)
    if args.json_output:
        _print_json({
            "command": "trace-report",
            "log": args.log,
            "spans": rows,
        })
        return 0
    print(
        f"{'span':24s} {'count':>7s} {'total_ms':>10s} "
        f"{'p50_us':>9s} {'p95_us':>9s} {'max_us':>9s}"
    )
    for row in rows:
        print(
            f"{row['name']:24s} {row['count']:7d} "
            f"{row['total_us'] / 1000.0:10.2f} "
            f"{row['p50_us']:9d} {row['p95_us']:9d} {row['max_us']:9d}"
        )
    if not rows:
        print("(no spans recorded)")
    return 0


def _run_stats(args: argparse.Namespace) -> int:
    client = ServiceClient(args.url)
    try:
        health = client.health()
        metrics_text = client.metrics()
    except ServiceError as error:
        raise SystemExit(f"repro stats: {error}")
    if args.json_output:
        _print_json({
            "command": "stats",
            "url": args.url,
            "health": health,
            # The raw exposition embeds as one string; Prometheus semantics
            # (cumulative buckets etc.) do not survive naive JSON re-encoding.
            "metrics_text": metrics_text,
        })
        return 0
    tasks = health.get("tasks", {})
    counts = " ".join(f"{state}={tasks[state]}" for state in sorted(tasks))
    print(
        f"[repro.stats] {args.url}: status={health.get('status')} "
        f"workers={health.get('workers')} {counts}"
    )
    cache = health.get("cache")
    if cache:
        tables = cache.get("tables", {})
        rows = " ".join(f"{name}={tables[name]}" for name in sorted(tables))
        print(
            f"[repro.stats] cache ({cache.get('backend')}): {rows} "
            f"{cache.get('bytes')} byte(s)"
        )
    print(metrics_text, end="")
    return 0


def _print_registry(title: str, registry) -> None:
    print(f"{title}:")
    for entry in registry.entries():
        alias_note = f" (aliases: {', '.join(entry.aliases)})" if entry.aliases else ""
        description = entry.description or ""
        print(f"  {entry.name:18s} {description}{alias_note}")


def _registry_document(registry) -> List[Dict[str, Any]]:
    return [
        {
            "name": entry.name,
            "description": entry.description or "",
            "aliases": list(entry.aliases),
        }
        for entry in registry.entries()
    ]


def _run_list(args: argparse.Namespace) -> int:
    registries = (
        ("policies", POLICY_REGISTRY),
        ("traffic patterns", PATTERN_REGISTRY),
        ("applications", APPLICATION_REGISTRY),
        ("placements", PLACEMENT_REGISTRY),
        ("simulation backends", BACKEND_REGISTRY),
        ("optimizers", OPTIMIZER_REGISTRY),
    )
    if getattr(args, "json_output", False):
        _print_json({
            "command": "list",
            "registries": {
                title: _registry_document(registry)
                for title, registry in registries
            },
        })
        return 0
    for index, (title, registry) in enumerate(registries):
        if index:
            print()
        _print_registry(title, registry)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point (console script ``repro`` / ``python -m repro``)."""
    args = build_parser().parse_args(argv)
    _load_plugins(args)
    _install_cli_tracer(args)
    if args.command == "sweep":
        return _run_sweep(args)
    if args.command == "compare":
        return _run_compare(args)
    if args.command == "run":
        return _run_specs(args)
    if args.command == "optimize":
        return _run_optimize(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "cache":
        if args.cache_command == "stats":
            return _run_cache_stats(args)
        raise SystemExit(
            f"unknown cache command {args.cache_command!r}"
        )  # pragma: no cover
    if args.command == "trace":
        if args.trace_command == "export":
            return _run_trace_export(args)
        if args.trace_command == "report":
            return _run_trace_report(args)
        raise SystemExit(
            f"unknown trace command {args.trace_command!r}"
        )  # pragma: no cover
    if args.command == "stats":
        return _run_stats(args)
    if args.command == "list":
        return _run_list(args)
    raise SystemExit(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
