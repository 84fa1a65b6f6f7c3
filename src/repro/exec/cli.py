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
    through the batch engine and print one summary row per spec.

``optimize``
    Run (or fetch from the disk design cache) the paper's offline stage for
    one placement: a registered optimizer (``amosa`` by default;
    ``random-search`` / ``greedy-swap`` as baselines) searches the
    per-router elevator-subset space, prints the Pareto front, the
    representative (S0...) points and the strategy-selected solution.
    ``--spec FILE`` reads a ``DesignSpec`` JSON document; flags override
    its fields, ``--progress`` streams per-iteration progress, and a warm
    ``--cache-dir`` serves the whole design from disk.

``scenario``
    Run event-driven dynamic scenarios from a ``--spec`` JSON file: each
    spec carries a ``scenario`` timeline (traffic phases, rate ramps,
    elevator faults/repairs, markers) and the report shows one row per
    spec plus its per-phase measurement windows.  Shares the engine flags,
    so scenario grids fan out over workers and cache like any other runs.

``serve``
    Run the persistent experiment service: a ``ThreadingHTTPServer`` front
    end (submit/status/result/cancel; see :mod:`repro.service.http`) over a
    durable SQLite-backed job queue drained by a supervised worker pool.
    Jobs dedup by spec hash, completed tasks are recorded individually so
    interrupted sweeps resume, and results are bit-identical to direct
    ``repro run`` invocations of the same specs.

``merge``
    Fold the outputs of N sharded runs -- cache directories (JSON or
    SQLite) and/or ``--json`` output documents -- into one destination
    cache, verifying that overlapping keys carry identical rows.  The
    merged set is bit-identical to an unsharded run of the same grid (the
    invariant the shard tests pin) and immediately servable via
    ``--cache-dir``.

``cache migrate``
    Carry a warm JSON cache directory (``result-*.json`` /
    ``design-*.json``) into the SQLite store under unchanged keys, so
    existing caches keep hitting after switching backends.

``cache stats``
    Entry counts and bytes of a cache directory (either backend) --
    shard-cache health at a glance before/after ``repro merge``.

``trace export`` / ``trace report``
    Inspect a span log written by ``--trace FILE``: ``export`` converts
    the JSONL log to Chrome trace-event JSON (open it in Perfetto),
    ``report`` prints a per-span-name latency summary (count, total,
    p50/p95/max).

``stats``
    Scrape a live ``repro serve`` daemon: its ``/api/health`` document
    and the full ``GET /metrics`` Prometheus exposition (engine counters,
    queue gauges, latency histograms).

``probe``
    Run experiment specs with an opt-in kernel probe attached (sample
    interval + channel selection) and dump the per-cycle congestion
    series as JSONL rows.  The probe is a run argument, never a spec
    field: probed results are bit-identical to unprobed ones.

``list``
    Show every registered policy, traffic pattern, application model,
    placement, simulation backend, offline optimizer and scenario event
    kind with its aliases and description -- including components
    registered by ``--plugin`` modules.

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
    Disk-backed caching of summary rows *and* AdEle offline designs; a warm
    directory makes re-runs skip every finished simulation and the AMOSA
    stage.  Without it, caching is in-memory (deduplication only).

``--seed S``
    Batch-level base seed: every task's RNG seed is derived from the
    canonical hash of its spec plus S, so results are reproducible across
    processes and worker counts.

``--cache-backend {json,sqlite}``
    Which cache backend ``--cache-dir`` opens: ``json`` (one file per
    entry, the historical layout) or ``sqlite`` (the concurrent-safe
    service store).  Both key by the same canonical hashes.

``sweep``/``compare``/``run``/``scenario``/``optimize`` also accept
``--json``: one machine-readable JSON document on stdout instead of the
human tables (the format clients and scripts consume; note non-finite
floats serialize as ``Infinity``/``NaN``, which ``json.loads`` accepts).

``sweep``/``compare``/``run``/``scenario`` (and ``serve``) share the
observability flags:

``--trace FILE``
    Append one JSONL span record per instrumented boundary (setup,
    kernel, cache, chunk flush, queue, HTTP) to FILE; inspect with
    ``repro trace report`` / ``repro trace export``.  Multi-process runs
    (``--workers`` > 1) record only parent-side spans.

``--probe-interval N`` / ``--probe-channels C1,C2``
    Attach a kernel probe sampling per-cycle congestion gauges every N
    cycles; the sampled series ride in the ``--json`` document under
    ``probes`` (keyed by cache key).  Results stay bit-identical.

``sweep``/``run``/``scenario`` additionally accept the horizontal-scale
flags:

``--shard K/N``
    Run only the grid slice shard K of N owns (deterministic partition by
    canonical spec hash; see :mod:`repro.exec.shard`).  N invocations with
    shards ``1/N .. N/N`` -- on any hosts, each with its own
    ``--cache-dir`` -- cover the grid exactly once; ``repro merge`` folds
    their caches into the bit-identical unsharded result set.

``--chunk-size C``
    Flush results to the cache (and a ``manifest-*.json`` checkpoint)
    every C completed specs, so a killed mega-sweep resumes from its last
    chunk instead of restarting.

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
from repro.analysis.runner import design_for, design_key_for, run_experiment
from repro.analysis.sweep import LatencyCurve, saturation_rate
from repro.core.optimizers import OPTIMIZER_REGISTRY
from repro.core.selection import SELECTION_STRATEGIES
from repro.exec.aggregate import MergeConflict, StreamingAggregator, merge_results
from repro.exec.batch import ExperimentBatch, summaries_by_policy
from repro.exec.cache import available_cache_backends, cache_stats, open_caches
from repro.exec.designs import DesignBatch
from repro.exec.shard import ShardSpec, parse_shard
from repro.obs.probes import PROBE_CHANNELS, ProbeSpec
from repro.obs.tracing import (
    JsonlRecorder,
    Tracer,
    chrome_trace_document,
    install_tracer,
    load_span_records,
    span,
    trace_report,
)
from repro.routing.base import POLICY_REGISTRY
from repro.scenario.events import SCENARIO_EVENT_REGISTRY
from repro.service import http as service_http
from repro.service.client import DEFAULT_SERVICE_URL, ServiceClient, ServiceError
from repro.service.store import DEFAULT_DB_FILENAME, SqliteStore, migrate_json_cache
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
        help="simulation kernel (see `repro list`; backends are "
             f"result-equivalent, default: {DEFAULT_BACKEND})",
    )


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    engine = parser.add_argument_group("engine")
    engine.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (1 = serial fallback)",
    )
    engine.add_argument(
        "--cache-dir", default=None,
        help="directory for disk-backed result/design caching",
    )
    engine.add_argument(
        "--seed", type=int, default=None,
        help="base seed; per-task seeds derive from it and the spec hash",
    )
    _add_cache_backend_argument(engine)
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
             "export`; multi-process runs record only parent-side spans)",
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


def _add_shard_arguments(parser: argparse.ArgumentParser) -> None:
    scale = parser.add_argument_group("horizontal scale")
    scale.add_argument(
        "--shard", default=None, metavar="K/N",
        help="run only shard K of an N-way deterministic grid partition "
             "(merge the shard caches afterwards with `repro merge`)",
    )
    scale.add_argument(
        "--chunk-size", type=int, default=None, metavar="C",
        help="flush results to the cache every C completed specs (chunked "
             "checkpointing; a killed run resumes from its last chunk)",
    )


def _parse_shard_argument(args: argparse.Namespace) -> Optional[ShardSpec]:
    text = getattr(args, "shard", None)
    if text is None:
        return None
    try:
        return parse_shard(text)
    except ValueError as error:
        raise SystemExit(f"--shard: {error}")


def _add_cache_backend_argument(target) -> None:
    target.add_argument(
        "--cache-backend", default="json", choices=available_cache_backends(),
        help="cache layout under --cache-dir: 'json' (one file per entry) "
             "or 'sqlite' (concurrent-safe service store); same keys either "
             "way (default: json)",
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
    _add_shard_arguments(sweep)
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
        "run", help="run experiment specs from a --spec JSON file"
    )
    _add_plugin_argument(run)
    run.add_argument(
        "--spec", required=True, metavar="FILE",
        help="JSON file with one ExperimentSpec document or a list of them",
    )
    _add_backend_argument(run)
    _add_engine_arguments(run)
    _add_shard_arguments(run)

    scenario = subparsers.add_parser(
        "scenario",
        help="run event-driven dynamic scenarios from a --spec JSON file",
    )
    _add_plugin_argument(scenario)
    scenario.add_argument(
        "--spec", required=True, metavar="FILE",
        help="JSON file with one ExperimentSpec document (or a list); each "
             "should carry a 'scenario' event timeline",
    )
    _add_backend_argument(scenario)
    _add_engine_arguments(scenario)
    _add_shard_arguments(scenario)

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
        "--workers", type=int, default=1,
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
        help="directory for the disk-backed design cache",
    )
    _add_cache_backend_argument(optimize)
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
        "--workers", type=int, default=2,
        help="worker threads draining the job queue (default: 2)",
    )
    serve.add_argument(
        "--cache-dir", required=True,
        help=f"service state directory (holds {DEFAULT_DB_FILENAME})",
    )
    serve.add_argument(
        "--db", default=None, metavar="FILE",
        help=f"explicit SQLite path (default: CACHE_DIR/{DEFAULT_DB_FILENAME})",
    )
    serve.add_argument(
        "--max-attempts", type=int, default=None, metavar="N",
        help="times a task may be claimed before it is marked failed "
             "(default: 3)",
    )
    serve.add_argument(
        "--shard", default=None, metavar="K/N",
        help="this daemon's worker pool only claims tasks shard K of N "
             "owns (N daemons split every job deterministically)",
    )
    serve.add_argument(
        "--verbose", action="store_true",
        help="DEBUG-level service logging on stderr (structured access-log "
             "events show at the default INFO level already)",
    )
    _add_trace_argument(serve)

    merge = subparsers.add_parser(
        "merge",
        help="fold sharded caches / --json documents into one result set",
    )
    merge.add_argument(
        "inputs", nargs="+", metavar="INPUT",
        help="shard outputs to fold: cache directories (JSON or SQLite), "
             "*.sqlite3 store files, or --json output documents",
    )
    merge.add_argument(
        "--into", required=True, metavar="DIR",
        help="destination cache directory (created if missing; may already "
             "hold rows, e.g. merging shards incrementally)",
    )
    _add_cache_backend_argument(merge)
    merge.add_argument(
        "--json", action="store_true", dest="json_output",
        help="print the merge report (and streaming aggregate) as JSON",
    )

    cache = subparsers.add_parser(
        "cache", help="cache maintenance (migration, stats)"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    migrate = cache_sub.add_parser(
        "migrate",
        help="copy a warm JSON cache directory into the SQLite store "
             "under unchanged keys",
    )
    migrate.add_argument(
        "--cache-dir", required=True,
        help="JSON cache directory (result-*.json / design-*.json)",
    )
    migrate.add_argument(
        "--db", default=None, metavar="FILE",
        help=f"SQLite store to fill (default: CACHE_DIR/{DEFAULT_DB_FILENAME})",
    )
    stats = cache_sub.add_parser(
        "stats",
        help="entry counts and bytes of a cache directory (either backend)",
    )
    stats.add_argument(
        "--cache-dir", required=True,
        help="cache directory to inspect",
    )
    _add_cache_backend_argument(stats)
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

    probe = subparsers.add_parser(
        "probe",
        help="run specs with a kernel probe and dump the sampled series",
    )
    _add_plugin_argument(probe)
    probe.add_argument(
        "--spec", required=True, metavar="FILE",
        help="JSON file with one ExperimentSpec document or a list of them",
    )
    _add_backend_argument(probe)
    probe.add_argument(
        "--interval", type=int, default=100, metavar="N",
        help="sample every N cycles (default: 100)",
    )
    probe.add_argument(
        "--channels", default=None, metavar="C1,C2",
        help=f"channel selection (default: all of {','.join(PROBE_CHANNELS)})",
    )
    probe.add_argument(
        "--max-samples", type=int, default=4096, metavar="M",
        help="bound on samples kept per run (default: 4096)",
    )
    probe.add_argument(
        "--out", default=None, metavar="FILE",
        help="write JSONL rows here (default: stdout)",
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


def _make_batch(
    args: argparse.Namespace, specs: List[ExperimentSpec]
) -> ExperimentBatch:
    result_cache, design_cache = open_caches(
        args.cache_dir, getattr(args, "cache_backend", "json")
    )
    return ExperimentBatch(
        specs,
        workers=args.workers,
        result_cache=result_cache,
        design_cache=design_cache,
        base_seed=args.seed,
        # Re-imported inside worker processes, so --plugin components exist
        # by name under any multiprocessing start method (not just fork).
        plugins=tuple(getattr(args, "plugin", [])),
        shard=_parse_shard_argument(args),
        chunk_size=getattr(args, "chunk_size", None),
        manifest_dir=args.cache_dir,
        probe=_parse_probe_argument(args),
    )


def _report_engine(batch: ExperimentBatch) -> None:
    print(
        f"[repro.exec] {batch.last_executed} simulated, "
        f"{batch.last_cached} served from cache "
        f"({batch.workers} worker{'s' if batch.workers != 1 else ''})"
    )
    shard = getattr(batch, "shard", None)
    if shard is not None:
        print(
            f"[repro.exec] shard {shard}: {batch.last_skipped} spec(s) "
            "owned by other shards skipped"
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
    # Shard/chunk keys appear only when the features are in play,
    # keeping plain documents (and everything pinned on them) unchanged.
    shard = getattr(batch, "shard", None)
    if shard is not None:
        document["shard"] = str(shard)
        document["skipped"] = batch.last_skipped
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
    batch = _make_batch(args, specs)
    outcomes = batch.run()

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
                    # A sharded slice may leave a curve empty; None rather
                    # than a crash (merge the shards for the real number).
                    "saturation_rate": (
                        saturation_rate(curves[policy])
                        if curves[policy].points else None
                    ),
                }
                for policy in policies
            ],
            # Same per-spec rows as `run --json`, so sharded sweep documents
            # feed `repro merge` directly.
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
        if not curve.points:
            print(f"{policy:15s} (no points in this shard)")
            continue
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
    batch = _make_batch(args, specs)
    outcomes = batch.run()

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
    batch = _make_batch(args, specs)
    outcomes = batch.run()
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
    return 0


def _run_scenario(args: argparse.Namespace) -> int:
    specs = _load_spec_documents(args.spec)
    without = sum(1 for spec in specs if spec.scenario is None)
    if without:
        print(
            f"[repro.exec] warning: {without} spec(s) carry no scenario "
            "timeline; they run as plain static experiments",
            file=sys.stderr,
        )
    if args.backend:
        specs = [spec.with_(backend=args.backend) for spec in specs]
    batch = _make_batch(args, specs)
    outcomes = batch.run()
    if args.json_output:
        document = {
            "command": "scenario",
            "engine": _engine_document(batch),
            "outcomes": [_outcome_document(outcome) for outcome in outcomes],
        }
        if batch.probe is not None:
            document["probes"] = _probe_document(batch)
        _print_json(document)
        return 0
    _report_engine(batch)
    for outcome in outcomes:
        spec = outcome.spec
        events = len(spec.scenario.events) if spec.scenario is not None else 0
        print(
            f"{spec.placement.name} policy={spec.policy.name} "
            f"traffic={spec.traffic.pattern} rate={spec.traffic.injection_rate:g} "
            f"events={events} avg_latency={outcome.summary['average_latency']:.2f} "
            f"delivery={outcome.summary['delivery_ratio'] * 100:.1f}%"
        )
        for phase in outcome.summary.get("phases", []):
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
    return 0


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

    _, design_cache = open_caches(
        args.cache_dir, getattr(args, "cache_backend", "json")
    )
    if len(specs) == 1 and args.workers == 1 and args.seed is None:
        return _run_optimize_single(args, specs[0], design_cache)
    return _run_optimize_grid(args, specs, design_cache)


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

    design = design_for(spec, cache=cache, on_iteration=on_iteration)

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
    db_path = args.db or os.path.join(args.cache_dir, DEFAULT_DB_FILENAME)
    store = SqliteStore(db_path)
    return service_http.serve(
        store,
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_attempts=args.max_attempts,
        plugins=tuple(getattr(args, "plugin", [])),
        shard=_parse_shard_argument(args),
        verbose=getattr(args, "verbose", False),
    )


def _run_merge(args: argparse.Namespace) -> int:
    aggregator = StreamingAggregator()

    def on_progress(source: str, rows: int) -> None:
        print(f"[repro.merge] {source}: {rows} row(s) read", file=sys.stderr)

    try:
        report = merge_results(
            args.inputs,
            args.into,
            backend=getattr(args, "cache_backend", "json"),
            aggregator=aggregator,
            on_progress=None if args.json_output else on_progress,
        )
    except MergeConflict as error:
        # Two shards produced different rows for one key: the bit-identity
        # invariant is broken, so refuse to write a merged set at all.
        raise SystemExit(f"merge conflict: {error}")
    except ValueError as error:
        raise SystemExit(str(error))
    if args.json_output:
        _print_json({
            "command": "merge",
            "into": args.into,
            "report": report.to_summary(),
            "aggregate": aggregator.summary(),
        })
        return 0
    print(
        f"[repro.merge] {report.results} result(s) and {report.designs} "
        f"design(s) merged into {args.into} from {len(report.sources)} "
        f"source(s) ({report.result_duplicates} duplicate row(s))"
    )
    front = aggregator.summary()["pareto"]
    print(
        f"[repro.merge] streaming aggregate: {aggregator.rows} row(s), "
        f"pareto front size {front['size']}"
    )
    return 0


def _run_cache_stats(args: argparse.Namespace) -> int:
    try:
        stats = cache_stats(args.cache_dir, getattr(args, "cache_backend", "json"))
    except ValueError as error:
        raise SystemExit(str(error))
    if args.json_output:
        _print_json({"command": "cache-stats", **stats})
        return 0
    print(
        f"[repro.cache] {stats['cache_dir']} ({stats['backend']}): "
        f"{stats['results']} result(s), {stats['designs']} design(s), "
        f"{stats['bytes']} byte(s)"
        + (
            f", {stats['manifests']} manifest(s)"
            if "manifests" in stats else ""
        )
    )
    return 0


def _run_cache_migrate(args: argparse.Namespace) -> int:
    if not os.path.isdir(args.cache_dir):
        raise SystemExit(f"--cache-dir {args.cache_dir!r} is not a directory")
    db_path = args.db or os.path.join(args.cache_dir, DEFAULT_DB_FILENAME)
    store = SqliteStore(db_path)
    try:
        counts = migrate_json_cache(args.cache_dir, store)
    finally:
        store.close()
    print(
        f"[repro.cache] migrated {counts['results']} result(s) and "
        f"{counts['designs']} design(s) into {db_path} "
        f"({counts['skipped']} skipped)"
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


def _run_probe(args: argparse.Namespace) -> int:
    specs = _load_spec_documents(args.spec)
    if args.backend:
        specs = [spec.with_(backend=args.backend) for spec in specs]
    try:
        channels = (
            ProbeSpec.parse_channels(args.channels)
            if args.channels else PROBE_CHANNELS
        )
        probe = ProbeSpec(
            interval=args.interval,
            channels=channels,
            max_samples=args.max_samples,
        )
    except ValueError as error:
        raise SystemExit(str(error))
    lines: List[str] = []
    for index, spec in enumerate(specs):
        with span("probe.run", spec=index):
            result = run_experiment(spec, probe=probe)
        series = result.probe
        if series is None:  # pragma: no cover - every backend fills it
            raise SystemExit(
                f"backend {spec.sim.backend!r} returned no probe series"
            )
        for row in series.rows():
            document = {"spec": index, **row} if len(specs) > 1 else row
            lines.append(json.dumps(document, sort_keys=True))
        print(
            f"[repro.probe] spec {index}: {len(series.cycles)} sample(s) "
            f"every {probe.interval} cycle(s), {series.dropped} dropped",
            file=sys.stderr,
        )
    if args.out:
        with open(args.out, "w") as handle:
            handle.write("\n".join(lines) + ("\n" if lines else ""))
        print(
            f"[repro.probe] {len(lines)} row(s) -> {args.out}",
            file=sys.stderr,
        )
    else:
        for line in lines:
            print(line)
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
        ("scenario events", SCENARIO_EVENT_REGISTRY),
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
    if args.command == "scenario":
        return _run_scenario(args)
    if args.command == "optimize":
        return _run_optimize(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "merge":
        return _run_merge(args)
    if args.command == "cache":
        if args.cache_command == "migrate":
            return _run_cache_migrate(args)
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
    if args.command == "probe":
        return _run_probe(args)
    if args.command == "list":
        return _run_list(args)
    raise SystemExit(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
