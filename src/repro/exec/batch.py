"""Parallel experiment batches with deterministic seeding and caching.

:class:`ExperimentBatch` is the execution backbone of the repository: it
takes a list of :class:`~repro.spec.ExperimentSpec`, fans the uncached
ones out over a :class:`concurrent.futures.ProcessPoolExecutor` (or runs
them inline when ``workers=1``) and returns one :class:`ExperimentOutcome`
per input spec, in input order.

Determinism guarantee
    Every task runs the exact same code path regardless of worker count:
    resolve placement, build a fresh network, build the packet source from
    the spec's seed, simulate.  All randomness flows from the spec (its
    ``seed`` field, or a seed derived from the canonical spec hash when a
    batch-level ``base_seed`` is given), so a batch produces *bit-identical*
    ``SimulationResult.summary()`` rows whether it runs serially, with N
    workers, or from a warm cache directory.

Caching
    Outcomes are stored in a result cache keyed by the canonical config
    hash -- in memory by default, or in a cache directory's SQLite store
    (:func:`~repro.exec.cache.open_caches`); warm entries skip simulation
    entirely (``from_cache=True``).  AdEle's expensive offline stage is
    resolved *once in the parent process* per unique design key -- through
    :func:`~repro.analysis.runner.design_for` and the injectable design
    cache -- and shipped to workers as plain per-router subsets, so worker
    processes never re-run AMOSA.

Warm-worker memoization
    Workers keep small per-process LRUs of expensive setup objects:
    constructed :class:`~repro.sim.network.Network`\\ s (reused across
    seeds/rates via ``network.reset()`` -- checkout semantics, so
    concurrent threads never share one) and
    :class:`~repro.routing.base.RouteComputation` tables (shared freely;
    they are immutable and depend only on the mesh shape).  Per-task
    setup/kernel timings and memo hit/miss counts are reported back to the
    batch (``last_setup_s`` / ``last_kernel_s`` / ``last_memo_hits`` /
    ``last_memo_misses``) and surface in every CLI ``--json`` engine
    block.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.runner import (
    DesignCache,
    build_adele_policy,
    build_network,
    design_for,
    experiment_design_spec,
    run_experiment,
)
# Unused here; ``benchmarks/e2e/e2e_layers.py`` wraps it under this module.
from repro.analysis.runner import build_packet_source  # noqa: F401
from repro.energy.model import EnergyModel
from repro.exec.cache import (
    ResultCache,
    _write_json_atomic,
    canonical_config,
    config_key,
    derive_seed,
)
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, MetricsRegistry
from repro.obs.probes import ProbeSpec
from repro.obs.tracing import span
from repro.routing.base import RouteComputation
from repro.spec import ExperimentSpec, as_spec


#: Environment variable: abort a chunked run after this many completed
#: chunk flushes when work remains.  Deterministic kill injection -- the
#: resume tests and the CI resume-smoke job use it to kill a sweep mid-grid
#: at a reproducible point and then prove the rerun picks up exactly where
#: the checkpointed cache left off.
ABORT_AFTER_CHUNKS_ENV = "REPRO_EXEC_ABORT_AFTER_CHUNKS"


class ChunkAbort(RuntimeError):
    """Raised by a chunked run when the abort-injection env var fires."""


def key_extra_for(energy_model: Optional[EnergyModel] = None) -> Dict[str, Any]:
    """The non-spec cache-key inputs of a batch run.

    A custom energy model changes the energy columns of every summary row,
    so its parameters are mixed into the key -- rows cached under one model
    are never served for a different one.  The *effective* model is hashed
    (``None`` means the simulator's default), so passing the default
    explicitly and passing ``None`` share cache entries.  The experiment
    service computes submit-time task keys with this same helper, so a job
    task and a direct batch run of the same spec share one cache row.
    """
    effective = energy_model if energy_model is not None else EnergyModel()
    return {"energy_model": dataclasses.asdict(effective)}


@dataclass(frozen=True)
class _Task:
    """One unit of work shipped to a worker (picklable, design pre-resolved).

    ``plugins`` are module names imported in the worker before the spec is
    resolved, so components registered at import time (``--plugin`` modules)
    exist by name even under the ``spawn``/``forkserver`` multiprocessing
    start methods, where workers do not inherit the parent's registries.
    """

    spec: ExperimentSpec
    key: str
    subsets: Optional[Dict[int, Tuple[int, ...]]] = None
    energy_model: Optional[EnergyModel] = None
    plugins: Tuple[str, ...] = ()
    probe: Optional[ProbeSpec] = None


# ---------------------------------------------------------------------- #
# Warm-worker setup memoization (per-process LRUs)
# ---------------------------------------------------------------------- #
#: LRU capacities.  Networks hold per-router buffers (the dominant setup
#: cost); route tables are one immutable object per mesh shape.
_NETWORK_MEMO_CAPACITY = 16
_ROUTES_MEMO_CAPACITY = 8

_memo_lock = threading.Lock()
_memo_networks: "OrderedDict[str, Any]" = OrderedDict()
_memo_routes: "OrderedDict[Tuple[int, int, int], RouteComputation]" = OrderedDict()


def clear_setup_memo() -> None:
    """Drop all memoized setup objects (tests and long-lived daemons)."""
    with _memo_lock:
        _memo_networks.clear()
        _memo_routes.clear()


def _network_memo_key(
    spec: ExperimentSpec, subsets: Optional[Dict[int, Tuple[int, ...]]]
) -> str:
    """Content key of everything that flows into network construction.

    Traffic, cycles and scenario are excluded -- they do not shape the
    network -- so specs differing only in seed/rate/cycles share one
    entry.  The seed *is* included for design-backed policies (AdEle
    variants take it as a constructor argument); registered policies built
    via ``make_policy`` receive only their options, which are in the
    policy block.
    """
    payload = canonical_config(spec)
    fields: Dict[str, Any] = {
        "placement": payload.get("placement"),
        "policy": payload.get("policy"),
        "design": payload.get("design"),
        "buffer_depth": payload.get("sim", {}).get("buffer_depth"),
    }
    if subsets is not None:
        fields["subsets"] = {
            str(node): list(subset) for node, subset in sorted(subsets.items())
        }
    if spec.policy.needs_design:
        fields["seed"] = spec.sim.seed
    blob = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _memo_route_tables(mesh) -> Tuple[RouteComputation, bool]:
    """Route tables for a mesh shape, shared via the per-process LRU.

    The tables are immutable and a pure function of the mesh shape, so --
    unlike networks -- one object is handed to any number of concurrent
    users.  Returns ``(tables, was_hit)``.
    """
    key = mesh.shape
    with _memo_lock:
        routes = _memo_routes.get(key)
        if routes is not None:
            _memo_routes.move_to_end(key)
            return routes, True
    routes = RouteComputation(mesh)
    with _memo_lock:
        _memo_routes[key] = routes
        while len(_memo_routes) > _ROUTES_MEMO_CAPACITY:
            _memo_routes.popitem(last=False)
    return routes, False


def _memo_acquire_network(key: str):
    """Check a memoized network *out* of the LRU (or ``None`` on miss).

    Checkout semantics make the memo thread-safe under the service worker
    pool (threads in one process): an entry in use is not in the dict, so
    two concurrent tasks with the same key never share a network -- the
    second simply builds fresh.
    """
    with _memo_lock:
        return _memo_networks.pop(key, None)


def _memo_release_network(key: str, network) -> None:
    """Return a network to the LRU after its run completed."""
    with _memo_lock:
        _memo_networks[key] = network
        _memo_networks.move_to_end(key)
        while len(_memo_networks) > _NETWORK_MEMO_CAPACITY:
            _memo_networks.popitem(last=False)


@dataclass
class ExperimentOutcome:
    """Result of one batched experiment.

    Attributes:
        spec: The effective typed spec (seed already derived).
        key: Canonical config hash (the cache key).
        summary: ``SimulationResult.summary()`` row of the run.
        from_cache: ``True`` when the row came from the result cache and no
            simulation was performed for this configuration.
    """

    spec: ExperimentSpec
    key: str
    summary: Dict[str, float]
    from_cache: bool


def _build_task_network(task: _Task) -> Tuple[Any, bool]:
    """Construct a task's network fresh (sharing memoized route tables).

    Returns ``(network, route_tables_were_memo_hit)``.
    """
    spec = task.spec
    placement = spec.placement.resolve()
    routes, routes_hit = _memo_route_tables(placement.mesh)
    if task.subsets is not None:
        policy = build_adele_policy(spec, placement, task.subsets)
        network = build_network(
            spec, placement=placement, policy=policy, route_computation=routes
        )
    else:
        network = build_network(
            spec, placement=placement, route_computation=routes
        )
    return network, routes_hit


def _execute_task_timed(
    task: _Task,
) -> Tuple[str, Dict[str, float], Dict[str, Any]]:
    """Run one experiment, reporting setup/kernel timings and memo traffic.

    The returned ``meta`` dictionary carries ``setup_s`` (placement /
    policy / network construction, memo traffic included), ``kernel_s``
    (the simulation itself) and the task's ``memo_hits`` /
    ``memo_misses``.  A probed run additionally carries its
    :class:`~repro.obs.probes.ProbeSeries` under ``"probe"`` -- meta rides
    *next to* the summary, so probing never touches cached bytes.
    """
    for module in task.plugins:
        importlib.import_module(module)
    spec = task.spec
    hits = 0
    misses = 0
    setup_start = time.perf_counter()
    with span("setup.network", key=task.key[:12]):
        memo_key = _network_memo_key(spec, task.subsets)
        network = _memo_acquire_network(memo_key)
        if network is not None:
            hits += 1
        else:
            misses += 1
            network, routes_hit = _build_task_network(task)
            if routes_hit:
                hits += 1
            else:
                misses += 1
    setup_s = time.perf_counter() - setup_start
    kernel_start = time.perf_counter()
    try:
        with span("kernel.run", backend=spec.sim.backend, key=task.key[:12]):
            result = run_experiment(
                spec,
                energy_model=task.energy_model,
                network=network,
                probe=task.probe,
            )
    finally:
        # Return the network even after a failed run: reset() restores it.
        _memo_release_network(memo_key, network)
    kernel_s = time.perf_counter() - kernel_start
    meta: Dict[str, Any] = {
        "setup_s": setup_s,
        "kernel_s": kernel_s,
        "memo_hits": hits,
        "memo_misses": misses,
    }
    if result.probe is not None:
        meta["probe"] = result.probe
    return task.key, result.summary(), meta


class ExperimentBatch:
    """Run a list of experiments, in parallel and cached.

    Args:
        specs: Experiments to run (any iterable of :class:`ExperimentSpec`;
            order is preserved in the returned outcomes).
        workers: Process count.  ``1`` (the default) runs every task inline
            with no subprocess involved -- the serial fallback.
        result_cache: Summary-row cache consulted before and populated after
            execution; defaults to a fresh memory-only cache (which still
            deduplicates identical specs within the batch).
        design_cache: AdEle offline-design cache used while preparing tasks;
            defaults to the process-wide cache of :mod:`repro.analysis.runner`.
        base_seed: When given, each spec's seed is replaced by
            :func:`~repro.exec.cache.derive_seed` (canonical-hash seeding);
            when ``None``, specs keep their own seeds.
        energy_model: Optional energy model forwarded to every simulation.
        plugins: Module names imported inside each worker process before
            resolving specs, so registry components registered at import
            time stay available under the ``spawn``/``forkserver`` start
            methods.  (Components registered by modules already imported in
            the parent are inherited automatically under ``fork``.)
        chunk_size: When given, execute pending tasks in chunks of this many
            and flush each chunk's rows to the result cache (plus a resume
            manifest) as it completes, so a killed sweep loses at most
            one chunk instead of everything.  ``None`` keeps the historical
            single-flush behaviour.  Chunking never changes results -- only
            when they reach the cache.
        manifest_dir: Where to write the ``manifest-<grid>.json`` checkpoint
            during chunked runs (usually the cache directory; ``None``
            writes no manifest).  The *cache* is the resume source of
            truth -- rerunning the same grid skips every flushed row; the
            manifest is the inspectable progress record.
        replica_batch: Accepted and validated because the benchmark of
            record still passes it; it has no effect.
        probe: Optional :class:`~repro.obs.probes.ProbeSpec` attached to
            every *executed* task (cache hits skip simulation, so they
            yield no series).  A run argument, never a spec field: it does
            not enter cache keys, derived seeds or summary rows, and the
            sampled series land in :attr:`last_probes` keyed by config
            key.  See :mod:`repro.obs` for the never-perturbs invariant.
        metrics: Optional :class:`~repro.obs.metrics.MetricsRegistry` the
            batch records into (task/chunk counters, setup/kernel latency
            histograms, memo traffic).  Defaults to a private registry;
            pass a shared one to aggregate across batches (the experiment
            service does, feeding ``GET /metrics``).  The per-run
            ``last_*`` attributes remain the per-``run()`` view; the
            registry is the cumulative one.
    """

    def __init__(
        self,
        specs: Iterable[ExperimentSpec],
        workers: int = 1,
        result_cache: Optional[ResultCache] = None,
        design_cache: Optional[DesignCache] = None,
        base_seed: Optional[int] = None,
        energy_model: Optional[EnergyModel] = None,
        plugins: Sequence[str] = (),
        chunk_size: Optional[int] = None,
        manifest_dir: Optional[str] = None,
        replica_batch: Optional[int] = None,
        probe: Optional[ProbeSpec] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.specs: List[ExperimentSpec] = [as_spec(spec) for spec in specs]
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if replica_batch is not None and replica_batch < 1:
            raise ValueError("replica_batch must be >= 1")
        self.workers = workers
        self.result_cache = result_cache if result_cache is not None else ResultCache()
        self.design_cache = design_cache
        self.base_seed = base_seed
        self.energy_model = energy_model
        self.plugins: Tuple[str, ...] = tuple(plugins)
        self.chunk_size = chunk_size
        self.manifest_dir = manifest_dir
        self.probe = probe
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Probe series sampled by the last ``run()``, keyed by config key
        #: (empty unless a ``probe`` was attached; cache hits never appear).
        self.last_probes: Dict[str, Any] = {}
        #: Number of simulations actually executed by the last ``run()``.
        self.last_executed = 0
        #: Number of outcomes served from cache by the last ``run()``.
        self.last_cached = 0
        #: Number of chunk flushes performed by the last ``run()``.
        self.last_chunks = 0
        #: Always 0 (no task is grouped); read by the benchmark of record.
        self.last_replica_groups = 0
        #: Seconds the last ``run()`` spent in per-task setup (placement /
        #: policy / network construction, memo traffic included), summed
        #: across tasks.
        self.last_setup_s = 0.0
        #: Seconds the last ``run()`` spent inside simulation kernels,
        #: summed across tasks.
        self.last_kernel_s = 0.0
        #: Warm-worker memo hits / misses observed by the last ``run()``.
        self.last_memo_hits = 0
        self.last_memo_misses = 0

    # ------------------------------------------------------------------ #
    def _key_extra(self) -> Dict[str, Any]:
        """Non-spec inputs the cache key must capture (see :func:`key_extra_for`)."""
        return key_extra_for(self.energy_model)

    def effective_specs(self) -> List[ExperimentSpec]:
        """Specs with batch-level seed derivation applied."""
        if self.base_seed is None:
            return list(self.specs)
        return [
            spec.with_(seed=derive_seed(spec, self.base_seed)) for spec in self.specs
        ]

    def _make_task(self, spec: ExperimentSpec, key: str) -> _Task:
        subsets = None
        if spec.policy.needs_design:
            design = design_for(
                experiment_design_spec(spec),
                spec.placement.resolve(),
                cache=self.design_cache,
            )
            subsets = design.selected_subsets()
        return _Task(
            spec=spec,
            key=key,
            subsets=subsets,
            energy_model=self.energy_model,
            plugins=self.plugins,
            probe=self.probe,
        )

    # ------------------------------------------------------------------ #
    def _scan(self):
        """Classify every spec: cache hit or pending work.

        Returns ``(specs, keys, hits, pending)`` where ``hits`` maps input
        indices to cached summaries and ``pending`` maps keys to tasks
        (insertion order = execution order, unchanged by chunking).
        """
        specs = self.effective_specs()
        extra = self._key_extra()
        keys = [config_key(spec, extra=extra) for spec in specs]
        hits: Dict[int, Dict[str, float]] = {}
        pending: Dict[str, _Task] = {}
        for index, (spec, key) in enumerate(zip(specs, keys)):
            if key in pending:
                continue  # deduplicated: same canonical spec already queued
            cached = self.result_cache.get(key)
            if cached is not None:
                hits[index] = cached
            else:
                pending[key] = self._make_task(spec, key)
        return specs, keys, hits, pending

    def _manifest_path(self, grid_keys: Set[str]) -> Optional[str]:
        """Checkpoint file path for this grid (``None`` = don't write).

        The file name hashes the grid's key set, so reruns and resumes of
        the same grid overwrite one manifest while different grids never
        collide.  Content is a deterministic function of progress -- a
        completed run's manifest has identical bytes whether it ran
        straight through or resumed.
        """
        if self.manifest_dir is None:
            return None
        grid_id = hashlib.sha256(
            "\n".join(sorted(grid_keys)).encode("utf-8")
        ).hexdigest()[:16]
        return os.path.join(self.manifest_dir, f"manifest-{grid_id}.json")

    def _execute_pending(
        self, pending: Dict[str, _Task], grid_keys: Set[str]
    ) -> Dict[str, Dict[str, float]]:
        """Run pending tasks (chunked when configured), flushing as we go.

        Returns the executed summary rows by key.  Every finished row
        reaches the result cache as its chunk completes, and the manifest
        is rewritten after each chunk -- so a kill at any point loses at
        most the in-flight chunk, and a rerun of the same grid resumes from
        the flushed rows.  The abort-injection env var
        (:data:`ABORT_AFTER_CHUNKS_ENV`) raises :class:`ChunkAbort` after N
        chunk flushes while work remains, simulating that kill at a
        deterministic boundary.
        """
        self.last_chunks = 0
        self.last_setup_s = 0.0
        self.last_kernel_s = 0.0
        self.last_memo_hits = 0
        self.last_memo_misses = 0
        self.last_probes = {}
        executed: Dict[str, Dict[str, float]] = {}
        if not pending:
            return executed
        setup_hist = self.metrics.histogram(
            "repro_task_setup_seconds",
            buckets=DEFAULT_LATENCY_BUCKETS,
            help="Per-task setup time (placement/policy/network build).",
        )
        kernel_hist = self.metrics.histogram(
            "repro_task_kernel_seconds",
            buckets=DEFAULT_LATENCY_BUCKETS,
            help="Per-task simulation kernel time.",
        )
        tasks = list(pending.values())
        chunk = self.chunk_size if self.chunk_size is not None else len(tasks)
        manifest_path = (
            self._manifest_path(grid_keys) if self.chunk_size is not None else None
        )
        abort_raw = os.environ.get(ABORT_AFTER_CHUNKS_ENV)
        abort_after = int(abort_raw) if abort_raw else None
        done_offset = len(grid_keys) - len(tasks)
        pool: Optional[ProcessPoolExecutor] = None
        try:
            if self.workers > 1 and len(tasks) > 1:
                pool = ProcessPoolExecutor(
                    max_workers=min(self.workers, len(tasks))
                )
            completed = 0
            for start in range(0, len(tasks), chunk):
                chunk_tasks = tasks[start:start + chunk]
                if pool is not None and len(chunk_tasks) > 1:
                    rows = list(pool.map(_execute_task_timed, chunk_tasks))
                else:
                    rows = [_execute_task_timed(task) for task in chunk_tasks]
                finished = []
                for key, summary, meta in rows:
                    finished.append((key, summary))
                    self.last_setup_s += meta["setup_s"]
                    self.last_kernel_s += meta["kernel_s"]
                    self.last_memo_hits += meta["memo_hits"]
                    self.last_memo_misses += meta["memo_misses"]
                    setup_hist.observe(meta["setup_s"])
                    kernel_hist.observe(meta["kernel_s"])
                    if "probe" in meta:
                        self.last_probes[key] = meta["probe"]
                with span("chunk.flush", rows=len(finished)):
                    for key, summary in finished:
                        self.result_cache.put(
                            key, canonical_config(pending[key].spec), summary
                        )
                        executed[key] = summary
                completed += len(finished)
                self.last_chunks += 1
                if manifest_path is not None:
                    _write_json_atomic(
                        manifest_path,
                        {
                            "chunk_size": chunk,
                            "done": done_offset + completed,
                            "total": len(grid_keys),
                        },
                    )
                if (
                    abort_after is not None
                    and self.last_chunks >= abort_after
                    and completed < len(tasks)
                ):
                    raise ChunkAbort(
                        f"aborting after {self.last_chunks} chunk(s) "
                        f"({completed}/{len(tasks)} pending tasks flushed; "
                        f"{ABORT_AFTER_CHUNKS_ENV}={abort_raw})"
                    )
        finally:
            if pool is not None:
                pool.shutdown()
        return executed

    def _record_run_metrics(self) -> None:
        """Fold the finished run's ``last_*`` view into :attr:`metrics`.

        The registry is the cumulative, mergeable store the observability
        layer scrapes (counters only ever go up); the ``last_*`` attributes
        remain the per-run snapshot the CLI ``--json`` engine block reads.
        One code path feeds both, so the numbers can never disagree.
        """
        metrics = self.metrics
        metrics.counter(
            "repro_tasks_executed_total",
            help="Simulations actually executed by batches.",
        ).inc(self.last_executed)
        metrics.counter(
            "repro_tasks_cached_total",
            help="Batch outcomes served from the result cache.",
        ).inc(self.last_cached)
        metrics.counter(
            "repro_chunks_flushed_total",
            help="Chunk flushes performed by batches.",
        ).inc(self.last_chunks)
        metrics.counter(
            "repro_memo_hits_total",
            help="Warm-worker setup memo hits.",
        ).inc(self.last_memo_hits)
        metrics.counter(
            "repro_memo_misses_total",
            help="Warm-worker setup memo misses.",
        ).inc(self.last_memo_misses)

    def run(self) -> List[ExperimentOutcome]:
        """Execute the batch and return outcomes in input order."""
        specs, keys, hits, pending = self._scan()
        executed = self._execute_pending(pending, set(keys))
        self.last_executed = len(executed)
        self.last_cached = len(specs) - len(executed)
        outcomes: List[ExperimentOutcome] = []
        freshly_reported: set = set()
        for index, (spec, key) in enumerate(zip(specs, keys)):
            if index in hits:
                summary, from_cache = hits[index], True
            elif key in executed and key not in freshly_reported:
                # The one occurrence a simulation actually ran for.
                freshly_reported.add(key)
                summary, from_cache = dict(executed[key]), False
            else:
                # Duplicate of an earlier spec: the first occurrence was
                # served from cache or executed; either way the row is in
                # the cache now and no simulation ran for *this* outcome.
                summary = self.result_cache.get(key)
                assert summary is not None
                from_cache = True
            outcomes.append(
                ExperimentOutcome(
                    spec=spec, key=key, summary=summary, from_cache=from_cache
                )
            )
        self._record_run_metrics()
        return outcomes


def run_batch(
    specs: Iterable[ExperimentSpec],
    workers: int = 1,
    result_cache: Optional[ResultCache] = None,
    design_cache: Optional[DesignCache] = None,
    base_seed: Optional[int] = None,
    energy_model: Optional[EnergyModel] = None,
    plugins: Sequence[str] = (),
    chunk_size: Optional[int] = None,
    probe: Optional[ProbeSpec] = None,
) -> List[ExperimentOutcome]:
    """Convenience wrapper: build an :class:`ExperimentBatch` and run it."""
    batch = ExperimentBatch(
        specs,
        workers=workers,
        result_cache=result_cache,
        design_cache=design_cache,
        base_seed=base_seed,
        energy_model=energy_model,
        plugins=plugins,
        chunk_size=chunk_size,
        probe=probe,
    )
    return batch.run()


def summaries_by_policy(
    outcomes: Sequence[ExperimentOutcome],
) -> Dict[str, Dict[str, float]]:
    """Index outcomes by policy name (for comparison tables).

    Raises:
        ValueError: If two outcomes share a policy name (ambiguous table).
    """
    table: Dict[str, Dict[str, float]] = {}
    for outcome in outcomes:
        policy = outcome.spec.policy.name
        if policy in table:
            raise ValueError(f"duplicate policy {policy!r} in outcome list")
        table[policy] = outcome.summary
    return table
