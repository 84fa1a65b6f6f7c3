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
    workers, or from a warm disk cache.

Caching
    Outcomes are stored in a :class:`~repro.exec.cache.ResultCache` keyed by
    the canonical config hash; warm entries skip simulation entirely
    (``from_cache=True``).  AdEle's expensive offline stage is resolved
    *once in the parent process* per unique (placement, subset-size) pair --
    through the injectable design cache -- and shipped to workers as plain
    per-router subsets, so worker processes never re-run AMOSA.

Replica batching
    With ``replica_batch=N``, tasks that share a *structural key*
    (:func:`~repro.exec.cache.structural_key`: canonical spec minus seed)
    and run on the flat-array kernel family (``vectorized`` / ``batched``
    backends) are coalesced -- up to N seed-replicas execute through one
    replica-batched kernel pass
    (:func:`repro.sim.backends.batched.run_replica_group`) instead of N
    solo runs.  Grouping changes *only* wall-clock: each replica keeps its
    own ``config_key``, summary row and cache entry, and the grouped cache
    is byte-identical to an ungrouped run of the same grid (pinned by
    tests and the ``BENCH_perf_replicas`` gate).  Groups never span chunk
    boundaries, so ``--shard`` partitioning, checkpoint manifests and
    ``run_streaming`` aggregation behave exactly as before.

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
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.runner import (
    _DEFAULT_ENERGY_MODEL,
    DesignCache,
    adele_design_for,
    build_network,
    build_packet_source,
    design_for_placement,
    resolve_placement,
    run_experiment,
)
from repro.energy.model import EnergyModel
from repro.exec.cache import (
    ResultCache,
    _write_json_atomic,
    canonical_config,
    config_key,
    derive_seed,
    structural_key,
)
from repro.exec.shard import ShardSpec
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, MetricsRegistry
from repro.obs.probes import ProbeSpec
from repro.obs.tracing import span
from repro.registry import UnknownComponentError
from repro.routing.adele import AdElePolicy, AdEleRoundRobinPolicy
from repro.routing.base import RouteComputation
from repro.sim.backends import BACKEND_REGISTRY, FLAT_ARRAY_BACKENDS
from repro.spec import (
    DEFAULT_ADELE_LOW_TRAFFIC_THRESHOLD,
    DEFAULT_ADELE_MAX_SUBSET_SIZE,
    ExperimentSpec,
    as_spec,
)


#: Environment variable: abort a chunked run after this many completed
#: chunk flushes when work remains.  Deterministic kill injection -- the
#: resume tests and the CI shard-smoke job use it to kill a sweep mid-grid
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


@dataclass(frozen=True)
class _TaskGroup:
    """A replica group: tasks sharing one structural key, run in one pass.

    All members simulate the same mesh/placement/policy/traffic/cycles and
    differ only in seed, so they execute through
    :func:`repro.sim.backends.batched.run_replica_group` as one kernel
    invocation while keeping per-task keys, summaries and cache entries.
    """

    tasks: Tuple[_Task, ...]


#: Simulation backends whose specs may be coalesced into replica groups:
#: the flat-array kernel family, the only kernels with a replica axis.
#: Specs naming another kernel run on it solo, so the kernel that ran is
#: always the one the spec asked for.
_GROUPABLE_BACKENDS = FLAT_ARRAY_BACKENDS


def _groupable_spec(spec: ExperimentSpec) -> bool:
    """Whether a spec may join a replica group (kernel-family check)."""
    try:
        canonical = BACKEND_REGISTRY.entry(spec.sim.backend).name
    except UnknownComponentError:
        # Leave the spec a solo task; execution will surface the error
        # with the registry's own message.
        return False
    return canonical in _GROUPABLE_BACKENDS


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


def _policy_from_subsets(
    spec: ExperimentSpec, placement, subsets: Dict[int, Tuple[int, ...]]
):
    """Construct the AdEle online policy from pre-resolved offline subsets.

    Mirrors :func:`repro.analysis.runner.build_policy` exactly (same kwargs,
    same seeding) so batched runs match unbatched ones bit for bit.
    """
    seed = spec.sim.seed
    if spec.policy.name.lower() == "adele":
        threshold = spec.policy.option(
            "low_traffic_threshold", DEFAULT_ADELE_LOW_TRAFFIC_THRESHOLD
        )
        kwargs: Dict[str, Any] = {"subsets": subsets, "seed": seed}
        if threshold is not None:
            kwargs["low_traffic_threshold"] = threshold
        return AdElePolicy(placement, **kwargs)
    return AdEleRoundRobinPolicy(placement, subsets=subsets, seed=seed)


def _build_task_network(task: _Task) -> Tuple[Any, bool]:
    """Construct a task's network fresh (sharing memoized route tables).

    Returns ``(network, route_tables_were_memo_hit)``.
    """
    spec = task.spec
    placement = resolve_placement(spec)
    routes, routes_hit = _memo_route_tables(placement.mesh)
    if task.subsets is not None:
        policy = _policy_from_subsets(spec, placement, task.subsets)
        network = build_network(
            spec, placement=placement, policy=policy, route_computation=routes
        )
    else:
        network = build_network(
            spec, placement=placement, route_computation=routes
        )
    return network, routes_hit


def _execute_task(task: _Task) -> Tuple[str, Dict[str, float]]:
    """Run one experiment end to end (module-level so it pickles)."""
    key, summary, _meta = _execute_task_timed(task)
    return key, summary


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


def _execute_group(
    group: _TaskGroup,
) -> List[Tuple[str, Dict[str, float], Dict[str, Any]]]:
    """Run one replica group through a single batched kernel pass.

    Every member gets its own freshly built network / packet source /
    placement (scenario fault events mutate placements, and replicas run
    interleaved, so nothing may be shared except the immutable route
    tables) -- construction order is group order, matching the solo path's
    per-task construction exactly.  Timings are attributed per task as an
    even split of the group's setup and kernel time.
    """
    from repro.sim.backends.batched import ReplicaRun, run_replica_group

    hits = 0
    misses = 0
    setup_start = time.perf_counter()
    with span("setup.network", replicas=len(group.tasks)):
        replicas = []
        for task in group.tasks:
            for module in task.plugins:
                importlib.import_module(module)
            spec = task.spec
            network, routes_hit = _build_task_network(task)
            if routes_hit:
                hits += 1
            else:
                misses += 1
            source = build_packet_source(spec, network.placement)
            replicas.append(
                ReplicaRun(
                    network=network,
                    packet_source=source,
                    scenario=spec.scenario,
                    scenario_seed=spec.sim.seed,
                    energy_model=(
                        task.energy_model
                        if task.energy_model is not None
                        else _DEFAULT_ENERGY_MODEL
                    ),
                )
            )
    setup_s = time.perf_counter() - setup_start
    sim = group.tasks[0].spec.sim
    kernel_start = time.perf_counter()
    with span("group.run", replicas=len(group.tasks)):
        results = run_replica_group(
            replicas,
            warmup_cycles=sim.warmup_cycles,
            measurement_cycles=sim.measurement_cycles,
            drain_cycles=sim.drain_cycles,
            probe=group.tasks[0].probe,
        )
    kernel_s = time.perf_counter() - kernel_start
    share = len(group.tasks)
    rows = []
    for task, result in zip(group.tasks, results):
        meta: Dict[str, Any] = {
            "setup_s": setup_s / share,
            "kernel_s": kernel_s / share,
            "memo_hits": hits if task is group.tasks[0] else 0,
            "memo_misses": misses if task is group.tasks[0] else 0,
            "replicas": share,
        }
        if result.probe is not None:
            meta["probe"] = result.probe
        rows.append((task.key, result.summary(), meta))
    return rows


def _execute_unit(
    unit: Union[_Task, _TaskGroup],
) -> List[Tuple[str, Dict[str, float], Dict[str, Any]]]:
    """Run one work unit -- a solo task or a replica group (picklable)."""
    if isinstance(unit, _TaskGroup):
        return _execute_group(unit)
    return [_execute_task_timed(unit)]


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
        shard: Optional :class:`~repro.exec.shard.ShardSpec` restricting the
            batch to the specs whose canonical keys it owns; everything else
            is skipped entirely (no cache probe, no outcome).  N batches
            over the same grid with shards ``1/N .. N/N`` partition it
            exactly, and their merged caches are bit-identical to one
            unsharded run -- see :mod:`repro.exec.shard`.
        chunk_size: When given, execute pending tasks in chunks of this many
            and flush each chunk's rows to the result cache (plus a resume
            manifest) as it completes, so a killed mega-sweep loses at most
            one chunk instead of everything.  ``None`` keeps the historical
            single-flush behaviour.  Chunking never changes results -- only
            when they reach the cache.
        manifest_dir: Where to write the ``manifest-<grid>.json`` checkpoint
            during chunked runs; defaults to the result cache's directory
            (no manifest is written for memory-only caches).  The *cache*
            is the resume source of truth -- rerunning the same grid skips
            every flushed row; the manifest is the inspectable progress
            record.
        replica_batch: When >= 2, coalesce pending tasks that share a
            structural key (canonical spec minus seed) and run on the
            flat-array kernel family into replica groups of at most this
            many, each executed as one batched kernel pass (see the module
            docstring).  Results and cache bytes are unchanged; only
            wall-clock is.  ``None``/1 keeps solo execution.
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
        shard: Optional[ShardSpec] = None,
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
        self.shard = shard
        self.chunk_size = chunk_size
        self.manifest_dir = manifest_dir
        self.replica_batch = replica_batch
        self.probe = probe
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Probe series sampled by the last ``run()``, keyed by config key
        #: (empty unless a ``probe`` was attached; cache hits never appear).
        self.last_probes: Dict[str, Any] = {}
        #: Number of simulations actually executed by the last ``run()``.
        self.last_executed = 0
        #: Number of outcomes served from cache by the last ``run()``.
        self.last_cached = 0
        #: Number of specs skipped by the last ``run()`` (owned by another
        #: shard).
        self.last_skipped = 0
        #: Number of chunk flushes performed by the last ``run()``.
        self.last_chunks = 0
        #: Largest number of freshly executed summary rows resident at once
        #: during the last ``run()``'s execution phase -- bounded by the
        #: chunk size, which is what lets :meth:`run_streaming` aggregate a
        #: mega-grid in O(chunk) memory.
        self.last_peak_rows = 0
        #: Number of replica groups coalesced by the last ``run()``.
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
            placement = resolve_placement(spec)
            if spec.design is not None:
                design = design_for_placement(
                    placement, spec.design, cache=self.design_cache
                )
            else:
                design = adele_design_for(
                    placement,
                    max_subset_size=spec.policy.option(
                        "max_subset_size", DEFAULT_ADELE_MAX_SUBSET_SIZE
                    ),
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
        """Classify every spec: cache hit, pending work, or other-shard skip.

        Returns ``(specs, keys, owned_keys, hits, pending)`` where ``hits``
        maps input indices to cached summaries, ``pending`` maps keys to
        tasks (insertion order = execution order, unchanged by chunking),
        and ``owned_keys`` is the ordered unique key set this batch is
        responsible for (the manifest's denominator).  Skipped indices
        appear nowhere; ``last_skipped`` counts them.
        """
        specs = self.effective_specs()
        extra = self._key_extra()
        keys = [config_key(spec, extra=extra) for spec in specs]
        self.last_skipped = 0
        self.last_peak_rows = 0
        owned_keys: List[str] = []
        seen: set = set()
        hits: Dict[int, Dict[str, float]] = {}
        pending: Dict[str, _Task] = {}
        for index, (spec, key) in enumerate(zip(specs, keys)):
            if self.shard is not None and not self.shard.owns(key):
                self.last_skipped += 1
                continue
            if key not in seen:
                seen.add(key)
                owned_keys.append(key)
            if key in pending:
                continue  # deduplicated: same canonical spec already queued
            cached = self.result_cache.get(key)
            if cached is not None:
                hits[index] = cached
            else:
                pending[key] = self._make_task(spec, key)
        return specs, keys, owned_keys, hits, pending

    def _manifest_path(self, owned_keys: Sequence[str]) -> Optional[str]:
        """Checkpoint file path for this grid slice (``None`` = don't write).

        The file name hashes the *owned key set*, so reruns and resumes of
        the same grid/shard overwrite one manifest while different slices
        never collide.  Content is a deterministic function of progress --
        a completed run's manifest has identical bytes whether it ran
        straight through or resumed, which is why byte-identity checks only
        need to exclude ``manifest-*`` for *partial* shards.
        """
        directory = self.manifest_dir
        if directory is None:
            directory = self.result_cache.cache_dir if isinstance(
                self.result_cache, ResultCache
            ) else None
        if directory is None:
            return None
        grid_id = hashlib.sha256(
            "\n".join(sorted(owned_keys)).encode("utf-8")
        ).hexdigest()[:16]
        return os.path.join(directory, f"manifest-{grid_id}.json")

    def _plan_units(
        self, chunk_tasks: Sequence[_Task]
    ) -> List[Union[_Task, _TaskGroup]]:
        """Coalesce a chunk's tasks into work units (replica grouping).

        Tasks sharing a structural key -- and running on the flat-array
        kernel family -- merge into :class:`_TaskGroup` units of at most
        ``replica_batch`` members; everything else stays a solo task.  A
        group is emitted at its first member's position, so unit order
        follows task order and grouping never reorders cache flushes
        across chunks.  With ``replica_batch`` unset (or 1) the chunk
        passes through unchanged.
        """
        limit = self.replica_batch
        if limit is None or limit < 2:
            return list(chunk_tasks)
        extra = self._key_extra()
        buckets: Dict[str, List[_Task]] = {}
        bucket_of: Dict[int, Optional[str]] = {}
        for task in chunk_tasks:
            skey: Optional[str] = None
            if _groupable_spec(task.spec):
                skey = structural_key(task.spec, extra=extra)
                buckets.setdefault(skey, []).append(task)
            bucket_of[id(task)] = skey
        units: List[Union[_Task, _TaskGroup]] = []
        emitted: set = set()
        for task in chunk_tasks:
            skey = bucket_of[id(task)]
            if skey is None or len(buckets[skey]) < 2:
                units.append(task)
                continue
            if skey in emitted:
                continue
            emitted.add(skey)
            members = buckets[skey]
            for start in range(0, len(members), limit):
                sub = members[start:start + limit]
                if len(sub) == 1:
                    units.append(sub[0])
                else:
                    units.append(_TaskGroup(tasks=tuple(sub)))
                    self.last_replica_groups += 1
        return units

    def _execute_pending(
        self,
        pending: Dict[str, _Task],
        owned_keys: Sequence[str],
        on_result: Callable[[str, Dict[str, float]], None],
    ) -> None:
        """Run pending tasks (chunked when configured), flushing as we go.

        Every finished row reaches the result cache *before* ``on_result``
        sees it, and the manifest is rewritten after each chunk -- so a kill
        at any point loses at most the in-flight chunk, and a rerun of the
        same grid resumes from the flushed rows.  The abort-injection env
        var (:data:`ABORT_AFTER_CHUNKS_ENV`) raises :class:`ChunkAbort`
        after N chunk flushes while work remains, simulating that kill at a
        deterministic boundary.

        With ``replica_batch`` set, each chunk's tasks are first planned
        into work units (:meth:`_plan_units`); rows still flush to the
        cache in the chunk's original task order, so grouping changes
        nothing about what a resumed or streamed run observes.
        """
        self.last_chunks = 0
        self.last_replica_groups = 0
        self.last_setup_s = 0.0
        self.last_kernel_s = 0.0
        self.last_memo_hits = 0
        self.last_memo_misses = 0
        self.last_probes = {}
        if not pending:
            return
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
            self._manifest_path(owned_keys) if self.chunk_size is not None else None
        )
        abort_raw = os.environ.get(ABORT_AFTER_CHUNKS_ENV)
        abort_after = int(abort_raw) if abort_raw else None
        done_offset = len(owned_keys) - len(tasks)
        pool: Optional[ProcessPoolExecutor] = None
        try:
            if self.workers > 1 and len(tasks) > 1:
                pool = ProcessPoolExecutor(
                    max_workers=min(self.workers, len(tasks))
                )
            completed = 0
            for start in range(0, len(tasks), chunk):
                chunk_tasks = tasks[start:start + chunk]
                units = self._plan_units(chunk_tasks)
                if pool is not None and len(units) > 1:
                    unit_rows = list(pool.map(_execute_unit, units))
                else:
                    unit_rows = [_execute_unit(unit) for unit in units]
                rows_by_key: Dict[str, Dict[str, float]] = {}
                for rows in unit_rows:
                    for key, summary, meta in rows:
                        rows_by_key[key] = summary
                        self.last_setup_s += meta["setup_s"]
                        self.last_kernel_s += meta["kernel_s"]
                        self.last_memo_hits += meta["memo_hits"]
                        self.last_memo_misses += meta["memo_misses"]
                        setup_hist.observe(meta["setup_s"])
                        kernel_hist.observe(meta["kernel_s"])
                        if "probe" in meta:
                            self.last_probes[key] = meta["probe"]
                # Emit in the chunk's original task order regardless of
                # grouping, so cache flush order -- and therefore stream
                # emission order -- is identical with and without it.
                finished = [
                    (task.key, rows_by_key[task.key]) for task in chunk_tasks
                ]
                self.last_peak_rows = max(self.last_peak_rows, len(finished))
                with span("chunk.flush", rows=len(finished)):
                    for key, summary in finished:
                        self.result_cache.put(
                            key, canonical_config(pending[key].spec), summary
                        )
                        on_result(key, summary)
                completed += len(finished)
                self.last_chunks += 1
                if manifest_path is not None:
                    _write_json_atomic(
                        manifest_path,
                        {
                            "chunk_size": chunk,
                            "done": done_offset + completed,
                            "shard": None if self.shard is None else str(self.shard),
                            "total": len(owned_keys),
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
            "repro_tasks_skipped_total",
            help="Specs skipped because another shard owns them.",
        ).inc(self.last_skipped)
        metrics.counter(
            "repro_chunks_flushed_total",
            help="Chunk flushes performed by batches.",
        ).inc(self.last_chunks)
        metrics.counter(
            "repro_replica_groups_total",
            help="Replica groups coalesced by batches.",
        ).inc(self.last_replica_groups)
        metrics.counter(
            "repro_memo_hits_total",
            help="Warm-worker setup memo hits.",
        ).inc(self.last_memo_hits)
        metrics.counter(
            "repro_memo_misses_total",
            help="Warm-worker setup memo misses.",
        ).inc(self.last_memo_misses)

    def run(self) -> List[ExperimentOutcome]:
        """Execute the batch and return outcomes in input order.

        With a shard configured, outcomes cover only the owned specs (the
        skipped ones are counted in :attr:`last_skipped`); order among the
        survivors is still input order.
        """
        specs, keys, owned_keys, hits, pending = self._scan()
        outcomes: List[Optional[ExperimentOutcome]] = [None] * len(specs)
        for index, summary in hits.items():
            outcomes[index] = ExperimentOutcome(
                spec=specs[index], key=keys[index], summary=summary, from_cache=True
            )

        executed: Dict[str, Dict[str, float]] = {}

        def _collect(key: str, summary: Dict[str, float]) -> None:
            executed[key] = summary

        self._execute_pending(pending, owned_keys, _collect)

        self.last_executed = len(executed)
        self.last_cached = 0
        freshly_reported: set = set()
        for index, (spec, key) in enumerate(zip(specs, keys)):
            if self.shard is not None and not self.shard.owns(key):
                continue
            if outcomes[index] is not None:
                self.last_cached += 1
                continue
            if key in executed and key not in freshly_reported:
                # The one occurrence a simulation actually ran for.
                freshly_reported.add(key)
                outcomes[index] = ExperimentOutcome(
                    spec=spec,
                    key=key,
                    summary=dict(executed[key]),
                    from_cache=False,
                )
            else:
                # Duplicate of an earlier spec: the first occurrence was
                # served from cache or executed; either way the row is in
                # the cache now and no simulation ran for *this* outcome.
                summary = self.result_cache.get(key)
                assert summary is not None
                outcomes[index] = ExperimentOutcome(
                    spec=spec, key=key, summary=summary, from_cache=True
                )
                self.last_cached += 1
        self._record_run_metrics()
        return [outcome for outcome in outcomes if outcome is not None]

    def run_streaming(
        self, consumer: Callable[[ExperimentOutcome], None]
    ) -> int:
        """Execute the batch, handing each outcome to ``consumer`` as it
        lands instead of materializing the result list.

        Cache hits are emitted during the initial scan; fresh rows are
        emitted chunk by chunk as they flush (duplicates of a fresh key
        follow it immediately, marked ``from_cache=True`` like :meth:`run`
        marks them).  Emission order is completion order, not input order --
        a consumer that needs input order should use :meth:`run` instead.
        Peak resident fresh rows are bounded by the chunk size
        (:attr:`last_peak_rows`), which is what makes
        :class:`~repro.exec.aggregate.StreamingAggregator` over a mega-grid
        O(chunk) instead of O(grid).

        Returns:
            Number of outcomes emitted.
        """
        specs, keys, owned_keys, hits, pending = self._scan()
        followers: Dict[str, List[ExperimentSpec]] = {key: [] for key in pending}
        emitted = 0
        cached_served = 0
        for index, (spec, key) in enumerate(zip(specs, keys)):
            if self.shard is not None and not self.shard.owns(key):
                continue
            if index in hits:
                cached_served += 1
                emitted += 1
                consumer(
                    ExperimentOutcome(
                        spec=spec, key=key, summary=hits[index], from_cache=True
                    )
                )
            elif key in followers:
                followers[key].append(spec)
        executed_count = 0
        # The first follower of each pending key is the spec the simulation
        # actually runs for; the rest are deduplicated repeats.
        def _emit(key: str, summary: Dict[str, float]) -> None:
            nonlocal emitted, executed_count, cached_served
            for position, spec in enumerate(followers[key]):
                fresh = position == 0
                if fresh:
                    executed_count += 1
                else:
                    cached_served += 1
                emitted += 1
                consumer(
                    ExperimentOutcome(
                        spec=spec,
                        key=key,
                        summary=dict(summary),
                        from_cache=not fresh,
                    )
                )

        self._execute_pending(pending, owned_keys, _emit)
        self.last_executed = executed_count
        self.last_cached = cached_served
        self._record_run_metrics()
        return emitted


def run_batch(
    specs: Iterable[ExperimentSpec],
    workers: int = 1,
    result_cache: Optional[ResultCache] = None,
    design_cache: Optional[DesignCache] = None,
    base_seed: Optional[int] = None,
    energy_model: Optional[EnergyModel] = None,
    plugins: Sequence[str] = (),
    shard: Optional[ShardSpec] = None,
    chunk_size: Optional[int] = None,
    replica_batch: Optional[int] = None,
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
        shard=shard,
        chunk_size=chunk_size,
        replica_batch=replica_batch,
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
