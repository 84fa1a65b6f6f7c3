"""The public, typed experiment API.

``repro.api`` is the one import a user (or a downstream package) needs:

* **Typed specs** -- :class:`~repro.spec.ExperimentSpec` and its pieces
  (:class:`~repro.spec.PlacementSpec`, :class:`~repro.spec.PolicySpec`,
  :class:`~repro.spec.TrafficSpec`, :class:`~repro.spec.SimSpec`), each
  validated on construction and round-tripping losslessly through
  ``to_dict()`` / ``from_dict()``.  The dictionary form is the canonical
  serialization shared by cache keys, derived seeds and ``--spec`` files.
* **Registries** -- register a policy, traffic pattern, application model,
  placement or simulation backend once (usually with a decorator) and it is
  usable *by name* in specs, batches, benches and the ``python -m repro``
  CLI.
* **Execution** -- :func:`run` for a single spec,
  :func:`run_specs` / :class:`~repro.exec.batch.ExperimentBatch` for
  parallel, deterministically seeded, cached grids, and
  :func:`run_designs` / :class:`~repro.exec.designs.DesignBatch` for
  offline design grids.
* **Service** -- :func:`connect` / :func:`submit` / :func:`wait` /
  :func:`results` talk to a ``python -m repro serve`` daemon
  (:mod:`repro.service`): a durable SQLite-backed job queue whose workers
  produce results bit-identical to direct :func:`run_specs` calls.
* **Observability** -- :mod:`repro.obs` re-exports: install a
  :class:`~repro.obs.tracing.Tracer` to record spans over the hot
  boundaries, read a :class:`~repro.obs.metrics.MetricsRegistry` of
  engine counters (the ``GET /metrics`` source), and attach a
  :class:`~repro.obs.probes.ProbeSpec` to :func:`run` / :func:`run_specs`
  to sample per-cycle congestion gauges.  None of it perturbs results:
  probes and tracers are run arguments, never spec fields, and
  instrumented runs are bit-identical to uninstrumented ones.

Quickstart::

    from repro import api

    spec = api.ExperimentSpec().with_(placement="PS1", policy="adele",
                                      injection_rate=0.004)
    result = api.run(spec)
    print(result.average_latency)

Registering a custom policy (see ``examples/custom_policy.py``)::

    from repro.api import ExperimentSpec, register_policy, run_specs
    from repro.routing.base import ElevatorSelectionPolicy

    @register_policy("my_policy", description="...")
    class MyPolicy(ElevatorSelectionPolicy):
        ...

    outcomes = run_specs([ExperimentSpec().with_(policy="my_policy")])
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Union

from repro.analysis.runner import (
    DesignCache,
    design_for,
    design_key_for,
    run_experiment,
)
from repro.core.optimizers import (
    OPTIMIZER_REGISTRY,
    SubsetOptimizer,
    available_optimizers,
    make_optimizer,
    register_optimizer,
)
from repro.core.pipeline import AdEleDesign
from repro.energy.model import EnergyModel
from repro.exec.batch import (
    ChunkAbort,
    ExperimentBatch,
    ExperimentOutcome,
    key_extra_for,
)
from repro.exec.cache import (
    ResultCache,
    cache_stats,
    canonical_config,
    close_caches,
    config_key,
    derive_seed,
    open_caches,
    spec_from_canonical,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.probes import PROBE_CHANNELS, ProbeSeries, ProbeSpec
from repro.obs.tracing import (
    JsonlRecorder,
    RingRecorder,
    SpanRecord,
    Tracer,
    chrome_trace_document,
    current_tracer,
    install_tracer,
    load_span_records,
    span,
    trace_report,
    uninstall_tracer,
)
from repro.exec.designs import (
    DesignBatch,
    DesignOutcome,
    derive_design_seed,
    run_design_batch,
)
from repro.registry import (
    DuplicateComponentError,
    Registry,
    RegistryEntry,
    UnknownComponentError,
)
from repro.routing.base import POLICY_REGISTRY, register_policy
from repro.service.client import (
    DEFAULT_SERVICE_URL,
    ServiceClient,
    ServiceError,
)
from repro.scenario import (
    ElevatorFault,
    ElevatorRepair,
    ScenarioEvent,
    ScenarioSpec,
)
from repro.sim.backends import (
    BACKEND_REGISTRY,
    DEFAULT_BACKEND,
    SimulatorBackend,
    available_backends,
    register_backend,
    resolve_backend,
)
from repro.sim.engine import SimulationResult
from repro.spec import (
    DesignSpec,
    ExperimentSpec,
    PlacementSpec,
    PolicySpec,
    SimSpec,
    TrafficSpec,
    as_spec,
)
from repro.topology.elevators import (
    PLACEMENT_REGISTRY,
    available_placements,
    register_placement,
)
from repro.traffic.applications import (
    APPLICATION_REGISTRY,
    available_applications,
    register_application,
)
from repro.traffic.patterns import (
    PATTERN_REGISTRY,
    available_patterns,
    register_pattern,
)


def available_policies() -> List[str]:
    """Sorted canonical names of every registered policy."""
    return POLICY_REGISTRY.names()


def run_design(
    spec: DesignSpec,
    cache_dir: Optional[str] = None,
    on_iteration=None,
) -> AdEleDesign:
    """Run (or fetch from the design cache) one offline design stage.

    Args:
        spec: Typed description of the offline stage -- placement, assumed
            traffic, optimizer name/options and selection strategy.
        cache_dir: Optional cache directory whose store holds design
            records (see :func:`~repro.exec.cache.open_caches`); a warm
            directory skips the search entirely.
        on_iteration: Optional ``(stage, archive_size, best)`` progress
            callback forwarded to the optimizer.

    Returns:
        The :class:`~repro.core.pipeline.AdEleDesign` with the Pareto
        archive, representatives and the strategy-selected solution.
    """
    _, cache = open_caches(cache_dir or None)
    try:
        return design_for(spec, cache=cache, on_iteration=on_iteration)
    finally:
        close_caches(cache)


# ---------------------------------------------------------------------- #
# Execution
# ---------------------------------------------------------------------- #
def run(
    spec: ExperimentSpec,
    energy_model: Optional[EnergyModel] = None,
    probe: Optional[ProbeSpec] = None,
) -> SimulationResult:
    """Run one experiment spec end to end and return its full result.

    A spec carrying a ``scenario`` timeline (``spec.with_(scenario=...)``)
    runs it; the per-phase measurement windows are on
    ``result.stats.phases`` (and in ``result.summary()["phases"]``).
    ``probe`` attaches an opt-in kernel probe; the sampled
    :class:`~repro.obs.probes.ProbeSeries` lands on ``result.probe``
    while every number in the result stays bit-identical to an unprobed
    run (the probe is a run argument, never part of the spec).
    """
    return run_experiment(as_spec(spec), energy_model=energy_model, probe=probe)


def run_specs(
    specs: Iterable[ExperimentSpec],
    workers: int = 1,
    cache_dir: Optional[str] = None,
    base_seed: Optional[int] = None,
    energy_model: Optional[EnergyModel] = None,
    plugins: Iterable[str] = (),
    chunk_size: Optional[int] = None,
    probe: Optional[ProbeSpec] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> List[ExperimentOutcome]:
    """Run a grid of specs through the parallel batch engine.

    Args:
        specs: Experiment specs.
        workers: Worker processes (``1`` = serial fallback).
        cache_dir: Optional cache directory for result *and* AdEle design
            caching (its one SQLite store, shared with ``repro serve``; see
            :func:`~repro.exec.cache.open_caches`); a warm directory skips
            finished work entirely.
        base_seed: When given, per-task seeds derive from the canonical
            spec hash plus this value.
        energy_model: Optional energy model forwarded to every simulation.
        plugins: Module names re-imported inside worker processes so their
            registered components exist by name under any multiprocessing
            start method (under ``fork``, already-imported modules are
            inherited without this).
        chunk_size: Flush results to the cache (plus a resumable manifest
            when ``cache_dir`` is set) every this many completed specs.
        probe: Optional kernel probe attached to every *executed* task;
            the sampled series land in the batch's ``last_probes`` (keyed
            by cache key) and never enter cache keys, derived seeds or
            cached summary rows.
        metrics: Optional cumulative registry absorbing the engine's
            counters/timing histograms across calls (a fresh per-batch
            registry is used otherwise).

    Returns:
        One :class:`~repro.exec.batch.ExperimentOutcome` per spec, in input
        order, each carrying its spec, cache key and summary row.
    """
    result_cache, design_cache = open_caches(cache_dir)
    try:
        batch = ExperimentBatch(
            specs,
            workers=workers,
            result_cache=result_cache,
            design_cache=design_cache,
            base_seed=base_seed,
            energy_model=energy_model,
            plugins=tuple(plugins),
            chunk_size=chunk_size,
            manifest_dir=cache_dir,
            probe=probe,
            metrics=metrics,
        )
        return batch.run()
    finally:
        close_caches(result_cache, design_cache)


def run_designs(
    specs: Iterable[DesignSpec],
    workers: int = 1,
    cache_dir: Optional[str] = None,
    base_seed: Optional[int] = None,
    plugins: Iterable[str] = (),
) -> List[DesignOutcome]:
    """Run a grid of offline design specs through the design batch engine.

    The offline analogue of :func:`run_specs`: uncached designs fan out
    over worker processes, identical designs deduplicate through the design
    cache, and with ``base_seed`` each design's optimizer seed derives from
    the canonical design key (see
    :func:`~repro.exec.designs.derive_design_seed`).
    """
    _, design_cache = open_caches(cache_dir)
    try:
        return run_design_batch(
            specs,
            workers=workers,
            cache=design_cache,
            base_seed=base_seed,
            plugins=tuple(plugins),
        )
    finally:
        close_caches(design_cache)


# ---------------------------------------------------------------------- #
# Experiment service
# ---------------------------------------------------------------------- #
def connect(
    base_url: str = DEFAULT_SERVICE_URL, timeout: float = 30.0
) -> ServiceClient:
    """A client for a running ``python -m repro serve`` daemon."""
    return ServiceClient(base_url, timeout=timeout)


def submit(
    specs: Union[ExperimentSpec, Iterable[ExperimentSpec]],
    base_seed: Optional[int] = None,
    base_url: str = DEFAULT_SERVICE_URL,
) -> int:
    """Submit specs to the experiment service; returns the job id.

    Identical resubmissions (same specs, same base seed) dedup server-side
    and return the existing job's id.
    """
    return connect(base_url).submit(specs, base_seed=base_seed)


def wait(
    job_id: int,
    timeout: Optional[float] = None,
    base_url: str = DEFAULT_SERVICE_URL,
) -> Dict[str, object]:
    """Wait until the service job finishes; returns its status.

    See :meth:`ServiceClient.wait`: held status requests, asked back to
    back, so the finish is seen within a request's round trip.
    """
    return connect(base_url).wait(job_id, timeout=timeout)


def results(
    job_id: int, base_url: str = DEFAULT_SERVICE_URL
) -> List[Dict[str, float]]:
    """Summary rows of a finished service job, in submission order."""
    return connect(base_url).results(job_id)


__all__ = [
    # specs
    "ExperimentSpec",
    "PlacementSpec",
    "PolicySpec",
    "TrafficSpec",
    "SimSpec",
    "DesignSpec",
    "ScenarioSpec",
    "ScenarioEvent",
    "ElevatorFault",
    "ElevatorRepair",
    "as_spec",
    "spec_from_canonical",
    "canonical_config",
    "config_key",
    "derive_seed",
    # registries
    "Registry",
    "RegistryEntry",
    "UnknownComponentError",
    "DuplicateComponentError",
    "POLICY_REGISTRY",
    "PATTERN_REGISTRY",
    "APPLICATION_REGISTRY",
    "PLACEMENT_REGISTRY",
    "BACKEND_REGISTRY",
    "OPTIMIZER_REGISTRY",
    "DEFAULT_BACKEND",
    "SimulatorBackend",
    "SubsetOptimizer",
    "register_policy",
    "register_pattern",
    "register_application",
    "register_placement",
    "register_backend",
    "register_optimizer",
    "resolve_backend",
    "make_optimizer",
    "available_policies",
    "available_patterns",
    "available_applications",
    "available_placements",
    "available_backends",
    "available_optimizers",
    # execution
    "run",
    "run_specs",
    "run_design",
    "run_designs",
    "run_design_batch",
    "derive_design_seed",
    "key_extra_for",
    "design_for",
    "design_key_for",
    "AdEleDesign",
    "ExperimentBatch",
    "ExperimentOutcome",
    "DesignBatch",
    "DesignOutcome",
    "ResultCache",
    "DesignCache",
    "cache_stats",
    "open_caches",
    "close_caches",
    "EnergyModel",
    "SimulationResult",
    "ChunkAbort",
    # experiment service
    "DEFAULT_SERVICE_URL",
    "ServiceClient",
    "ServiceError",
    "connect",
    "submit",
    "wait",
    "results",
    # observability (repro.obs)
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "PROBE_CHANNELS",
    "ProbeSeries",
    "ProbeSpec",
    "JsonlRecorder",
    "RingRecorder",
    "SpanRecord",
    "Tracer",
    "chrome_trace_document",
    "current_tracer",
    "install_tracer",
    "load_span_records",
    "span",
    "trace_report",
    "uninstall_tracer",
]
