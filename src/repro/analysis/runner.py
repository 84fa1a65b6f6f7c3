"""Declarative experiment construction and execution.

The benchmark harness needs to run many ``(placement, policy, traffic,
injection rate)`` combinations; this module centralizes how those pieces are
assembled so every bench and example builds identical networks:

* :func:`build_policy` knows how to construct each elevator-selection
  policy, running (and caching) AdEle's offline optimization when an AdEle
  variant is requested;
* :func:`build_network` / :func:`build_packet_source` assemble the simulator
  inputs per the paper's Table I defaults;
* :func:`run_experiment` executes one configuration and returns the
  :class:`~repro.sim.engine.SimulationResult`.

The AdEle offline design is cached in a :class:`DesignCache` so a latency
sweep over ten injection rates runs AMOSA once, exactly like the paper runs
the offline stage once per configuration.  The cache is an injectable,
clearable object (callers can pass their own, e.g. the disk-backed
:class:`repro.exec.cache.DiskDesignCache`); a module-level default instance
preserves the historical run-AMOSA-once-per-process behaviour.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import asdict
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.core.amosa import AmosaConfig, ProgressCallback
from repro.core.optimizers import (
    DEFAULT_OFFLINE_AMOSA,
    OPTIMIZER_REGISTRY,
    canonical_optimizer_options,
)
from repro.core.pipeline import AdEleDesign, OfflineConfig, optimize_elevator_subsets
from repro.core.selection import select_by_strategy, spread_selection
from repro.energy.model import EnergyModel
from repro.obs.tracing import span
from repro.routing import make_policy
from repro.routing.base import ElevatorSelectionPolicy, RouteComputation
from repro.sim.engine import SimulationResult, Simulator
from repro.sim.network import Network
from repro.spec import (
    DEFAULT_ADELE_LOW_TRAFFIC_THRESHOLD,
    DEFAULT_ADELE_MAX_SUBSET_SIZE,
    DEFAULT_NUM_REPRESENTATIVES,
    DesignSpec,
    ExperimentSpec,
)
from repro.topology.elevators import ElevatorPlacement
from repro.traffic.generator import BernoulliPacketSource, PacketSource
from repro.traffic.patterns import PATTERN_REGISTRY, TrafficPattern, UniformTraffic

#: Key type of the offline-design cache (see :meth:`DesignCache.make_key`).
DesignKey = Tuple


class DesignCache:
    """In-memory cache of completed AdEle offline designs.

    Keys capture everything the offline stage depends on -- the placement
    *identity* (name, mesh shape and elevator columns, so two different
    custom placements sharing a name never collide), the assumed traffic
    label, the subset-size cap, the optimizer name and its fully resolved
    (defaults-applied) options.  The selection strategy is deliberately
    *not* part of the key: it only picks a point from the archive and is
    re-applied after every cache fetch.  Instances are injectable into
    :func:`adele_design_for` / :func:`build_policy` and clearable, so
    sweeps with different offline settings cannot share stale designs and
    tests can isolate themselves cheaply.
    """

    def __init__(self) -> None:
        self._designs: Dict[DesignKey, AdEleDesign] = {}

    @staticmethod
    def make_key(
        placement: ElevatorPlacement,
        traffic_label: str,
        max_subset_size: Optional[int],
        amosa_config: Optional[AmosaConfig] = None,
        optimizer: str = "amosa",
        optimizer_options: Optional[Mapping[str, Any]] = None,
        weight_distance_by_traffic: bool = False,
    ) -> DesignKey:
        """The cache key of one offline-stage invocation.

        ``optimizer_options`` should be the *fully resolved* options (see
        :func:`repro.core.optimizers.canonical_optimizer_options`); when
        omitted they are derived from ``amosa_config`` (legacy callers) or
        the optimizer's defaults.  ``weight_distance_by_traffic`` extends
        the key only when enabled, so every key minted before the knob
        existed stays byte-identical.  ``num_representatives`` is
        deliberately *not* part of the key: like the selection strategy it
        only reads the archive and is re-applied after every cache fetch.
        """
        canonical = optimizer
        if canonical in OPTIMIZER_REGISTRY:
            canonical = OPTIMIZER_REGISTRY.entry(canonical).name
        if optimizer_options is None:
            if canonical == "amosa":
                base = amosa_config if amosa_config is not None else DEFAULT_OFFLINE_AMOSA
                optimizer_options = asdict(base)
            else:
                optimizer_options = canonical_optimizer_options(canonical, {})
        options_blob = json.dumps(
            dict(optimizer_options), sort_keys=True, separators=(",", ":")
        )
        key: DesignKey = (
            placement.name,
            tuple(placement.mesh.shape),
            tuple(placement.columns()),
            traffic_label,
            max_subset_size,
            canonical,
            options_blob,
        )
        if weight_distance_by_traffic:
            key += (("weight_distance_by_traffic", True),)
        return key

    def get(self, key: DesignKey) -> Optional[AdEleDesign]:
        """The cached design for a key, or ``None``."""
        return self._designs.get(key)

    def put(self, key: DesignKey, design: AdEleDesign) -> None:
        """Store a completed design under a key."""
        self._designs[key] = design

    def clear(self) -> None:
        """Drop every cached design."""
        self._designs.clear()

    def __len__(self) -> int:
        return len(self._designs)

    def __contains__(self, key: DesignKey) -> bool:
        return key in self._designs


#: Default process-wide design cache (injectable replacements: see
#: :func:`set_design_cache` and the ``cache`` parameter of
#: :func:`adele_design_for`).
_default_design_cache = DesignCache()


def _traffic_matrix_digest(traffic_matrix) -> str:
    """Short content hash of an explicit traffic matrix (for cache keys)."""
    items = sorted(traffic_matrix.items())
    blob = repr(items).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------- #
# Building blocks
# ---------------------------------------------------------------------- #
def build_traffic(spec: ExperimentSpec, placement: ElevatorPlacement) -> TrafficPattern:
    """Build the traffic pattern named by an experiment."""
    return spec.traffic.build(placement, seed=spec.sim.seed)


def adele_design_for(
    placement: ElevatorPlacement,
    traffic_label: str = "uniform",
    traffic_matrix=None,
    max_subset_size: Optional[int] = 4,
    amosa_config: Optional[AmosaConfig] = None,
    cache: Optional[DesignCache] = None,
    optimizer: str = "amosa",
    optimizer_options: Optional[Mapping[str, Any]] = None,
    selection: str = "knee",
    matrix_from_label: bool = False,
    weight_distance_by_traffic: bool = False,
    num_representatives: int = DEFAULT_NUM_REPRESENTATIVES,
    on_iteration: Optional[ProgressCallback] = None,
) -> AdEleDesign:
    """Run (or fetch from cache) AdEle's offline optimization for a placement.

    The paper runs the offline stage with uniform traffic ("the most
    pessimistic assumption"), so by default the uniform matrix is used
    regardless of the runtime traffic.

    Args:
        cache: Design cache to consult/populate; defaults to the process-wide
            cache (see :func:`get_design_cache`).
        optimizer: Registered optimizer name running the search.
        optimizer_options: Optimizer options; for ``amosa`` they override
            ``amosa_config`` (which defaults to the offline defaults).
        selection: Archive-selection strategy (``knee``/``latency``/
            ``energy``); applied after every cache fetch, so it never
            splits the cache.
        matrix_from_label: The supplied ``traffic_matrix`` was derived
            deterministically from ``traffic_label`` (seed 0), so the label
            alone identifies it -- the design stays disk-persistable.
            Without this flag an explicit matrix is keyed by content hash
            and kept memory-only.
        weight_distance_by_traffic: Weight the distance objective by the
            traffic matrix (enters the cache key only when enabled).
        num_representatives: How many spread (S0...) solutions to expose;
            like ``selection``, re-applied after every cache fetch.
        on_iteration: Optional optimizer progress callback.

    Raises:
        repro.registry.UnknownComponentError: Unknown optimizer name.
    """
    canonical = OPTIMIZER_REGISTRY.entry(optimizer).name
    amosa = amosa_config if amosa_config is not None else DEFAULT_OFFLINE_AMOSA
    if canonical == "amosa":
        options = {**asdict(amosa), **dict(optimizer_options or {})}
        options = canonical_optimizer_options(canonical, options)
    else:
        options = canonical_optimizer_options(canonical, optimizer_options or {})
    if cache is None:
        cache = _default_design_cache
    if traffic_matrix is not None and not matrix_from_label:
        # An explicit matrix must never alias the label-only entry (nor be
        # persisted as the canonical "uniform" design by disk caches): key
        # it by content.
        traffic_label = f"{traffic_label}#{_traffic_matrix_digest(traffic_matrix)}"
    key = DesignCache.make_key(
        placement,
        traffic_label,
        max_subset_size,
        optimizer=canonical,
        optimizer_options=options,
        weight_distance_by_traffic=weight_distance_by_traffic,
    )
    with span(
        "offline.design", placement=placement.name, optimizer=canonical
    ) as record_span:
        design = cache.get(key)
        if record_span is not None:
            record_span.args["hit"] = design is not None
        if design is None:
            if traffic_matrix is None:
                traffic_matrix = UniformTraffic(placement.mesh).traffic_matrix()
            offline = OfflineConfig(
                amosa=amosa,
                max_subset_size=max_subset_size,
                weight_distance_by_traffic=weight_distance_by_traffic,
                num_representatives=num_representatives,
                optimizer=canonical,
                optimizer_options={} if canonical == "amosa" and optimizer_options is None
                else dict(optimizer_options or {}),
                selection=selection,
            )
            design = optimize_elevator_subsets(
                placement, traffic_matrix, offline, on_iteration=on_iteration
            )
            cache.put(key, design)
        else:
            # Cache entries are shared across selection strategies and
            # representative counts.  When this call's strategy picks a
            # different archive entry (or asks for a different number of
            # representatives), hand back a shallow copy carrying them instead
            # of mutating the shared cached design underneath earlier callers.
            chosen = select_by_strategy(selection, design.result.archive)
            representatives = design.representatives
            if num_representatives != len(representatives):
                # The stored count can legitimately undershoot the request when
                # the archive is small (spread_selection returns every entry);
                # only hand back a copy when the spread actually changes.
                recomputed = spread_selection(design.result.archive, num_representatives)
                if recomputed != representatives:
                    representatives = recomputed
            if chosen is not design.selected or representatives is not design.representatives:
                design = dataclasses.replace(
                    design, selected=chosen, representatives=representatives
                )
    return design


def design_key_for(
    spec: DesignSpec, placement: Optional[ElevatorPlacement] = None
) -> DesignKey:
    """The design-cache key of a :class:`~repro.spec.DesignSpec`.

    Raises:
        repro.registry.UnknownComponentError: Unknown optimizer name.
    """
    if placement is None:
        placement = spec.placement.resolve()
    canonical = OPTIMIZER_REGISTRY.entry(spec.optimizer).name
    return DesignCache.make_key(
        placement,
        _design_traffic_label(spec),
        spec.max_subset_size,
        optimizer=canonical,
        optimizer_options=canonical_optimizer_options(canonical, spec.options),
        weight_distance_by_traffic=spec.weight_distance_by_traffic,
    )


def _design_traffic_label(spec: DesignSpec) -> str:
    """Canonical (registry-spelled) traffic label of a design spec."""
    name = spec.traffic
    if name in PATTERN_REGISTRY:
        return PATTERN_REGISTRY.entry(name).name
    return name.lower()


def design_for_placement(
    placement: ElevatorPlacement,
    spec: DesignSpec,
    cache: Optional[DesignCache] = None,
    on_iteration: Optional[ProgressCallback] = None,
) -> AdEleDesign:
    """Run (or fetch) the offline stage a :class:`DesignSpec` describes,
    against an already resolved placement (the spec's own placement field
    is ignored -- the nested-in-experiment semantics)."""
    label = _design_traffic_label(spec)
    if label == "uniform":
        matrix = None
        matrix_from_label = False
    else:
        pattern = PATTERN_REGISTRY.create(label, placement.mesh, seed=0)
        matrix = pattern.traffic_matrix()
        matrix_from_label = True
    return adele_design_for(
        placement,
        traffic_label=label,
        traffic_matrix=matrix,
        max_subset_size=spec.max_subset_size,
        cache=cache,
        optimizer=spec.optimizer,
        optimizer_options=spec.options,
        selection=spec.selection,
        matrix_from_label=matrix_from_label,
        weight_distance_by_traffic=spec.weight_distance_by_traffic,
        num_representatives=spec.num_representatives,
        on_iteration=on_iteration,
    )


def design_for(
    spec: DesignSpec,
    cache: Optional[DesignCache] = None,
    on_iteration: Optional[ProgressCallback] = None,
) -> AdEleDesign:
    """Run (or fetch from cache) the offline stage a :class:`DesignSpec`
    fully describes -- the ``python -m repro optimize`` entry point.

    Raises:
        repro.registry.UnknownComponentError: Unknown optimizer, pattern or
            placement names (all ``ValueError`` with did-you-mean hints).
    """
    placement = spec.placement.resolve()
    return design_for_placement(
        placement, spec, cache=cache, on_iteration=on_iteration
    )


def get_design_cache() -> DesignCache:
    """The process-wide default design cache."""
    return _default_design_cache


def set_design_cache(cache: DesignCache) -> DesignCache:
    """Swap the process-wide default design cache; returns the old one."""
    global _default_design_cache
    previous = _default_design_cache
    _default_design_cache = cache
    return previous


def clear_design_cache() -> None:
    """Drop all designs from the default cache (used by tests)."""
    _default_design_cache.clear()


def build_policy(
    spec: ExperimentSpec,
    placement: ElevatorPlacement,
    design_cache: Optional[DesignCache] = None,
) -> ElevatorSelectionPolicy:
    """Build the elevator-selection policy named by an experiment.

    AdEle variants run (or fetch from cache) the offline optimization
    first -- following the spec's nested :class:`~repro.spec.DesignSpec`
    when one is set (optimizer, options, assumed traffic and selection),
    the historical AMOSA defaults otherwise; every other registered policy
    is constructed directly with the spec's policy options as keyword
    arguments.
    """
    name = spec.policy.name.lower()
    if spec.policy.needs_design:
        if spec.design is not None:
            design = design_for_placement(
                placement, spec.design, cache=design_cache
            )
        else:
            design = adele_design_for(
                placement,
                max_subset_size=spec.policy.option(
                    "max_subset_size", DEFAULT_ADELE_MAX_SUBSET_SIZE
                ),
                cache=design_cache,
            )
        # Bind the policy to the *experiment's* placement object, not the
        # (possibly cache-shared) design's equal-but-distinct one, so
        # runtime fault state on the network's placement stays visible.
        if name == "adele":
            return design.to_policy(
                low_traffic_threshold=spec.policy.option(
                    "low_traffic_threshold", DEFAULT_ADELE_LOW_TRAFFIC_THRESHOLD
                ),
                seed=spec.sim.seed,
                placement=placement,
            )
        return design.to_round_robin_policy(seed=spec.sim.seed, placement=placement)
    return make_policy(name, placement, **spec.policy.options)


def build_network(
    spec: ExperimentSpec,
    placement: Optional[ElevatorPlacement] = None,
    policy: Optional[ElevatorSelectionPolicy] = None,
    design_cache: Optional[DesignCache] = None,
    route_computation: Optional[RouteComputation] = None,
) -> Network:
    """Build the network for an experiment.

    ``route_computation`` lets warm workers share one precomputed
    route-table object across networks of the same mesh (the tables are
    immutable and depend only on the mesh shape).
    """
    placement = placement if placement is not None else spec.placement.resolve()
    if policy is None:
        policy = build_policy(spec, placement, design_cache=design_cache)
    return Network(
        placement,
        policy,
        num_vcs=2,
        buffer_depth=spec.sim.buffer_depth,
        route_computation=route_computation,
    )


def build_packet_source(spec: ExperimentSpec, placement: ElevatorPlacement) -> PacketSource:
    """Build the packet source for an experiment."""
    pattern = spec.traffic.build(placement, seed=spec.sim.seed)
    return BernoulliPacketSource(
        pattern,
        spec.traffic.injection_rate,
        min_packet_length=spec.traffic.min_packet_length,
        max_packet_length=spec.traffic.max_packet_length,
        seed=spec.sim.seed,
    )


#: Shared default for runs without an explicit energy model.  EnergyModel
#: is a stateless frozen-parameter dataclass, so one instance can serve
#: every run in the process -- the memoized warm-worker path must not
#: allocate per call.
_DEFAULT_ENERGY_MODEL = EnergyModel()


def run_experiment(
    spec: ExperimentSpec,
    energy_model: Optional[EnergyModel] = None,
    network: Optional[Network] = None,
    probe=None,
) -> SimulationResult:
    """Run one experiment end to end and return its result.

    A prewarmed ``network`` (e.g. from the worker memo) is reused via
    :meth:`~repro.sim.network.Network.reset`; its placement is taken as-is
    instead of resolving the spec's placement again.

    ``probe`` is an optional :class:`~repro.obs.probes.ProbeSpec` -- a
    *run argument*, deliberately not a spec field: it threads to the
    kernel, fills ``result.probe``, and never enters cache keys, derived
    seeds or summaries (see :mod:`repro.obs`).
    """
    placement = (
        network.placement if network is not None else spec.placement.resolve()
    )
    if network is None:
        network = build_network(spec, placement=placement)
    else:
        network.reset()
    source = build_packet_source(spec, placement)
    simulator = Simulator(
        network,
        source,
        warmup_cycles=spec.sim.warmup_cycles,
        measurement_cycles=spec.sim.measurement_cycles,
        drain_cycles=spec.sim.drain_cycles,
        energy_model=(
            energy_model if energy_model is not None else _DEFAULT_ENERGY_MODEL
        ),
        backend=spec.sim.backend,
        scenario=spec.scenario,
        scenario_seed=spec.sim.seed,
        probe=probe,
    )
    return simulator.run()
