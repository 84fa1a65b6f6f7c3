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

:func:`design_for` resolves a :class:`~repro.spec.DesignSpec` to an AdEle
offline design, cached in a :class:`DesignCache` so a latency sweep over
ten injection rates runs AMOSA once, exactly like the paper runs the
offline stage once per configuration.  The cache is an injectable,
clearable object (callers can pass their own, e.g. the design cache of a
cache directory's store, :func:`repro.exec.cache.open_caches`); a
module-level default instance
preserves the historical run-AMOSA-once-per-process behaviour.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, Optional, Tuple

from repro.core.amosa import ProgressCallback
from repro.core.optimizers import OPTIMIZER_REGISTRY, canonical_optimizer_options
from repro.core.pipeline import AdEleDesign, optimize_elevator_subsets
from repro.core.selection import select_by_strategy, spread_selection
from repro.energy.model import EnergyModel
from repro.obs.tracing import span
from repro.routing import make_policy
from repro.routing.adele import AdElePolicy, AdEleRoundRobinPolicy
from repro.routing.base import ElevatorSelectionPolicy, RouteComputation
from repro.sim.engine import SimulationResult, Simulator
from repro.sim.network import Network
from repro.spec import (
    DEFAULT_ADELE_LOW_TRAFFIC_THRESHOLD,
    DEFAULT_ADELE_MAX_SUBSET_SIZE,
    DesignSpec,
    ExperimentSpec,
)
from repro.topology.elevators import ElevatorPlacement
from repro.traffic.generator import BernoulliPacketSource, PacketSource
from repro.traffic.patterns import PATTERN_REGISTRY, TrafficPattern

#: Key type of the offline-design cache (see :func:`design_key_for`).
DesignKey = Tuple


class DesignCache:
    """In-memory cache of completed AdEle offline designs.

    Keys come from :func:`design_key_for`.  Instances are injectable into
    :func:`design_for` / :func:`build_policy` and clearable, so sweeps with
    different offline settings cannot share stale designs and tests can
    isolate themselves cheaply.
    """

    def __init__(self) -> None:
        self._designs: Dict[DesignKey, AdEleDesign] = {}

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
#: :func:`design_for`).
_default_design_cache = DesignCache()


# ---------------------------------------------------------------------- #
# Building blocks
# ---------------------------------------------------------------------- #
def build_traffic(spec: ExperimentSpec, placement: ElevatorPlacement) -> TrafficPattern:
    """Build the traffic pattern named by an experiment."""
    return spec.traffic.build(placement, seed=spec.sim.seed)


def design_key_for(
    spec: DesignSpec, placement: Optional[ElevatorPlacement] = None
) -> DesignKey:
    """The design-cache key of a :class:`~repro.spec.DesignSpec`.

    The key captures everything the search depends on: the placement
    *identity* (name, mesh shape and elevator columns, so two custom
    placements sharing a name never collide), the assumed traffic label,
    the subset-size cap, the optimizer name and its fully resolved
    (defaults-applied) options, plus ``weight_distance_by_traffic`` only
    when enabled.  ``selection`` and ``num_representatives`` only read the
    archive, so they stay out of the key and are re-applied after every
    cache fetch.

    Args:
        placement: An already resolved placement, used in place of the
            spec's own placement field.

    Raises:
        repro.registry.UnknownComponentError: Unknown optimizer name.
    """
    if placement is None:
        placement = spec.placement.resolve()
    optimizer = OPTIMIZER_REGISTRY.entry(spec.optimizer).name
    options = canonical_optimizer_options(optimizer, spec.options)
    key: DesignKey = (
        placement.name,
        tuple(placement.mesh.shape),
        tuple(placement.columns()),
        _design_traffic_label(spec),
        spec.max_subset_size,
        optimizer,
        json.dumps(options, sort_keys=True, separators=(",", ":")),
    )
    if spec.weight_distance_by_traffic:
        key += (("weight_distance_by_traffic", True),)
    return key


def _design_traffic_label(spec: DesignSpec) -> str:
    """Canonical (registry-spelled) traffic label of a design spec."""
    name = spec.traffic
    if name in PATTERN_REGISTRY:
        return PATTERN_REGISTRY.entry(name).name
    return name.lower()


def design_for(
    spec: DesignSpec,
    placement: Optional[ElevatorPlacement] = None,
    cache: Optional[DesignCache] = None,
    on_iteration: Optional[ProgressCallback] = None,
) -> AdEleDesign:
    """Run (or fetch from cache) the offline stage a :class:`DesignSpec`
    describes -- the one cached entry point of the offline stage.

    Args:
        spec: The offline stage: assumed traffic, optimizer and options,
            subset cap, selection and representative count.
        placement: An already resolved placement, used in place of the
            spec's own placement field (the nested-in-experiment
            semantics).
        cache: Design cache to consult and populate, keyed by
            :func:`design_key_for`; defaults to the process-wide cache
            (see :func:`get_design_cache`).
        on_iteration: Optional optimizer progress callback (used only when
            the search runs).

    Raises:
        repro.registry.UnknownComponentError: Unknown optimizer, pattern or
            placement names (all ``ValueError`` with did-you-mean hints).
    """
    if placement is None:
        placement = spec.placement.resolve()
    if cache is None:
        cache = _default_design_cache
    key = design_key_for(spec, placement)
    optimizer = key[5]  # the canonical optimizer name
    with span("offline.design", placement=placement.name, optimizer=optimizer) as record_span:
        design = cache.get(key)
        if record_span is not None:
            record_span.args["hit"] = design is not None
        if design is None:
            design = optimize_elevator_subsets(placement, spec, on_iteration=on_iteration)
            cache.put(key, design)
        else:
            # Cache entries are shared across selection strategies and
            # representative counts.  When this call's strategy picks a
            # different archive entry (or asks for a different number of
            # representatives), hand back a shallow copy carrying them instead
            # of mutating the shared cached design underneath earlier callers.
            chosen = select_by_strategy(spec.selection, design.result.archive)
            representatives = design.representatives
            if spec.num_representatives != len(representatives):
                # The stored count can legitimately undershoot the request when
                # the archive is small (spread_selection returns every entry);
                # only hand back a copy when the spread actually changes.
                recomputed = spread_selection(
                    design.result.archive, spec.num_representatives
                )
                if recomputed != representatives:
                    representatives = recomputed
            if chosen is not design.selected or representatives is not design.representatives:
                design = dataclasses.replace(
                    design, selected=chosen, representatives=representatives
                )
    return design


def experiment_design_spec(spec: ExperimentSpec) -> DesignSpec:
    """The offline stage an AdEle experiment deploys.

    The nested :class:`~repro.spec.DesignSpec` when one is set (its cap
    wins over the policy option); otherwise the default stage with the
    policy's ``max_subset_size`` option (default 4) as its cap, so a
    design-free experiment shares its design with that spec.
    """
    if spec.design is not None:
        return spec.design
    return DesignSpec(
        max_subset_size=spec.policy.option(
            "max_subset_size", DEFAULT_ADELE_MAX_SUBSET_SIZE
        )
    )


def build_adele_policy(
    spec: ExperimentSpec,
    placement: ElevatorPlacement,
    subsets: Dict[int, Tuple[int, ...]],
) -> ElevatorSelectionPolicy:
    """The AdEle (or AdEle-RR) online policy of an experiment.

    The in-process path (:func:`build_policy`) and the batch workers both
    build their policy here, so their runs match bit for bit.

    Args:
        subsets: Per-router elevator subsets of the deployed offline
            solution (``AdEleDesign.selected_subsets()``).
    """
    seed = spec.sim.seed
    if spec.policy.name.lower() == "adele":
        threshold = spec.policy.option(
            "low_traffic_threshold", DEFAULT_ADELE_LOW_TRAFFIC_THRESHOLD
        )
        kwargs = {"subsets": subsets, "seed": seed}
        if threshold is not None:
            kwargs["low_traffic_threshold"] = threshold
        return AdElePolicy(placement, **kwargs)
    return AdEleRoundRobinPolicy(placement, subsets=subsets, seed=seed)


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

    AdEle variants run (or fetch from cache) the offline stage of
    :func:`experiment_design_spec` first; every other registered policy is
    constructed directly with the spec's policy options as keyword
    arguments.  The policy is bound to the *experiment's* placement object,
    not the (possibly cache-shared) design's equal-but-distinct one, so
    runtime fault state on the network's placement stays visible.
    """
    if spec.policy.needs_design:
        design = design_for(
            experiment_design_spec(spec), placement, cache=design_cache
        )
        return build_adele_policy(spec, placement, design.selected_subsets())
    return make_policy(spec.policy.name.lower(), placement, **spec.policy.options)


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
