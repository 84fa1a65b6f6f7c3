"""repro: a reproduction of AdEle (DAC 2021).

AdEle is an adaptive congestion- and energy-aware elevator-selection scheme
for partially connected 3D networks-on-chip.  This package reimplements the
complete system described in the paper:

* the PC-3DNoC substrate -- 3D mesh topology, elevator placements, a
  cycle-based flit-level wormhole simulator, traffic generators, energy and
  area models (:mod:`repro.topology`, :mod:`repro.sim`, :mod:`repro.traffic`,
  :mod:`repro.energy`, :mod:`repro.area`);
* the baselines -- Elevator-First and CDA elevator selection
  (:mod:`repro.routing`);
* AdEle itself -- the offline AMOSA elevator-subset optimization
  (:mod:`repro.core`) and the online adaptive selection policy
  (:mod:`repro.routing.adele`);
* the experiment harness used to regenerate the paper's tables and figures
  (:mod:`repro.analysis`, plus the ``benchmarks/`` directory of the source
  repository);
* the parallel experiment engine -- batched, deterministically seeded,
  cached execution of whole experiment grids, also exposed as the
  ``python -m repro`` CLI (:mod:`repro.exec`);
* runtime fault injection -- typed timelines of elevator faults and
  repairs with per-phase measurement windows (:mod:`repro.scenario`, paper
  Section V);
* the public API -- typed :class:`~repro.spec.ExperimentSpec` experiment
  descriptions over pluggable component registries (:mod:`repro.api`,
  :mod:`repro.spec`, :mod:`repro.registry`).

Quickstart::

    from repro import api

    spec = api.ExperimentSpec().with_(placement="PS1", policy="adele")
    result = api.run(spec)
    print(result.average_latency)
"""

from repro.topology import (
    Coordinate,
    ElevatorPlacement,
    Mesh3D,
    standard_placement,
)
from repro.traffic import (
    APPLICATION_NAMES,
    ApplicationTraffic,
    ShuffleTraffic,
    TrafficTrace,
    UniformTraffic,
    make_application_traffic,
    make_pattern,
)
from repro.sim import Network, SimulationResult, Simulator
from repro.energy import EnergyModel
from repro.area import AreaModel
from repro.routing import (
    AdElePolicy,
    AdEleRoundRobinPolicy,
    CDAPolicy,
    ElevatorFirstPolicy,
    MinimalPathPolicy,
    make_policy,
)
from repro.core import (
    AdEleDesign,
    AmosaConfig,
    AmosaOptimizer,
    optimize_elevator_subsets,
)
from repro.analysis import (
    DesignCache,
    design_for,
    elevator_load_distribution,
    latency_sweep,
    run_experiment,
    saturation_rate,
)
from repro.exec import (
    ExperimentBatch,
    ExperimentOutcome,
    ResultCache,
    config_key,
    derive_seed,
    run_batch,
)
from repro.registry import Registry, RegistryEntry, UnknownComponentError
from repro.spec import (
    DesignSpec,
    ExperimentSpec,
    PlacementSpec,
    PolicySpec,
    SimSpec,
    TrafficSpec,
)
from repro import api

__version__ = "1.22.0"

__all__ = [
    "Coordinate",
    "Mesh3D",
    "ElevatorPlacement",
    "standard_placement",
    "UniformTraffic",
    "ShuffleTraffic",
    "ApplicationTraffic",
    "TrafficTrace",
    "APPLICATION_NAMES",
    "make_pattern",
    "make_application_traffic",
    "Network",
    "Simulator",
    "SimulationResult",
    "EnergyModel",
    "AreaModel",
    "ElevatorFirstPolicy",
    "CDAPolicy",
    "MinimalPathPolicy",
    "AdElePolicy",
    "AdEleRoundRobinPolicy",
    "make_policy",
    "AdEleDesign",
    "DesignSpec",
    "AmosaConfig",
    "AmosaOptimizer",
    "optimize_elevator_subsets",
    "ExperimentSpec",
    "PlacementSpec",
    "PolicySpec",
    "TrafficSpec",
    "SimSpec",
    "Registry",
    "RegistryEntry",
    "UnknownComponentError",
    "api",
    "run_experiment",
    "latency_sweep",
    "saturation_rate",
    "elevator_load_distribution",
    "design_for",
    "DesignCache",
    "ExperimentBatch",
    "ExperimentOutcome",
    "ResultCache",
    "run_batch",
    "config_key",
    "derive_seed",
    "__version__",
]
