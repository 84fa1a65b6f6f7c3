"""Experiment harness: building, running and comparing configurations.

This package is the glue used by the examples and the benchmark suite: it
turns a declarative experiment description (placement, policy, traffic,
injection rate) into a simulated :class:`~repro.sim.engine.SimulationResult`
and provides the derived analyses the paper reports -- latency-vs-injection
sweeps with saturation detection (Fig. 4), per-elevator load distributions
(Fig. 5), normalized energy (Fig. 6) and normalized latency/energy under
application traffic (Fig. 7).
"""

from repro.analysis.runner import (
    DesignCache,
    build_adele_policy,
    build_network,
    build_packet_source,
    build_policy,
    clear_design_cache,
    design_for,
    design_key_for,
    experiment_design_spec,
    get_design_cache,
    run_experiment,
    set_design_cache,
)
from repro.analysis.sweep import (
    LatencyCurve,
    latency_sweep,
    saturation_rate,
    zero_load_latency,
)
from repro.analysis.load import elevator_load_distribution
from repro.analysis.comparison import (
    normalize_to_baseline,
    policy_comparison_from_outcomes,
    policy_comparison_from_summaries,
    policy_comparison_table,
    relative_improvement,
)

__all__ = [
    "DesignCache",
    "get_design_cache",
    "set_design_cache",
    "build_network",
    "build_policy",
    "build_packet_source",
    "run_experiment",
    "build_adele_policy",
    "design_for",
    "design_key_for",
    "experiment_design_spec",
    "clear_design_cache",
    "LatencyCurve",
    "latency_sweep",
    "saturation_rate",
    "zero_load_latency",
    "elevator_load_distribution",
    "normalize_to_baseline",
    "relative_improvement",
    "policy_comparison_table",
    "policy_comparison_from_summaries",
    "policy_comparison_from_outcomes",
]
