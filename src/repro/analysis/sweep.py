"""Latency-vs-injection-rate sweeps and saturation detection (Fig. 4).

A *latency curve* records the average packet latency of one policy at a
series of injection rates.  The paper defines the saturation point as "the
injection rate at which latency is 10x zero-load latency"; the same
definition is implemented here (with the factor configurable) and used by
the Fig. 6 bench to place its low/high injection-rate operating points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.analysis.runner import DesignCache
from repro.energy.model import EnergyModel
from repro.sim.engine import SimulationResult
from repro.spec import ExperimentSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (exec -> runner)
    from repro.exec.cache import ResultCache


@dataclass
class LatencyCurve:
    """Average latency as a function of injection rate for one policy.

    Attributes:
        policy: Policy name.
        points: ``(injection_rate, average_latency)`` pairs in sweep order.
        results: Full simulation results keyed by injection rate.  Only
            populated when points are added via :meth:`add` with a result
            object; curves built from engine summary rows (e.g. by
            :func:`latency_sweep`, which routes through
            :class:`~repro.exec.batch.ExperimentBatch`) leave it empty.
    """

    policy: str
    points: List[Tuple[float, float]] = field(default_factory=list)
    results: Dict[float, SimulationResult] = field(default_factory=dict)

    def add(self, injection_rate: float, result: SimulationResult) -> None:
        """Append one sweep point with its full simulation result."""
        self.points.append((injection_rate, result.average_latency))
        self.results[injection_rate] = result

    def add_point(self, injection_rate: float, average_latency: float) -> None:
        """Append one sweep point from a summary row (no result object)."""
        self.points.append((injection_rate, average_latency))

    def latencies(self) -> List[float]:
        """Latency values in sweep order."""
        return [latency for _, latency in self.points]

    def rates(self) -> List[float]:
        """Injection rates in sweep order."""
        return [rate for rate, _ in self.points]

    def latency_at(self, injection_rate: float) -> float:
        """Latency measured at a specific injection rate."""
        for rate, latency in self.points:
            if rate == injection_rate:
                return latency
        raise KeyError(f"injection rate {injection_rate} not in sweep")


def zero_load_latency(curve: LatencyCurve) -> float:
    """Zero-load latency estimate: the latency at the lowest swept rate."""
    if not curve.points:
        raise ValueError("empty latency curve")
    lowest_rate_point = min(curve.points, key=lambda point: point[0])
    return lowest_rate_point[1]


def saturation_rate(
    curve: LatencyCurve,
    factor: float = 10.0,
    zero_load: Optional[float] = None,
) -> float:
    """Saturation injection rate (paper definition).

    The first swept rate whose latency reaches ``factor`` times the zero-load
    latency; if no swept point saturates, the highest swept rate is returned
    (the configuration did not saturate within the sweep).
    """
    if factor <= 1.0:
        raise ValueError("factor must exceed 1")
    if not curve.points:
        raise ValueError("empty latency curve")
    reference = zero_load if zero_load is not None else zero_load_latency(curve)
    threshold = factor * reference
    for rate, latency in sorted(curve.points):
        if latency >= threshold:
            return rate
    return max(rate for rate, _ in curve.points)


def latency_sweep(
    base_spec: ExperimentSpec,
    policies: Sequence[str],
    injection_rates: Sequence[float],
    energy_model: Optional[EnergyModel] = None,
    workers: int = 1,
    result_cache: Optional["ResultCache"] = None,
    design_cache: Optional[DesignCache] = None,
) -> Dict[str, LatencyCurve]:
    """Sweep injection rates for several policies on one experiment.

    The whole ``policies x injection_rates`` grid is routed through
    :class:`~repro.exec.batch.ExperimentBatch`: every point builds a fresh
    network from its spec (so no online state leaks between points and the
    sweep parallelizes freely), runs are fanned out over ``workers``
    processes, and finished points are served from ``result_cache``.

    Args:
        base_spec: Spec whose injection rate and policy are overridden by
            the sweep.
        policies: Registered policy names to sweep.
        injection_rates: Packet injection rates per node per cycle.
        energy_model: Optional energy model recorded into each result.
        workers: Worker processes (``1`` = serial).
        result_cache: Optional summary-row cache (a cache directory's store,
            :func:`~repro.exec.cache.open_caches`, makes repeated sweeps
            skip finished points).
        design_cache: Optional AdEle offline-design cache.

    Returns:
        ``{policy: LatencyCurve}`` in the given policy order.
    """
    # Imported lazily: repro.exec.batch itself imports the runner module, so
    # a module-level import here would be circular via repro.analysis.
    from repro.exec.batch import ExperimentBatch

    if not injection_rates:
        raise ValueError("injection_rates must not be empty")
    model = energy_model if energy_model is not None else EnergyModel()
    specs = [
        base_spec.with_(policy=policy_name, injection_rate=rate)
        for policy_name in policies
        for rate in injection_rates
    ]
    batch = ExperimentBatch(
        specs,
        workers=workers,
        result_cache=result_cache,
        design_cache=design_cache,
        energy_model=model,
    )
    outcomes = batch.run()
    curves: Dict[str, LatencyCurve] = {
        policy_name: LatencyCurve(policy=policy_name) for policy_name in policies
    }
    for outcome in outcomes:
        curves[outcome.spec.policy.name].add_point(
            outcome.spec.traffic.injection_rate, outcome.summary["average_latency"]
        )
    return curves
