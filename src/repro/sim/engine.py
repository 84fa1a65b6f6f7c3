"""Simulation driver.

The :class:`Simulator` connects a :class:`~repro.sim.network.Network` with a
:class:`~repro.traffic.generator.PacketSource` and runs the cycle loop:

* *warm-up* cycles fill the network with traffic but are not measured;
* *measurement* cycles feed the statistics;
* *drain* cycles stop injecting new traffic and give in-flight packets a
  bounded amount of time to reach their destinations (an over-saturated
  network will not drain, which is expected at injection rates past the
  saturation point).

The loop itself is executed by a pluggable kernel -- a
:class:`~repro.sim.backends.SimulatorBackend` resolved by name through
:data:`~repro.sim.backends.BACKEND_REGISTRY` (``optimized`` by default,
``reference`` for the original full-scan loop).  All backends are
bit-identical in their results; they differ only in speed.

The result object bundles the statistics with derived, report-ready metrics
(average latency, throughput, energy per flit when an energy model is
supplied).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Union

from repro.energy.model import EnergyModel
from repro.scenario.runtime import ScenarioRuntime
from repro.scenario.spec import ScenarioSpec
from repro.sim.backends import SimulatorBackend, resolve_backend
from repro.sim.network import Network
from repro.sim.stats import SimulationStats
from repro.traffic.generator import PacketSource


@dataclass
class SimulationResult:
    """Outcome of one simulation run.

    Attributes:
        stats: Raw event counters.
        warmup_cycles: Number of unmeasured warm-up cycles.
        measurement_cycles: Number of measured cycles.
        drain_cycles_used: Drain cycles actually simulated.
        num_nodes: Network size (routers).
        average_latency: Mean end-to-end packet latency in cycles.
        throughput: Accepted flits per node per cycle over the measurement
            window.
        energy_per_flit: Mean energy per delivered flit in Joules (``None``
            when no energy model was supplied).
        total_energy: Total network energy in Joules over the measurement
            window (``None`` without an energy model).
        policy_name: Name of the elevator-selection policy that produced the
            run (for reporting).
        backend_name: Name of the simulation kernel that executed the run
            (for reporting only -- backends are result-equivalent, so this
            never appears in :meth:`summary`).
        probe: The sampled :class:`~repro.obs.probes.ProbeSeries` of a
            probed run (``None`` otherwise).  Deliberately excluded from
            :meth:`summary` -- cached rows must be byte-identical whether
            or not the run was observed.
    """

    stats: SimulationStats
    warmup_cycles: int
    measurement_cycles: int
    drain_cycles_used: int
    num_nodes: int
    average_latency: float
    throughput: float
    energy_per_flit: Optional[float] = None
    total_energy: Optional[float] = None
    policy_name: str = ""
    backend_name: str = ""
    extra: Dict[str, float] = field(default_factory=dict)
    probe: Optional[Any] = None

    @property
    def delivered_packets(self) -> int:
        """Number of measured packets delivered."""
        return self.stats.packets_delivered

    @property
    def saturated(self) -> bool:
        """Heuristic saturation flag: most measured packets never arrived."""
        return self.stats.delivery_ratio < 0.5

    @property
    def phases(self):
        """Per-phase measurement windows of a scenario run (may be empty)."""
        return self.stats.phases

    def summary(self) -> Dict[str, Any]:
        """A flat dictionary of headline metrics (for tables and benches).

        Scenario runs additionally carry a ``"phases"`` key holding one
        JSON-native row per measurement window
        (:meth:`repro.sim.stats.PhaseStats.to_summary`); scenario-free runs
        keep the exact historical shape, so cached rows stay comparable.
        """
        summary: Dict[str, Any] = {
            "average_latency": self.average_latency,
            "throughput": self.throughput,
            "packets_delivered": float(self.stats.packets_delivered),
            "packets_created": float(self.stats.packets_created),
            "delivery_ratio": self.stats.delivery_ratio,
            "average_hops": self.stats.average_hops,
        }
        if self.energy_per_flit is not None:
            summary["energy_per_flit"] = self.energy_per_flit
        if self.total_energy is not None:
            summary["total_energy"] = self.total_energy
        summary.update(self.extra)
        if self.stats.phases:
            summary["phases"] = [
                phase.to_summary() for phase in self.stats.phases
            ]
        return summary


class Simulator:
    """Runs a network + packet source for a configured number of cycles.

    Args:
        network: The network under test.
        packet_source: Traffic injector.
        warmup_cycles: Unmeasured cycles at the start of the run.
        measurement_cycles: Measured cycles.
        drain_cycles: Maximum extra cycles (with injection stopped) granted
            for in-flight packets to arrive.
        energy_model: Optional energy model used to derive energy metrics.
        backend: Simulation kernel executing the cycle loop -- a registered
            backend name/alias, a :class:`~repro.sim.backends.SimulatorBackend`
            instance, or ``None`` for the default (``optimized``).
        scenario: Optional timeline of elevator faults and repairs
            executed against the run.  The dispatcher threads through
            *every* backend via the packet source, so scenario runs stay
            bit-identical across kernels; the statistics gain per-phase
            measurement windows.
        probe: Optional :class:`~repro.obs.probes.ProbeSpec` asking the
            kernel to sample per-cycle congestion gauges into
            ``result.probe``.  A run argument set on the resolved backend
            instance -- never a spec field, never part of cache keys or
            summaries (see :mod:`repro.obs`).
    """

    def __init__(
        self,
        network: Network,
        packet_source: PacketSource,
        warmup_cycles: int = 500,
        measurement_cycles: int = 2000,
        drain_cycles: int = 1000,
        energy_model: Optional[EnergyModel] = None,
        backend: Union[str, SimulatorBackend, None] = None,
        scenario: Optional[ScenarioSpec] = None,
        probe: Optional[Any] = None,
    ) -> None:
        if warmup_cycles < 0 or measurement_cycles <= 0 or drain_cycles < 0:
            raise ValueError("invalid cycle configuration")
        self.network = network
        self.packet_source = packet_source
        self.warmup_cycles = warmup_cycles
        self.measurement_cycles = measurement_cycles
        self.drain_cycles = drain_cycles
        self.energy_model = energy_model
        self.backend = resolve_backend(backend)
        if probe is not None:
            self.backend.probe = probe
        self.scenario = scenario

    def run(self) -> SimulationResult:
        """Execute the simulation and return its result."""
        network = self.network
        network.stats.measurement_start = self.warmup_cycles
        injection_end = self.warmup_cycles + self.measurement_cycles

        source: PacketSource = self.packet_source
        runtime: Optional[ScenarioRuntime] = None
        if self.scenario is not None:
            runtime = ScenarioRuntime(
                self.scenario,
                network=network,
                source=source,
                injection_end=injection_end,
            )
            runtime.begin()
            source = runtime.packet_source

        drain_used = 0
        try:
            drain_used = self.backend.execute(
                network,
                source,
                warmup_cycles=self.warmup_cycles,
                measurement_cycles=self.measurement_cycles,
                drain_cycles=self.drain_cycles,
            )
        finally:
            # Close the final phase window and undo scenario mutations on
            # every exit path, so shared placements never leak fault state.
            if runtime is not None:
                runtime.finalize(injection_end + drain_used)

        stats = network.stats
        result = SimulationResult(
            stats=stats,
            probe=self.backend.last_probe,
            warmup_cycles=self.warmup_cycles,
            measurement_cycles=self.measurement_cycles,
            drain_cycles_used=drain_used,
            num_nodes=network.mesh.num_nodes,
            average_latency=stats.average_latency,
            throughput=stats.throughput(
                self.measurement_cycles, network.mesh.num_nodes
            ),
            policy_name=network.policy.name,
            backend_name=self.backend.name,
        )
        if self.energy_model is not None:
            total = self.energy_model.total_energy(stats)
            result.total_energy = total
            if stats.flits_delivered > 0:
                result.energy_per_flit = total / stats.flits_delivered
            else:
                result.energy_per_flit = 0.0
            for phase in stats.phases:
                phase.energy_j = self.energy_model.phase_energy(phase)
        return result


def run_simulation(
    network: Network,
    packet_source: PacketSource,
    warmup_cycles: int = 500,
    measurement_cycles: int = 2000,
    drain_cycles: int = 1000,
    energy_model: Optional[EnergyModel] = None,
    backend: Union[str, SimulatorBackend, None] = None,
    scenario: Optional[ScenarioSpec] = None,
    probe: Optional[Any] = None,
) -> SimulationResult:
    """Convenience wrapper building and running a :class:`Simulator`."""
    simulator = Simulator(
        network,
        packet_source,
        warmup_cycles=warmup_cycles,
        measurement_cycles=measurement_cycles,
        drain_cycles=drain_cycles,
        energy_model=energy_model,
        backend=backend,
        scenario=scenario,
        probe=probe,
    )
    return simulator.run()
