"""Seed replicas run one after another (kept for the benchmark of record).

Nothing in the package calls this module, but
``benchmarks/e2e/e2e_layers.py`` wraps :func:`run_replica_group` by name,
so the entry point stays until that benchmark stops looking for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.energy.model import EnergyModel
from repro.obs.probes import ProbeSpec
from repro.scenario.spec import ScenarioSpec
from repro.sim.engine import SimulationResult, Simulator
from repro.sim.network import Network
from repro.traffic.generator import PacketSource


@dataclass
class ReplicaRun:
    """One replica's prepared inputs: the per-run arguments of a Simulator."""

    network: Network
    packet_source: PacketSource
    scenario: Optional[ScenarioSpec] = None
    energy_model: Optional[EnergyModel] = None


def run_replica_group(
    replicas: Sequence[ReplicaRun],
    *,
    warmup_cycles: int,
    measurement_cycles: int,
    drain_cycles: int,
    probe: Optional[ProbeSpec] = None,
) -> List[SimulationResult]:
    """Run each replica through :meth:`Simulator.run`, in order."""
    return [
        Simulator(
            replica.network,
            replica.packet_source,
            warmup_cycles=warmup_cycles,
            measurement_cycles=measurement_cycles,
            drain_cycles=drain_cycles,
            energy_model=replica.energy_model,
            scenario=replica.scenario,
            probe=probe,
        ).run()
        for replica in replicas
    ]
