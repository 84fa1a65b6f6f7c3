"""Batched replica execution: R seed-replicas through one kernel pass.

The mega-sweep workload fans one *structural* spec (same mesh, placement,
policy, routes) across many seeds and injection rates.  Run solo, every
replica pays the full per-cycle numpy dispatch overhead on a small mesh;
batched, R structurally identical replicas share a single
:class:`~repro.sim.backends.vectorized._VectorizedKernel` whose node axis
is the disconnected union of the replicas (global node ``r * N + local``).
One batched route/allocate/commit pass then serves all replicas per cycle,
amortizing the numpy call overhead R ways, while every replica keeps its
own :class:`~repro.sim.network.Network`, policy instance, RNG streams,
:class:`~repro.sim.stats.SimulationStats` and (optionally) its own
scenario timeline.

The hard invariant -- pinned by ``tests/test_replica_batch.py`` and the
``BENCH_perf_replicas`` gate -- is that each replica's
:class:`~repro.sim.engine.SimulationResult` is **bit-identical** to the
solo ``vectorized`` run of the same spec: links never cross replica
blocks, allocation winner order within a replica matches the solo order
(global node ids are replica-major), and all per-packet bookkeeping
dispatches to the owning replica's objects.  Since the solo run is the
one-replica case of the same cycle loop, every replica also joins the
cross-backend identity matrix against ``reference``.

Two entry points:

* :class:`BatchedBackend` -- the registered ``batched`` backend.  For a
  single network it *is* the vectorized backend (R=1); it exists as a
  distinct registry entry so specs can opt into replica grouping by name
  and so results report the kernel that really ran.
* :func:`run_replica_group` -- the group runner used by
  :class:`~repro.exec.batch.ExperimentBatch` when ``replica_batch`` is
  set: takes R prepared :class:`ReplicaRun` bundles and returns one
  :class:`~repro.sim.engine.SimulationResult` per replica, mirroring
  :meth:`repro.sim.engine.Simulator.run` per replica (scenario lifecycle,
  drain accounting, energy application included).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.sim.backends import register_backend
from repro.sim.backends.vectorized import VectorizedBackend, _VectorizedKernel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.energy.model import EnergyModel
    from repro.obs.probes import ProbeSpec
    from repro.scenario.spec import ScenarioSpec
    from repro.sim.engine import SimulationResult
    from repro.sim.network import Network
    from repro.traffic.generator import PacketSource


@register_backend(
    "batched",
    aliases=("replica", "multi-seed"),
    description=(
        "vectorized kernel with a replica axis: groups of seed-replicas "
        "run in one numpy pass (solo runs identical to vectorized)"
    ),
)
class BatchedBackend(VectorizedBackend):
    """Replica-batched flat-array kernel (see module docstring).

    Inherits the solo ``execute`` path unchanged -- a single network is a
    one-replica batch, bit-for-bit the vectorized backend -- so the
    backend satisfies the standard :class:`SimulatorBackend` contract and
    the cross-backend matrices.  Grouped execution goes through
    :func:`run_replica_group`.
    """

    name = "batched"


@dataclass
class ReplicaRun:
    """One replica's prepared inputs for :func:`run_replica_group`.

    Mirrors the per-run arguments of :class:`~repro.sim.engine.Simulator`:
    the network and packet source must be freshly built (or ``reset``) for
    this replica -- in particular each replica needs its *own* placement
    object when a scenario is attached, because fault events mutate the
    placement and replicas run interleaved.
    """

    network: "Network"
    packet_source: "PacketSource"
    scenario: Optional["ScenarioSpec"] = None
    scenario_seed: int = 0
    energy_model: Optional["EnergyModel"] = None


def run_replica_group(
    replicas: Sequence[ReplicaRun],
    *,
    warmup_cycles: int,
    measurement_cycles: int,
    drain_cycles: int,
    backend_name: str = "batched",
    probe: Optional["ProbeSpec"] = None,
) -> List["SimulationResult"]:
    """Run R replicas through one kernel; return per-replica results.

    Each replica observes exactly the cycle sequence of its solo
    :meth:`Simulator.run`: per-replica measurement windows, scenario
    timelines advanced through each replica's own packet-source wrapper,
    and *per-replica* drain accounting -- a replica's
    ``drain_cycles_used`` is the cycle count until *it* went idle (see
    :meth:`~repro.sim.backends.vectorized._VectorizedKernel.run`).
    """
    # Deferred: repro.sim.engine imports this package at module scope.
    from repro.scenario.runtime import ScenarioRuntime
    from repro.sim.engine import SimulationResult

    if warmup_cycles < 0 or measurement_cycles <= 0 or drain_cycles < 0:
        raise ValueError("invalid cycle configuration")
    if not replicas:
        return []
    injection_end = warmup_cycles + measurement_cycles

    networks = [replica.network for replica in replicas]
    sources: List["PacketSource"] = []
    runtimes: List[Optional[ScenarioRuntime]] = []
    for replica in replicas:
        replica.network.stats.measurement_start = warmup_cycles
        source: "PacketSource" = replica.packet_source
        runtime: Optional[ScenarioRuntime] = None
        if replica.scenario is not None:
            runtime = ScenarioRuntime(
                replica.scenario,
                network=replica.network,
                source=source,
                base_seed=replica.scenario_seed,
                injection_end=injection_end,
            )
            runtime.begin()
            source = runtime.packet_source
        sources.append(source)
        runtimes.append(runtime)

    kernel = _VectorizedKernel(networks)
    series = None if probe is None else [probe.series() for _ in replicas]
    try:
        drain_used = kernel.run(
            sources,
            injection_end=injection_end,
            drain_cycles=drain_cycles,
            series=series,
        )
    finally:
        for index, runtime in enumerate(runtimes):
            if runtime is not None:
                runtime.finalize(injection_end + kernel.drain_used[index])

    results: List["SimulationResult"] = []
    for index, replica in enumerate(replicas):
        network = replica.network
        stats = network.stats
        result = SimulationResult(
            stats=stats,
            probe=None if series is None else series[index],
            warmup_cycles=warmup_cycles,
            measurement_cycles=measurement_cycles,
            drain_cycles_used=drain_used[index],
            num_nodes=network.mesh.num_nodes,
            average_latency=stats.average_latency,
            throughput=stats.throughput(
                measurement_cycles, network.mesh.num_nodes
            ),
            policy_name=network.policy.name,
            backend_name=backend_name,
        )
        energy_model = replica.energy_model
        if energy_model is not None:
            total = energy_model.total_energy(stats)
            result.total_energy = total
            if stats.flits_delivered > 0:
                result.energy_per_flit = total / stats.flits_delivered
            else:
                result.energy_per_flit = 0.0
            for phase in stats.phases:
                phase.energy_j = energy_model.phase_energy(phase)
        results.append(result)
    return results
