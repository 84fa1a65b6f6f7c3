"""Pluggable simulation kernels (cycle-loop backends).

The :class:`~repro.sim.engine.Simulator` no longer owns the cycle loop: it
delegates to a :class:`SimulatorBackend` looked up by name in
:data:`BACKEND_REGISTRY`, mirroring the policy / traffic / placement
registries.  Two kernels ship with the repository:

``reference``
    The original loop: every router evaluates route computation, switch
    allocation and arrival commit every cycle.  Simple, obviously correct,
    and the semantic baseline every other kernel is tested against.

``optimized`` (the default)
    An active-set kernel: only routers that can possibly do work this cycle
    -- those holding at least one flit -- are evaluated, per-router state is
    flattened into indexed lists, and routes come from the precomputed
    tables of :class:`repro.routing.base.PrecomputedRoutes`.  At low
    injection rates, where most of the mesh is empty most of the time, this
    cuts per-cycle work from O(routers) to O(active routers).

**Equivalence contract**: every backend must produce *bit-identical*
:class:`~repro.sim.engine.SimulationResult` data (statistics counters,
latency samples, drain accounting) for the same network, packet source and
seed.  The cross-backend test matrix in ``tests/test_backends.py`` enforces
this; a registered kernel that diverges is a bug, not a variant.

Registering a custom kernel (e.g. from a ``--plugin`` module)::

    from repro.sim.backends import SimulatorBackend, register_backend

    @register_backend("my_kernel", description="...")
    class MyKernel(SimulatorBackend):
        name = "my_kernel"

        def execute(self, network, packet_source, *, warmup_cycles,
                    measurement_cycles, drain_cycles):
            ...
            return drain_cycles_used
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.network import Network
    from repro.traffic.generator import PacketSource

#: Registry of simulation kernels.  Entries are classes (or zero-argument
#: factories) producing :class:`SimulatorBackend` instances.
BACKEND_REGISTRY: Registry = Registry("simulation backend")

#: Decorator registering a simulation kernel class by name.
register_backend = BACKEND_REGISTRY.register

#: The kernel used when a spec / Simulator does not name one.  Specs omit
#: the backend from their canonical serialization when it equals this, so
#: cache keys (and cached results) predating the backend field stay valid.
DEFAULT_BACKEND = "optimized"


class SimulatorBackend:
    """Base class for simulation kernels.

    A backend owns the per-cycle evaluation strategy only; all simulation
    *state* (routers, buffers, statistics) lives in the
    :class:`~repro.sim.network.Network`, so every backend observes and
    mutates the same model through the same entry points
    (``create_packet`` / ``inject`` / ``deliver_flit``).

    Attributes:
        name: Short backend name used in registries and reports.
        probe: Optional :class:`~repro.obs.probes.ProbeSpec` asking the
            kernel to sample per-cycle congestion gauges.  A *run
            argument* -- set on the resolved instance by
            :class:`~repro.sim.engine.Simulator`, never part of the spec
            or any cache key -- and, by contract, **read-only**: sampling
            must not perturb results.
        last_probe: The :class:`~repro.obs.probes.ProbeSeries` of the most
            recent ``execute`` call when ``probe`` was set, else ``None``.
    """

    name = "base"
    probe = None
    last_probe = None

    def _probe_begin(self):
        """Start a fresh series for this run; ``None`` when not probing."""
        self.last_probe = None
        spec = self.probe
        if spec is None:
            return None
        self.last_probe = spec.series()
        return self.last_probe

    def execute(
        self,
        network: "Network",
        packet_source: "PacketSource",
        *,
        warmup_cycles: int,
        measurement_cycles: int,
        drain_cycles: int,
    ) -> int:
        """Run the full cycle loop (warm-up + measurement + drain).

        The network is expected to carry no in-flight traffic or allocation
        state -- i.e. to be freshly constructed or ``reset()``.

        Returns:
            Drain cycles actually simulated (0 when the network was already
            idle when injection stopped).
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.name!r})"


def resolve_backend(
    backend: Union[str, SimulatorBackend, None] = None,
) -> SimulatorBackend:
    """Normalize a backend argument to a ready instance.

    Accepts ``None`` (the default backend), a registered name or alias, an
    instance, or a :class:`SimulatorBackend` subclass.

    Raises:
        repro.registry.UnknownComponentError: For unregistered names.
    """
    if backend is None:
        backend = DEFAULT_BACKEND
    if isinstance(backend, SimulatorBackend):
        return backend
    if isinstance(backend, type) and issubclass(backend, SimulatorBackend):
        return backend()
    return BACKEND_REGISTRY.create(str(backend))


def available_backends() -> list:
    """Sorted canonical names of every registered simulation backend."""
    return BACKEND_REGISTRY.names()


# Import for the registration side effects: the bundled kernels register
# themselves on import, so they are usable by name everywhere.
from repro.sim.backends import optimized as _optimized  # noqa: E402,F401
from repro.sim.backends import reference as _reference  # noqa: E402,F401

__all__ = [
    "BACKEND_REGISTRY",
    "DEFAULT_BACKEND",
    "SimulatorBackend",
    "available_backends",
    "register_backend",
    "resolve_backend",
]
