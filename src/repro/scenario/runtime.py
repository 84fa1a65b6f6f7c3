"""The cycle-indexed scenario event dispatcher.

:class:`ScenarioRuntime` executes a :class:`~repro.scenario.spec.ScenarioSpec`
against a live :class:`~repro.sim.network.Network`.  It is threaded through
**every** simulation backend without changing the
:class:`~repro.sim.backends.SimulatorBackend` contract: the runtime wraps the
packet source, and since both the ``reference`` and ``optimized`` kernels
poll ``packet_source.requests(cycle)`` exactly once at the start of every
injection cycle, event dispatch happens at the same point of the cycle on
every kernel -- before any packet of that cycle is created, injected or
moved.  That single dispatch point is what makes scenario runs bit-identical
across backends.

Events go through :meth:`Network.fail_elevator` /
:meth:`Network.repair_elevator`, which mutate shared network state and
notify registered kernels so cached routing structures are rebuilt
incrementally.  The packet source itself is never touched.

The runtime restores the fault markings and severed links it changed when
:meth:`finalize` runs, so placements shared between runs -- e.g. instances
registered in the placement registry -- never leak scenario state into the
next experiment.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.scenario.spec import ScenarioSpec
from repro.traffic.generator import PacketSource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.network import Network

#: Label of the implicit first measurement window every scenario run opens.
BASELINE_PHASE_LABEL = "baseline"


class ScenarioPacketSource(PacketSource):
    """Packet-source wrapper dispatching scenario events each cycle.

    Both bundled kernels (and any correctly written custom kernel) call
    :meth:`requests` once at the start of every injection cycle, which is
    the dispatch point of the scenario timeline.
    """

    def __init__(self, runtime: "ScenarioRuntime", inner: PacketSource) -> None:
        self.runtime = runtime
        self.inner = inner

    def requests(self, cycle: int):
        self.runtime.advance(cycle)
        return self.inner.requests(cycle)

    def reset(self) -> None:
        self.runtime.rewind()
        self.inner.reset()


class ScenarioRuntime:
    """Executes one scenario timeline against a network + packet source.

    Args:
        scenario: The timeline to execute.
        network: The network under test (events mutate it).
        source: The experiment's packet source, wrapped as
            :attr:`packet_source` so its polls dispatch the timeline.
        injection_end: Warm-up + measurement cycles.  The timeline must fit
            inside it -- events can never fire during drain (no backend
            polls the packet source there).

    Raises:
        ValueError: When the timeline reaches past ``injection_end`` or
            names an elevator the placement does not have.
    """

    def __init__(
        self,
        scenario: ScenarioSpec,
        network: "Network",
        source: PacketSource,
        injection_end: Optional[int] = None,
    ) -> None:
        if not isinstance(scenario, ScenarioSpec):
            raise ValueError(f"scenario must be a ScenarioSpec, got {scenario!r}")
        self.scenario = scenario
        self.network = network
        if injection_end is not None:
            scenario.check_injection_window(injection_end)
        for event in scenario.events:
            # Fail fast on bad elevator indices instead of deep inside the
            # cycle loop (elevator_by_index raises ValueError).
            network.placement.elevator_by_index(event.elevator)
        self._events = scenario.events
        self._pointer = 0
        self.packet_source = ScenarioPacketSource(self, source)

        # Pre-run fault marks, restored by finalize()/rewind() so scenario
        # mutations never leak into placements shared with later runs.
        placement = network.placement
        self._initial_faults = {
            e.index for e in placement.elevators if placement.is_faulty(e.index)
        }
        self._finalized = False

    # ------------------------------------------------------------------ #
    # Lifecycle (driven by the Simulator)
    # ------------------------------------------------------------------ #
    def begin(self) -> None:
        """Open the implicit baseline measurement window (cycle 0)."""
        self.network.stats.begin_phase(BASELINE_PHASE_LABEL, 0)

    def advance(self, cycle: int) -> None:
        """Fire every event due at ``cycle``.

        Called once per injection cycle by the packet-source wrapper,
        before the cycle's traffic exists.
        """
        events = self._events
        while self._pointer < len(events) and events[self._pointer].cycle <= cycle:
            event = events[self._pointer]
            self._pointer += 1
            event.apply(self.network)
            self.network.stats.begin_phase(event.phase_label(), cycle)

    def finalize(self, end_cycle: int) -> None:
        """Close the last measurement window and undo scenario mutations."""
        if self._finalized:
            return
        self._finalized = True
        self.network.stats.end_phase(end_cycle)
        self._restore()

    def rewind(self) -> None:
        """Reset the timeline and undo mutations (packet-source ``reset``)."""
        self._pointer = 0
        self._finalized = False
        self._restore()

    def _restore(self) -> None:
        """Undo fault marks and severed links (shared objects stay clean)."""
        network = self.network
        placement = network.placement
        # Repairs first: re-failing an initially faulty elevator could trip
        # the last-healthy-elevator guard while a scenario fault is still
        # marked; with every scenario fault repaired, re-marking the
        # pre-run faults always passes it.
        for elevator in placement.elevators:
            index = elevator.index
            if placement.is_faulty(index) and index not in self._initial_faults:
                network.repair_elevator(index)
        for elevator in placement.elevators:
            index = elevator.index
            if not placement.is_faulty(index) and index in self._initial_faults:
                network.fail_elevator(index)
        # Pre-run fault marks never sever links (old-API placements mark
        # faults before network construction), so link restoration comes
        # last to return re-marked elevators to their marked-but-linked
        # pre-run state.
        network.restore_all_links()
