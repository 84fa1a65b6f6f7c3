"""Property tests: stats merging is order-independent (hypothesis).

``SimulationStats.merge`` / ``PhaseStats.merge`` fold collectors in
whatever order a caller offers them, so the fold must be a pure function
of the *multiset* of inputs.
That holds exactly while reservoirs are under capacity (every test here
stays under; past capacity only the bounded sample set is order-sensitive,
never the exact totals -- pinned separately at the end).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.sim.stats import PhaseStats, SimulationStats

# Integer-valued floats: exact under addition in any order, so scalar
# totals compare with == rather than approx.
latency_lists = st.lists(
    st.integers(min_value=0, max_value=200).map(float), max_size=20
)
small_counts = st.integers(min_value=0, max_value=50)


@st.composite
def phase_runs(draw):
    """A batch of PhaseStats windows of one timeline index."""
    runs = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        latencies = draw(latency_lists)
        phase = PhaseStats(
            label="window",
            start_cycle=draw(st.integers(min_value=0, max_value=100)),
            end_cycle=draw(st.integers(min_value=100, max_value=200)),
            packets_created=draw(small_counts),
            packets_delivered=len(latencies),
            flits_injected=draw(small_counts),
            total_latency=sum(latencies),
            total_hops=draw(small_counts),
            router_traversals=draw(small_counts),
        )
        for value in latencies:
            phase._observe_latency(value)
        runs.append(phase)
    return runs


@st.composite
def sim_runs(draw):
    """A batch of SimulationStats as repeated runs of one spec."""
    runs = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        latencies = draw(latency_lists)
        stats = SimulationStats(
            packets_created=draw(small_counts),
            packets_delivered=len(latencies),
            flits_injected=draw(small_counts),
            flits_delivered=draw(small_counts),
            total_latency=sum(latencies),
            total_hops=draw(small_counts),
            total_vertical_hops=draw(small_counts),
            horizontal_link_traversals=draw(small_counts),
            vertical_link_traversals=draw(small_counts),
        )
        for node in draw(st.lists(
            st.integers(min_value=0, max_value=7), max_size=6
        )):
            stats.router_traversals[node] = (
                stats.router_traversals.get(node, 0) + 1
            )
        for index in draw(st.lists(
            st.integers(min_value=0, max_value=3), max_size=6
        )):
            stats.elevator_assignments[index] = (
                stats.elevator_assignments.get(index, 0) + 1
            )
        for value in latencies:
            stats._observe_latency(value)
        runs.append(stats)
    return runs


def _fold_phases(runs, order):
    total = PhaseStats(label="window", start_cycle=10**9, end_cycle=0)
    for index in order:
        total.merge(runs[index])
    return total


def _fold_sims(runs, order):
    total = SimulationStats()
    for index in order:
        total.merge(runs[index])
    return total


def _phase_signature(phase: PhaseStats):
    return (
        phase.packets_created,
        phase.packets_delivered,
        phase.flits_injected,
        phase.total_latency,
        phase.total_hops,
        phase.router_traversals,
        phase.latency_samples_seen,
        sorted(phase.latencies),
        phase.start_cycle,
        phase.end_cycle,
    )


def _sim_signature(stats: SimulationStats):
    return (
        stats.packets_created,
        stats.packets_delivered,
        stats.flits_injected,
        stats.flits_delivered,
        stats.total_latency,
        stats.total_hops,
        stats.total_vertical_hops,
        stats.horizontal_link_traversals,
        stats.vertical_link_traversals,
        dict(stats.router_traversals),
        dict(stats.elevator_assignments),
        stats.latency_samples_seen,
        sorted(stats.latencies),
    )


@settings(max_examples=60, deadline=None)
@given(runs=phase_runs(), data=st.data())
def test_phase_merge_is_order_independent(runs, data):
    order = data.draw(st.permutations(range(len(runs))))
    forward = _fold_phases(runs, range(len(runs)))
    shuffled = _fold_phases(runs, order)
    assert _phase_signature(forward) == _phase_signature(shuffled)
    if forward.packets_delivered:
        assert forward.latency_percentile(50) == shuffled.latency_percentile(50)
        assert forward.average_latency == shuffled.average_latency


@settings(max_examples=60, deadline=None)
@given(runs=sim_runs(), data=st.data())
def test_sim_merge_is_order_independent(runs, data):
    order = data.draw(st.permutations(range(len(runs))))
    forward = _fold_sims(runs, range(len(runs)))
    shuffled = _fold_sims(runs, order)
    assert _sim_signature(forward) == _sim_signature(shuffled)


@settings(max_examples=40, deadline=None)
@given(runs=sim_runs(), data=st.data())
def test_sim_merge_is_associative(runs, data):
    """(a+b)+c == a+(b+c): fold left-to-right vs merge-of-merges."""
    split = data.draw(st.integers(min_value=0, max_value=len(runs)))
    left = _fold_sims(runs, range(split))
    right = _fold_sims(runs, range(split, len(runs)))
    left.merge(right)
    flat = _fold_sims(runs, range(len(runs)))
    assert _sim_signature(left) == _sim_signature(flat)


@settings(max_examples=20, deadline=None)
@given(values=st.lists(
    st.integers(min_value=0, max_value=10**6).map(float),
    min_size=1, max_size=300,
), data=st.data())
def test_exact_totals_survive_reservoir_overflow(values, data):
    """Past capacity the sample *set* is bounded, but the exact totals and
    sample counts must still be order-independent."""
    a = SimulationStats(latency_reservoir_size=16)
    b = SimulationStats(latency_reservoir_size=16)
    order = data.draw(st.permutations(values))
    for value in values:
        a._observe_latency(value)
        a.packets_delivered += 1
        a.total_latency += value
    for value in order:
        b._observe_latency(value)
        b.packets_delivered += 1
        b.total_latency += value
    assert a.latency_samples_seen == b.latency_samples_seen == len(values)
    assert len(a.latencies) <= 16 and len(b.latencies) <= 16
    assert a.total_latency == b.total_latency
    assert a.average_latency == b.average_latency
